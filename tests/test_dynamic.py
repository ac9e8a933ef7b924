import math
import random

import pytest
from hypothesis import given, strategies as st

import dynlabel
from dynlabel import (DynamicScheme, ExactChangeTracker, IncreasingScheme,
                      Network, PortAssignment, QuotaFunction, ScenarioEvent,
                      compute_phase_params, generate_scenario, get_function,
                      scheme_for)
from dynlabel.harness import build_network, RunConfig, run
from dynlabel.scheme_core import SchemeCore, SchemeError
from dynlabel.simnet import InvalidEvent

from _util import build_net, grow_random


def test_phase_params_example_ten_nodes_quota_three():
    params = compute_phase_params(10, QuotaFunction("const", 3))
    assert (params.quota, params.levels) == (3, 4)  # 9 <= 20 < 27


def test_phase_params_example_singleton_quota_two():
    params = compute_phase_params(1, QuotaFunction("const", 2))
    assert (params.quota, params.levels) == (2, 3)  # 2 <= 2 < 4


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.sampled_from(["pow:0.3", "pow:0.5", "pow:0.8", "logpow:0.5",
                        "logpow:1.0", "const:2", "const:5", "const:17"]))
def test_phase_params_bracket_inequality(n, rule):
    qf = QuotaFunction.parse(rule)
    p = compute_phase_params(n, qf)
    assert p.quota >= 2
    assert p.levels >= 2
    assert p.quota ** (p.levels - 2) <= 2 * n < p.quota ** (p.levels - 1)


def test_quota_function_clamped_and_nondecreasing():
    for rule in ("pow:0.5", "logpow:0.5", "const:4"):
        qf = QuotaFunction.parse(rule)
        values = [qf.value(n) for n in range(1, 4000, 13)]
        assert all(v >= 2 for v in values)
        assert values == sorted(values)


def test_quota_function_accepts_the_ends_of_its_ranges():
    for rule in ("pow:0", "pow:1", "logpow:0", "logpow:16", "const:-3"):
        qf = QuotaFunction.parse(rule)
        assert qf.value(1 << 40) >= 2
    for rule in ("pow:1.01", "logpow:16.5", "const:nan"):
        with pytest.raises(ValueError):
            QuotaFunction.parse(rule)


def test_quota_function_parse_reads_kind_and_parameter():
    qf = QuotaFunction.parse("pow:0.5")
    assert (qf.kind, qf.param) == ("pow", 0.5)
    qf = QuotaFunction.parse("const:4")
    assert (qf.kind, qf.param) == ("const", 4)
    with pytest.raises(ValueError):
        QuotaFunction.parse("pow")
    with pytest.raises(ValueError):
        QuotaFunction.parse("cubic:3")


def test_increasing_scheme_starts_single_level():
    net = Network()
    s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    assert (s.quota, s.levels) == (2, 1)


@pytest.mark.parametrize("model", [IncreasingScheme, DynamicScheme])
def test_a_driver_starts_only_on_a_singleton_tree(model):
    with pytest.raises(SchemeError, match="singleton"):
        model(build_net([0]), "distance", QuotaFunction.parse("pow:0.5"))


@pytest.mark.parametrize("model", [IncreasingScheme, DynamicScheme])
def test_a_rejected_driver_leaves_the_network_unhooked(model):
    net = build_net([0])
    with pytest.raises(SchemeError, match="singleton"):
        model(net, "distance", QuotaFunction.parse("pow:0.5"))
    assert net.add_leaf(0) == 2
    assert net.ledger.messages_total == 0


def test_a_driver_rejecting_its_tracker_leaves_the_network_unhooked():
    net = Network()
    with pytest.raises(ValueError, match="tracker"):
        DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"),
                      tracker="estimated")
    assert net.add_leaf(0) == 1
    assert net.ledger.messages_total == 0


def test_increasing_scheme_first_transition_uses_reset_count():
    net = Network()
    s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    s.add_leaf(0)
    s.add_leaf(0)  # fills quota 2 at level 1; count 3 picks the next phase
    assert s.phase_log
    _, params = s.phase_log[0]
    assert params.tree_count == 3
    assert (params.quota, params.levels) == (2, 4)  # 4 <= 6 < 8


def test_increasing_scheme_rejects_removal():
    net = Network()
    s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    s.add_leaf(0)
    with pytest.raises(InvalidEvent):
        s.remove_leaf(1)


def test_increasing_label_bits_within_budget_over_growth():
    from dynlabel import budgets
    rng = random.Random(19)
    net = Network()
    s = IncreasingScheme(net, "ancestry", QuotaFunction.parse("pow:0.5"))
    pi = scheme_for("ancestry")
    grow_random(s, net, rng, 500)
    n = net.alive_count
    assert net.ledger.max_label_bits <= \
        budgets.LABEL_RATIO_CONSTANT * 2 * pi.ls_budget(n)


def test_increasing_messages_within_declared_curve():
    rng = random.Random(20)
    net = Network()
    qf = QuotaFunction.parse("pow:0.5")
    s = IncreasingScheme(net, "ancestry", qf)
    grow_random(s, net, rng, 600)
    n = net.alive_count
    k = qf.value(n)
    logk = math.log(n) / math.log(k)
    assert net.ledger.protocol_messages() <= 5 * k * (logk + 2) * 2 * n


def _settled_dynamic_scheme(function="distance", quota_fn="const:4", adds=40):
    """A scheme grown past its last restart, with room for a few more
    events before the change tracker can cross again."""
    net = Network()
    s = DynamicScheme(net, function, QuotaFunction.parse(quota_fn))
    while not (s.restart_log and s.restart_log[-1][1] >= 36
               and s.tracker.changes() == 0):
        s.add_leaf(0)
        if net.alive_count > adds * 4:
            raise AssertionError("no settled restart reached")
    return net, s


def test_omega_absorbed_at_every_level_for_plain_leaf():
    net, s = _settled_dynamic_scheme()
    core = s.core
    leaf = s.add_leaf(0)
    assert core.states[leaf].top_scope == 0
    before = [core.states[0].ever_share[l] for l in range(1, core.levels + 1)]
    leaf_share = list(core.states[leaf].ever_share)
    s.remove_leaf(leaf)
    after = [core.states[0].ever_share[l] for l in range(1, core.levels + 1)]
    assert after == [b + leaf_share[l]
                     for l, b in zip(range(1, core.levels + 1), before)]


def test_omega_not_absorbed_at_levels_rooted_by_the_leaf():
    net, s = _settled_dynamic_scheme()
    core = s.core
    # every non-root node seeded by the restart roots all lower scopes
    leaf = next(v for v in net.alive_nodes()
                if v != 0 and net.is_leaf(v)
                and core.states[v].top_scope == core.levels - 1)
    parent = net.parent[leaf]
    before = [core.states[parent].ever_share[l]
              for l in range(1, core.levels + 1)]
    s.remove_leaf(leaf)
    after = [core.states[parent].ever_share[l]
             for l in range(1, core.levels + 1)]
    assert after[:-1] == before[:-1]       # rooted scopes die with the leaf
    assert after[-1] == before[-1] + 1     # only the shared top level absorbs


def test_ever_count_equals_alive_plus_deleted_in_scope():
    rng = random.Random(33)
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:6"))
    joined, removed = 0, 0
    for step in range(120):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.35:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
        assert s.scan_invariants() == []
    # the top-level scope counts everything that ever joined the epoch
    core = s.core
    root_state = core.states[0]
    total = sum(core.states[v].ever_share[core.levels]
                for v in net.alive_nodes())
    assert total == root_state.ever_count[core.levels]


def test_restart_on_bare_root_counts_one():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:4"))
    a = s.add_leaf(0)
    s.remove_leaf(a)  # crossing at the tiny baseline restarts on the root
    assert s.restart_log[-1][1] == 1
    assert s.core.last_reset_count == 1
    assert s.query(0, 0) == 0


def test_reset_count_is_the_ever_count_of_its_scope():
    net, s = _settled_dynamic_scheme()
    core = s.core
    a = s.add_leaf(0)
    b = s.add_leaf(a)
    s.remove_leaf(b)
    # the next join under `a` resets a scope that saw one deletion
    s.add_leaf(a)
    members = list(core.last_reset_labels)
    root = members[0]
    assert core.last_reset_count == core.states[root].ever_count[1]
    assert core.last_reset_count == len(members) + 1  # deleted node counted


def test_exact_tracker_crosses_at_eleventh_addition():
    t = ExactChangeTracker()
    t.restart_baseline(90)
    for i in range(1, 11):
        assert t.on_change("A") is False, i
    assert t.on_change("A") is True
    assert t.adds == 11


def test_tracker_window_bound_until_crossing():
    for n0 in (2, 9, 40, 90, 123):
        t = ExactChangeTracker()
        t.restart_baseline(n0)
        kinds = ["A", "R"] * n0
        for kind in kinds:
            crossed = t.on_change(kind)
            if crossed:
                assert 9 * t.changes() > n0  # crossing implies a real burst
                break
            assert t.changes() <= n0 / 2


def test_dynamic_restarts_exactly_at_crossings():
    rng = random.Random(55)
    net = Network()
    s = DynamicScheme(net, "ancestry", QuotaFunction.parse("pow:0.5"))
    # independent replay of the restart rule
    expected = []
    baseline = 1
    adds = dels = 0
    n_alive = 1
    for i in range(1, 401):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.3:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
            dels += 1
            n_alive -= 1
        else:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
            adds += 1
            n_alive += 1
        if 9 * adds > baseline or 9 * dels > baseline:
            expected.append((i, n_alive))
            baseline = n_alive
            adds = dels = 0
    assert s.restart_log == expected


@pytest.mark.parametrize("model", [IncreasingScheme, DynamicScheme])
def test_rejected_events_take_no_event_number(model):
    """A rejected event leaves ``event_index`` alone, so a stream with
    rejected events mixed in logs the same phase shifts and restarts, at
    the same event numbers, as the stream without them."""
    p_delete = 0.3 if model.deletions else 0.0
    stream = generate_scenario(3, 300, p_delete)
    rejected = [ScenarioEvent("R", 0), ScenarioEvent("R", 99_999),
                ScenarioEvent("A", 99_999)]

    def replay(with_rejected):
        s = model(Network(), "ancestry", QuotaFunction.parse("pow:0.5"))
        for i, ev in enumerate(stream):
            if with_rejected and i % 7 == 0:
                before = s.event_index
                for bad in rejected:
                    with pytest.raises(InvalidEvent):
                        s.apply(bad)
                    assert s.event_index == before
            s.apply(ev)
        return s.event_index, s.phase_log, s.restart_log

    clean = replay(False)
    # phase shifts on the growing tree, restarts with deletions
    assert clean[0] == len(stream) and clean[2 if model.deletions else 1]
    assert replay(True) == clean


def test_dynamic_scheme_is_quiet_before_first_crossing():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    # with a singleton baseline the very first event crosses
    s.add_leaf(0)
    assert s.restart_log and s.restart_log[0][0] == 1
    baseline = s.restart_log[-1][1]
    quiet = math.floor(baseline / 9)
    before = len(s.restart_log)
    for i in range(quiet):
        s.add_leaf(0)
    assert len(s.restart_log) == before


def test_dead_nodes_never_addressed():
    rng = random.Random(77)
    for ports in ("designer", "adversary"):
        config = RunConfig(seed=7, model="dynamic", port_model=ports,
                           function="distance", p_delete=0.4, events=1)
        net = build_network(config)
        s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
        for _ in range(250):
            leaves = [v for v in net.alive_nodes()
                      if v != 0 and net.is_leaf(v)]
            if leaves and rng.random() < 0.4:
                s.remove_leaf(leaves[rng.randrange(len(leaves))])
            else:
                pool = net.alive_list
                s.add_leaf(pool[rng.randrange(len(pool))])
        assert net.ledger.messages_to_dead == 0


def test_amortized_messages_grow_sublinearly():
    rng = random.Random(101)
    net = Network()
    s = DynamicScheme(net, "ancestry", QuotaFunction.parse("pow:0.5"))
    ratios = []
    events = 0
    for target in (250, 500, 1000, 2000):
        while events < target:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
            events += 1
        amortized = net.ledger.messages_total / events
        ratios.append(amortized / net.alive_count)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_queries_survive_restarts_and_deletions():
    rng = random.Random(111)
    net = Network()
    s = DynamicScheme(net, "seplevel", QuotaFunction.parse("pow:0.5"))
    fn = get_function("seplevel")
    for _ in range(300):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.3:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
        nodes = net.alive_nodes()
        for _ in range(20):
            u = nodes[rng.randrange(len(nodes))]
            v = nodes[rng.randrange(len(nodes))]
            assert s.query(u, v) == fn.oracle(net, u, v)


def test_driver_seam_wraps_each_model_once_per_event(monkeypatch):
    """Wrapping ``apply`` on each model's class, and ``_restart`` on the
    leaf-dynamic one, must see every event and restart exactly once: the
    two models are distinct classes, neither inherits from the other,
    and neither defines the wrapped methods itself."""
    assert IncreasingScheme is not DynamicScheme
    assert not issubclass(DynamicScheme, IncreasingScheme)
    assert not issubclass(IncreasingScheme, DynamicScheme)
    for cls in (IncreasingScheme, DynamicScheme):
        assert "apply" not in vars(cls) and "_restart" not in vars(cls)
    applied, restarted = [], []
    for cls in (IncreasingScheme, DynamicScheme):
        def apply(runner, event, _apply=cls.apply):
            applied.append(event)
            return _apply(runner, event)
        monkeypatch.setattr(cls, "apply", apply)

    def restart(runner, _restart=DynamicScheme._restart):
        restarted.append(runner.event_index)
        return _restart(runner)
    monkeypatch.setattr(DynamicScheme, "_restart", restart)
    for model, p_delete in (("increasing", 0.0), ("dynamic", 0.3)):
        applied.clear()
        restarted.clear()
        r = run(RunConfig(seed=4, events=120, model=model,
                          p_delete=p_delete))
        assert r.passed() and len(applied) == r.events_applied == 120
        assert restarted == [i for i, _ in r.restarts]
    assert restarted
    for name in dynlabel.__all__:
        assert getattr(dynlabel, name) is not None


def _scope_size(core, level, root):
    """Members of root's level-`level` scope, counted over the children
    lists: a child is in its parent's scope unless it roots its own
    scope at that level."""
    states, children = core.states, core.net.children
    m, stack = 0, [root]
    while stack:
        v = stack.pop()
        m += 1
        stack.extend(c for c in children[v] if states[c].top_scope < level)
    return m


def _tree_size(net):
    m, stack = 0, [net.root]
    while stack:
        m += 1
        stack.extend(net.children[stack.pop()])
    return m


@pytest.mark.parametrize("seed,quota_fn", [(3, "pow:0.5"), (8, "const:2")])
@pytest.mark.parametrize("assignment", [PortAssignment.COMPACT,
                                        PortAssignment.ADVERSARY])
@pytest.mark.parametrize("model", [IncreasingScheme, DynamicScheme])
def test_costs_are_the_tree_identities(monkeypatch, model, assignment, seed,
                                      quota_fn):
    """Each cost, computed from the tree before the work is charged: a
    reset of m members charges 2(m-1) ``reset_count`` and 2(m-1)
    ``marker``; a relay, its two ends' depth difference; a restart on n0
    nodes 2(n0-1) ``watch`` for its measurement, 2(n0-1) ``reset_count``
    and ``marker``, and n0-1 ``broadcast``.  Every scope map a reset
    walks lists each member after its parent, as markers require."""
    got, want, levels, unordered = [], [], set(), []

    def charged(net, costs, step, *args):
        # the slot is reserved first: a restart runs a reset inside it
        want.append(costs)
        i = len(got)
        got.append(None)
        before = {c: net.ledger.category(c) for c in costs}
        out = step(*args)
        got[i] = {c: net.ledger.category(c) - b for c, b in before.items()}
        return out

    def reset(core, level, root, _reset=SchemeCore._reset):
        m = _scope_size(core, level, root)
        levels.add(level)
        scope = charged(core.net, {"reset_count": 2 * (m - 1),
                                   "marker": 2 * (m - 1)},
                        _reset, core, level, root)
        at = {v: i for i, v in enumerate(scope)}
        parent = core.net.parent
        if at[root] != 0 or any(at[parent[v]] > at[v]
                                for v in scope if v != root):
            unordered.append((level, root))
        return scope

    def charge_path(net, frm, ancestor, category,
                    _charge_path=Network.charge_path):
        return charged(net, {category: net.depth[frm] - net.depth[ancestor]},
                       _charge_path, net, frm, ancestor, category)

    def restart(driver, _restart=DynamicScheme._restart):
        n0 = _tree_size(driver.net)
        return charged(driver.net, {"watch": 2 * (n0 - 1),
                                    "reset_count": 2 * (n0 - 1),
                                    "marker": 2 * (n0 - 1),
                                    "broadcast": n0 - 1},
                       _restart, driver)

    monkeypatch.setattr(SchemeCore, "_reset", reset)
    monkeypatch.setattr(Network, "charge_path", charge_path)
    monkeypatch.setattr(DynamicScheme, "_restart", restart)
    net = Network(assignment=assignment, rng=random.Random(seed))
    scheme = model(net, "distance", QuotaFunction.parse(quota_fn))
    for event in generate_scenario(seed, 400,
                                   0.3 if model is DynamicScheme else 0.0):
        scheme.apply(event)
    assert got == want
    assert unordered == []
    kinds = {tuple(w) for w in want}
    assert {("reset_count", "marker"), ("signal",)} <= kinds
    assert (("watch", "reset_count", "marker", "broadcast") in kinds) == (
        model is DynamicScheme)
    if quota_fn == "const:2":
        assert max(levels) >= 2
