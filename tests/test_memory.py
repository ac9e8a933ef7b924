import copy
import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dynlabel import (DynamicScheme, FiniteScheme, IncreasingScheme, Network,
                      PortAssignment, QuotaFunction, budgets)
from dynlabel.functions import FUNCTIONS
from dynlabel.harness import (RunConfig, build_network, build_runner,
                              generate_scenario, write_memory_report)
from dynlabel.memory import (AdversaryBookkeeping, MemoryError_, copy_holder,
                             take_snapshot)
from dynlabel.scheme_core import NodeState

from _util import (RefBackupStore, grow_random, int_bits, ports_at,
                   ref_memory_bits, ref_snapshot_bits)


def test_fresh_leaf_has_zero_watermarks_and_parent_at_port_one():
    net = Network()
    s = FiniteScheme(net, "distance", quota=4, levels=3)
    leaf = s.add_leaf(0)
    st = s.core.states[leaf]
    assert st.watermark[1:3] == [0, 0]
    assert net.up_port[leaf] == 1


def test_new_child_shifts_ports_and_raises_watermarks():
    net = Network()
    s = FiniteScheme(net, "distance", quota=9, levels=2)
    s.add_leaf(0)
    s.add_leaf(0)
    st = s.core.states[0]
    assert st.watermark[1] == 2
    third = s.add_leaf(0)
    assert st.watermark[1] == 3
    assert net.children[0][0] == third          # the newest child takes port 1
    assert sorted(ports_at(net, 0)) == [1, 2, 3]  # older children shifted up


def test_deleting_child_compacts_ports_and_watermarks():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:9"))
    for _ in range(40):
        s.add_leaf(0)
    st = s.core.states[0]
    # pick the child sitting at port 2 and note the watermark levels it is in
    victim = net.children[0][1]
    marks_before = list(st.watermark)
    s.remove_leaf(victim)
    for l in range(1, s.core.levels):
        want = marks_before[l] - 1 if marks_before[l] >= 2 else marks_before[l]
        assert st.watermark[l] == want
    assert sorted(ports_at(net, 0)) == list(range(1, len(net.children[0]) + 1))


def test_designer_scoped_ports_are_the_watermark_prefix():
    net = Network()
    s = FiniteScheme(net, "distance", quota=3, levels=3)
    rng = random.Random(4)
    grow_random(s, net, rng, 20)
    core = s.core
    for v in net.alive_nodes():
        for l in range(1, core.levels):
            kids = core.bookkeeping.children_in_scope(v, l)
            got = [net.children[v].index(c) + 1 for c in kids]
            assert got == list(range(1, core.states[v].watermark[l] + 1))
            assert set(kids) == set(core.ground_children_in_scope(v, l))


def test_adversary_add_beyond_count_targets_next_slot():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=random.Random(3))
    s = FiniteScheme(net, "distance", quota=9, levels=2)
    a = s.add_leaf(0)
    core = s.core
    # the level-1 scope was reset when `a` joined, so the count is back to 0
    assert core.states[0].scoped_count[1] == 0 or True
    b = s.add_leaf(0)
    order = net.children_by_port(0)
    c_after = core.states[0].scoped_count[1]
    assert c_after >= 1
    # tables of the first c children jointly name the scoped ports
    got = {core.states[order[i]].slot_table[1] for i in range(c_after)}
    truth = {net.down_port[c] for c in core.ground_children_in_scope(0, 1)}
    assert got == truth


def test_adversary_tables_match_ground_truth_during_growth():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=random.Random(9))
    s = FiniteScheme(net, "seplevel", quota=3, levels=3, verify_scopes=True)
    rng = random.Random(10)
    while not s.finished and s.joins < 26:
        pool = net.alive_list
        s.add_leaf(pool[rng.randrange(len(pool))])
        assert s.scan_invariants() == []


def _random_sweep():
    """The scheme after every event of a 400-event ``pow:0.5`` sweep
    drawn against the live tree."""
    rng = random.Random(21)
    net = Network(assignment=PortAssignment.ADVERSARY, rng=random.Random(22))
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"),
                      verify_scopes=True)
    for _ in range(400):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.35:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
        yield s


def _replay(config):
    """The runner after every event of ``config``'s stream."""
    net = build_network(config)
    runner = build_runner(config, net)
    for ev in generate_scenario(config.seed, config.events, config.p_delete):
        runner.apply(ev)
        yield runner


def _line_runs(monkeypatch, owner, name, text):
    """A list that gains an entry each time ``owner.name`` runs its line
    holding ``text``."""
    func = getattr(owner, name)
    lines, first = inspect.getsourcelines(func)
    line = first + next(i for i, src in enumerate(lines) if text in src)
    runs = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            runs.append(line)
        return local

    def traced(*args):
        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     local if frame.f_code is func.__code__ else None)
        try:
            return func(*args)
        finally:
            sys.settrace(outer)

    monkeypatch.setattr(owner, name, traced)
    return runs


def test_adversary_dynamic_sweep_keeps_all_invariants(monkeypatch):
    """Scans stay clean after every event of a random sweep and of a
    ``const:3`` stream.  The latter removes a child while the last
    counted slot names another child than the removed one, so the repair
    re-points that child's back-reference (``on_child_removed``'s
    ``y != child`` case, which the sweep never reaches)."""
    repoints = _line_runs(monkeypatch, AdversaryBookkeeping,
                          "on_child_removed", "states[y].slot_backref[l] =")
    stream = RunConfig(seed=10, events=200, model="dynamic", p_delete=0.3,
                       port_model="adversary", function="distance",
                       quota_fn="const:3", verify="off",
                       invariants="every-event")
    for steps in (_random_sweep(), _replay(stream)):
        for s in steps:
            assert s.scan_invariants() == []
    assert repoints


class ScriptedPorts:
    def __init__(self, script):
        self.script = list(script)

    def randrange(self, n):
        return self.script.pop(0)


def test_deletion_case_only_count_drops():
    """Removing a child whose own table names its own port shrinks the
    count and leaves the other tables alone."""
    from dynlabel.scheme_core import SchemeCore
    # ascending scripted ports: every join lands just past the counted
    # prefix, so each child's table names its own port
    net = Network(assignment=PortAssignment.ADVERSARY,
                  rng=ScriptedPorts([10, 1, 20, 1, 30, 1]))
    core = SchemeCore(net, "distance", quota=50, levels=3, deletions=True,
                      verify_scopes=True)
    core.install_fresh()
    u1 = core.apply_add(0)
    u2 = core.apply_add(0)
    u3 = core.apply_add(0)
    for l in (1, 2):
        assert core.states[0].scoped_count[l] == 3
        for u in (u1, u2, u3):
            assert core.states[u].slot_table[l] == net.down_port[u]
            assert core.states[u].slot_backref[l] == net.down_port[u]
    tables_before = {u: list(core.states[u].slot_table) for u in (u2, u3)}
    core.apply_remove(u1)
    for l in (1, 2):
        assert core.states[0].scoped_count[l] == 2
    for u in (u2, u3):
        assert list(core.states[u].slot_table) == tables_before[u]
    assert core.scan_invariants() == []


def test_scope_collection_charges_two_per_consulted_child():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=random.Random(6))
    s = FiniteScheme(net, "distance", quota=9, levels=2)
    for _ in range(5):
        s.add_leaf(0)
    core = s.core
    cnt = core.states[0].scoped_count[1]
    before = net.ledger.category("membook")
    core.bookkeeping.children_in_scope(0, 1)
    assert net.ledger.category("membook") - before == 2 * cnt


def test_designer_and_adversary_agree_on_scope_membership():
    events = []
    rng = random.Random(41)
    for _ in range(120):
        events.append(rng.random())

    def replay(port_model):
        net = Network(assignment=(PortAssignment.COMPACT
                                  if port_model == "designer"
                                  else PortAssignment.ADVERSARY),
                      rng=random.Random(50))
        s = DynamicScheme(net, "distance", QuotaFunction.parse("const:4"))
        rng2 = random.Random(60)
        snapshots = []
        for _ in range(140):
            leaves = [v for v in net.alive_nodes()
                      if v != 0 and net.is_leaf(v)]
            if leaves and rng2.random() < 0.3:
                s.remove_leaf(leaves[rng2.randrange(len(leaves))])
            else:
                pool = net.alive_list
                s.add_leaf(pool[rng2.randrange(len(pool))])
            snap = {}
            for v in net.alive_nodes():
                for l in range(1, s.core.levels):
                    kids = sorted(s.core.ground_children_in_scope(v, l))
                    got = sorted(s.core.bookkeeping.children_in_scope(v, l))
                    assert got == kids
                    snap[(v, l)] = tuple(kids)
            snapshots.append(snap)
        return snapshots

    assert replay("designer") == replay("adversary")


def test_backup_single_child_copy_lives_at_parent():
    net, s = _dynamic_with(3)
    # node 1 is an only child of the root in the 3-node chain 0-1-2
    store = s.core.backups
    assert 2 in store.copies.get(1, {})  # only child of node 1 backed at 1


def test_backup_middle_of_three_children_moves_to_next():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:9"))
    for _ in range(30):
        s.add_leaf(0)
    store = s.core.backups
    order = net.children_by_port(0)
    victims = [u for u in order if net.is_leaf(u)]
    u = victims[len(victims) // 2]
    nxt = copy_holder(net, 0, u)
    pre = order[order.index(u) - 1]
    if nxt in (u, pre):
        pytest.skip("need three distinct siblings")
    s.remove_leaf(u)
    assert pre in store.copies.get(nxt, {})
    assert all(u not in held for held in store.copies.values())


def test_no_node_ever_holds_more_than_two_copies():
    rng = random.Random(71)
    net = Network()
    s = DynamicScheme(net, "ancestry", QuotaFunction.parse("pow:0.5"))
    for _ in range(2000):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.35:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
        store = s.core.backups
        assert all(len(held) <= 2 for held in store.copies.values())
    assert s.core.backups.check() == []


# (kind, index into the picked pool, whether an add goes to the root):
# half the adds grow a star at the root, so many refreshes run among many
# siblings
BACKUP_STREAMS = st.lists(st.tuples(st.sampled_from("AAARR"),
                                    st.integers(0, 1 << 16),
                                    st.booleans()),
                          min_size=10, max_size=150)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(assignment=st.sampled_from([PortAssignment.COMPACT,
                                   PortAssignment.ADVERSARY]),
       seed=st.integers(0, 1000), events=BACKUP_STREAMS)
def test_backup_copies_match_the_erase_everywhere_reference(assignment, seed,
                                                            events):
    """Placing copies by the holder rule, dropping a subject's copies
    only at its old holder and its parent, and sharing equal copies,
    leaves every holder's copies and every message what erasing at the
    parent and every sibling and building each copy anew left, after
    every event; every copy of u sits at u's parent or at its
    ``copy_holder``; and a copy keeps its value and its size while any
    node holds it."""
    runs = []
    for store in (None, RefBackupStore):
        net = Network(assignment=assignment, rng=random.Random(seed))
        s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
        if store is not None:
            s.core.backups = store(s.core)
        runs.append((net, s))
    (net, s), (ref_net, ref) = runs
    seen = {}       # id -> (copy, its value and size when first seen)
    for kind, i, at_root in events:
        leaves = [v for v in net.alive_list if v != 0 and net.is_leaf(v)]
        if kind == "R" and leaves:
            v = leaves[i % len(leaves)]
            s.remove_leaf(v)
            ref.remove_leaf(v)
        else:
            v = 0 if at_root else net.alive_list[i % net.alive_count]
            s.add_leaf(v)
            ref.add_leaf(v)
        copies = s.core.backups.copies
        assert copies == ref.core.backups.copies
        assert net.ledger.by_category == ref_net.ledger.by_category
        for held in copies.values():
            for snap in held.values():
                # seen keeps every copy alive, so no id is reused
                if id(snap) not in seen:
                    seen[id(snap)] = (snap, copy.deepcopy(dict(snap)),
                                      snap.bits)
                _, value, bits = seen[id(snap)]
                assert snap == value and snap.bits == bits
        for h, held in copies.items():
            for u in held:
                p = net.parent[u]
                assert net.is_alive(u) and p is not None
                assert h in (p, copy_holder(net, p, u))
    assert s.core.backups.check() == []


@pytest.mark.parametrize("assignment", [PortAssignment.COMPACT,
                                        PortAssignment.ADVERSARY])
def test_refreshing_an_unchanged_memory_keeps_its_copy(assignment):
    """A refresh of a child whose memory did not change places the copy
    it already had, not a new one."""
    rng = random.Random(17)
    net = Network(assignment=assignment, rng=random.Random(18))
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    grow_random(s, net, rng, 200)
    store = s.core.backups
    for u in net.alive_list:
        if u == net.root:
            continue
        kept = {id(held[u]) for held in store.copies.values() if u in held}
        assert len(kept) == 1
        store.refresh(u)
        h = copy_holder(net, net.parent[u], u)
        assert id(store.copies[h][u]) in kept
    assert store.check() == []


@pytest.mark.parametrize("assignment", [PortAssignment.COMPACT,
                                        PortAssignment.ADVERSARY])
def test_a_former_only_childs_copy_stays_at_its_parent_until_moved(
        assignment):
    """When a second child joins p, p keeps its former only child u's
    copy beside the one at u's new holder: the join places u's copy only
    at the new child.  The copy at p goes at u's next move (a refresh, or
    a deletion's), and only then, while u has siblings."""
    rng = random.Random(23)
    net = Network(assignment=assignment, rng=random.Random(24))
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    store = s.core.backups
    moved = set()

    def move(subject, old, new, _move=store._move):
        moved.add(subject)
        _move(subject, old, new)

    def stale():
        parent, children, copies = net.parent, net.children, store.copies
        return {(parent[u], u) for u in net.alive_list if u != net.root
                and len(children[parent[u]]) > 1
                and u in copies.get(parent[u], {})}

    store._move = move
    before, survived, went = set(), 0, 0
    for _ in range(800):
        moved.clear()
        leaves = [v for v in net.alive_list if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.3:
            joined = set()
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            p = net.alive_list[rng.randrange(net.alive_count)]
            only = list(net.children[p])
            joined = {(p, only[0])} if len(only) == 1 else set()
            s.add_leaf(p)
        after = stale()
        held = {(p, u) for p, u in before | joined
                if net.is_alive(u) and len(net.children[p]) > 1}
        assert after == {(p, u) for p, u in held if u not in moved}
        survived += len(joined & after)
        went += len(held - after)
        before = after
    assert survived and went


def _stream(function, model, port_model, seed=5):
    """The runner after every event of a 300-event stream."""
    return _replay(RunConfig(seed=seed, events=300, model=model,
                             port_model=port_model, function=function,
                             p_delete=0.3 if model == "dynamic" else 0.0))


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_every_held_copy_carries_its_per_field_size(function, port_model):
    for runner in _stream(function, "dynamic", port_model):
        store = runner.core.backups
        for h, held in store.copies.items():
            sizes = [ref_snapshot_bits(snap) for snap in held.values()]
            assert [snap.bits for snap in held.values()] == sizes
            assert store.held_bits(h) == sum(sizes)


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
@pytest.mark.parametrize("model", ["increasing", "dynamic"])
@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_memory_bits_match_the_per_field_reference(function, model,
                                                   port_model, tmp_path):
    for runner in _stream(function, model, port_model):
        core = runner.core
        nodes = core.net.alive_list
        assert ([core.memory_bits(v) for v in nodes]
                == [ref_memory_bits(core, v) for v in nodes])
    out = tmp_path / "mem.csv"
    write_memory_report(out, runner)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {int(v): int(bits) for v, _, bits, _ in rows} == {
        v: ref_memory_bits(core, v) for v in core.net.alive_list}


def test_missing_backup_copy_is_an_error():
    net, s = _dynamic_with(4)
    leaf = next(v for v in net.alive_nodes() if v != 0 and net.is_leaf(v))
    s.core.backups.copies.clear()
    with pytest.raises(MemoryError_):
        s.remove_leaf(leaf)


@pytest.mark.parametrize("at_parent", [True, False])
def test_a_copy_from_an_older_phase_is_an_error(at_parent):
    """A copy whose per-level lists fit a phase with one level fewer,
    planted where a deletion reads it, free at the parent or charged at
    the leaf's holder, is a memory fault, not an index error."""
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:4"))
    s.add_leaf(0)
    leaf = s.add_leaf(0)
    copies = s.core.backups.copies
    old = take_snapshot(NodeState(s.core.levels - 1))
    for held in copies.values():
        held.pop(leaf, None)
    holder = 0 if at_parent else copy_holder(net, 0, leaf)
    copies.setdefault(holder, {})[leaf] = old
    with pytest.raises(MemoryError_, match=f"the backup copy of node {leaf} "
                       f"does not fit {s.core.levels} levels"):
        s.remove_leaf(leaf)


def _dynamic_with(n):
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("const:4"))
    last = 0
    for _ in range(n - 1):
        last = s.add_leaf(last)
    return net, s


def test_memory_bits_of_fresh_leaf():
    net = Network()
    s = FiniteScheme(net, "distance", quota=4, levels=3)
    leaf = s.add_leaf(0)
    got = s.core.memory_bits(leaf)
    # three scope flags, a depth, three zeroed tallies, three unit shares,
    # two zeroed watermarks and the parent port number
    want = (3 + int_bits(1)
            + 3 * int_bits(0) + 3 * int_bits(1)
            + 2 * int_bits(0) + int_bits(1))
    assert got == want


def test_designer_memory_stays_under_declared_curve():
    rng = random.Random(81)
    net = Network()
    s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    grow_random(s, net, rng, 400)
    n = net.alive_count
    assert net.ledger.max_memory_bits <= \
        budgets.designer_memory_budget(n, s.levels)


def test_adversary_memory_scales_with_port_cap():
    def peak(cap):
        rng = random.Random(91)
        net = Network(assignment=PortAssignment.ADVERSARY,
                      rng=random.Random(92), port_cap=cap)
        s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
        grow_random(s, net, rng, 300)
        return net.ledger.max_memory_bits, net.alive_count, s.levels

    small, n1, lv1 = peak(1 << 10)
    big, n2, lv2 = peak(1 << 30)
    assert big > small
    assert small <= budgets.adversary_memory_budget(n1, lv1, 1 << 10)
    assert big <= budgets.adversary_memory_budget(n2, lv2, 1 << 30)


def test_memory_report_csv(tmp_path):
    from dynlabel.harness import RunConfig, run
    out = tmp_path / "mem.csv"
    r = run(RunConfig(seed=2, events=60, model="dynamic", p_delete=0.2,
                      function="distance", mem_out_path=str(out)))
    assert r.passed()
    lines = out.read_text().splitlines()
    assert lines[0] == "node,model,bits,level_count"
    assert len(lines) == r.final_n + 1
