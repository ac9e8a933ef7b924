import dataclasses
import itertools
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dynlabel import (Network, PortAssignment, RunConfig, generate_scenario,
                      harness, run, scheme_core)
from dynlabel.bits import BitsError
from dynlabel.cli import main as cli_main
from dynlabel.dynamic import DynamicScheme, IncreasingScheme, QuotaFunction
from dynlabel.functions import get_function
from dynlabel.harness import Mismatch, VerificationReport
from dynlabel.memory import MemoryError_
from dynlabel.scheme_core import SchemeCore, SchemeError
from dynlabel.simnet import DeadNeighborError, ScenarioEvent, format_scenario
from dynlabel.static_schemes import DecodeError
import dynlabel.static_schemes as static_schemes

from _util import ref_verify_step


def test_generate_pure_growth_when_no_deletions():
    events = generate_scenario(3, 50, 0.0)
    assert all(e.kind == "A" for e in events)


def test_generate_is_seed_stable():
    a = generate_scenario(11, 400, 0.3)
    b = generate_scenario(11, 400, 0.3)
    assert a == b
    assert a != generate_scenario(12, 400, 0.3)


def test_generated_events_replay_validly():
    events = generate_scenario(5, 10_000, 0.3)
    net = Network()
    for e in events:
        if e.kind == "A":
            net.add_leaf(e.target)
        else:
            net.remove_leaf(e.target)
    assert net.alive_count >= 1


def test_generated_ids_follow_arrival_order():
    events = generate_scenario(9, 200, 0.25)
    net = Network()
    adds = 0
    for e in events:
        if e.kind == "A":
            adds += 1
            assert net.add_leaf(e.target) == adds
        else:
            net.remove_leaf(e.target)


def test_config_rejects_deletions_in_increasing_model():
    with pytest.raises(ValueError):
        RunConfig(model="increasing", p_delete=0.2)


def test_config_rejects_unknown_verify_mode():
    with pytest.raises(ValueError):
        RunConfig(verify="everything")


def test_run_default_config_passes():
    r = run(RunConfig(seed=1, events=120, function="ancestry"))
    assert r.passed()
    assert r.queries_checked > 0
    assert r.final_n == 121


def test_exhaustive_verification_on_small_tree():
    r = run(RunConfig(seed=2, events=29, function="distance",
                      verify="exhaustive", invariants="every-event"))
    assert r.passed()
    assert r.queries_checked == sum(n * (n + 1) // 2
                                    for n in range(2, 31))


def test_verify_self_queries_all_functions():
    for fn in ("ancestry", "distance", "seplevel", "routing"):
        r = run(RunConfig(seed=3, events=40, function=fn,
                          verify="sampled:16"))
        assert r.passed(), fn


def test_routing_exhaustive_ordered_pairs():
    r = run(RunConfig(seed=4, events=31, function="routing",
                      verify="exhaustive"))
    assert r.passed()
    assert r.queries_checked == sum(n * n for n in range(2, 33))


def test_injected_decoder_bug_is_caught(monkeypatch):
    broken = dataclasses.replace(
        static_schemes.SCHEMES["ancestry"],
        decoder=lambda lu, lv: (lv[1] <= lu[1] <= lv[2],
                                lu[1] <= lv[1] <= lu[2]))
    monkeypatch.setitem(static_schemes.SCHEMES, "ancestry", broken)
    r = run(RunConfig(seed=5, events=25, function="ancestry",
                      verify="exhaustive", invariants="off", bounds=False))
    assert r.mismatches
    first = r.mismatches[0]
    assert first.seed == 5
    assert first.event_index >= 1


def _grow_and_shrink(seed):
    """A leaf-dynamic stream that grows past the exhaustive limit of
    ``sampled`` verification, shrinks below it and grows back."""
    rng = random.Random(seed)
    net = Network()
    events = []
    for size in (80, 40, 70, 30):
        while net.alive_count < size:
            p = net.alive_list[rng.randrange(net.alive_count)]
            net.add_leaf(p)
            events.append(ScenarioEvent("A", p))
        while net.alive_count > size:
            leaves = [v for v in net.alive_list if v != 0 and net.is_leaf(v)]
            v = leaves[rng.randrange(len(leaves))]
            net.remove_leaf(v)
            events.append(ScenarioEvent("R", v))
    return events


def _memo_and_reference_reports(monkeypatch, config):
    """The run's report, then its report with every exhaustive pair
    decoded, and the first run's counts of decodes and ``value`` calls."""
    decode = scheme_core.decode_labels
    cls = type(get_function(config.function))
    calls = {"decode": 0, "value": 0}

    def counted(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(scheme_core, "decode_labels", counted("decode", decode))
        m.setattr(cls, "value", counted("value", cls.value))
        got = run(config)
    with monkeypatch.context() as m:
        m.setattr(harness, "verify_step", ref_verify_step)
        want = run(config)
    return got.to_dict(), want.to_dict(), calls["decode"], calls["value"]


def _memo_grid(function, tmp_path):
    """Both models and port models under ``exhaustive`` and
    ``sampled:64`` (fixed seeds, 50 events, so every check of the
    sampled runs is exhaustive too), then a grow-and-shrink stream under
    ``sampled:64``, which clears the memo and rebuilds it twice."""
    grid = itertools.product(("increasing", "dynamic"),
                             ("designer", "adversary"),
                             ("exhaustive", "sampled:64"))
    for seed, (model, port_model, verify) in enumerate(grid):
        yield RunConfig(seed=seed, events=50, model=model,
                        p_delete=0.3 if model == "dynamic" else 0.0,
                        port_model=port_model, function=function,
                        verify=verify, invariants="off")
    stream = tmp_path / "grow-shrink.txt"
    stream.write_text(format_scenario(_grow_and_shrink(len(function))))
    for port_model in ("designer", "adversary"):
        yield RunConfig(model="dynamic", port_model=port_model,
                        function=function, verify="sampled:64",
                        invariants="off", scenario_path=str(stream))


@pytest.mark.parametrize("function", ["ancestry", "distance", "seplevel",
                                      "routing"])
def test_the_decode_memo_reports_what_decoding_every_pair_reports(
        monkeypatch, tmp_path, function):
    """Reports equal the reference's.  In the 50-event grid every check
    is exhaustive, and its carried pairs are neither decoded nor given an
    oracle value: each run decodes fewer pairs than it checks, and the
    grid's ``value`` calls are under half of its checked pairs (a quarter
    when measured; the small dynamic runs restart often, and one of them
    reaches half alone)."""
    values = checked = 0
    for config in _memo_grid(function, tmp_path):
        got, want, decodes, calls = _memo_and_reference_reports(
            monkeypatch, config)
        assert got == want, config
        assert got["passed"], config
        if config.scenario_path is None:
            assert decodes < got["queries_checked"], config
            values += calls
            checked += got["queries_checked"]
    assert values < checked / 2


def _wrong_on_some_pairs(decode, wrong):
    """``decode_labels`` answering wrongly on some label pairs, chosen by
    the labels' content alone (the bit counts bx, by of their outer
    static labels, when bx + 3 by is a multiple of 8), as a decoder
    reads nothing else; ``wrong`` collects each wrong answer."""
    def broken(fn, pi, lx, ly):
        got = decode(fn, pi, lx, ly)
        if (lx[1][-1] + 3 * ly[1][-1]) % 8 == 0:
            wrong.append(got)
            return ("wrong", got)
        return got
    return broken


@pytest.mark.parametrize("function", ["ancestry", "distance", "seplevel",
                                      "routing"])
def test_carried_mismatches_are_those_of_a_fresh_check(
        monkeypatch, tmp_path, function):
    """With a decoder wrong on some pairs, the mismatch list equals the
    reference's entry by entry: a pair whose labels did not change is
    reported again at each event, in (u, v) order among the fresh ones,
    without being decoded again."""
    decode = scheme_core.decode_labels
    carried = 0
    for config in _memo_grid(function, tmp_path):
        runs = []
        for step in (harness.verify_step, ref_verify_step):
            wrong = []
            with monkeypatch.context() as m:
                m.setattr(scheme_core, "decode_labels",
                          _wrong_on_some_pairs(decode, wrong))
                m.setattr(harness, "verify_step", step)
                runs.append((run(config), len(wrong)))
        (got, wrong_given), (want, _) = runs
        assert got.mismatches, config
        for a, b in itertools.zip_longest(got.mismatches, want.mismatches):
            assert a == b, config
        assert got.queries_checked == want.queries_checked, config
        assert got.errors == want.errors == [], config
        carried += len(got.mismatches) - wrong_given
    assert carried > 0


# any size up to 2^21, and powers of two and their neighbours, where
# randrange's rejection rule redraws most and least often
_POOL_SIZES = st.one_of(
    st.integers(1, 1 << 21),
    st.builds(lambda k, d: max(1, min((1 << k) + d, 1 << 21)),
              st.integers(0, 21), st.sampled_from((-1, 0, 1))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 1 << 64), n=_POOL_SIZES, m=st.integers(0, 40))
@example(seed=0, n=1, m=8)
@example(seed=1, n=(1 << 21) - 1, m=8)
@example(seed=2, n=(1 << 20) + 1, m=8)
def test_sampled_pairs_are_those_randrange_draws(seed, n, m):
    """A sampled check of a pool of n nodes queries, in order, the pairs
    ``(pool[r.randrange(n)], pool[r.randrange(n)])`` of a twin
    ``random.Random`` and leaves its generator where the twin's is."""
    pool = range(5, 5 + 3 * n, 3)
    pairs = []
    runner = SimpleNamespace(
        net=SimpleNamespace(alive_list=pool),
        core=SimpleNamespace(query=lambda u, v: pairs.append((u, v))))
    fn = SimpleNamespace(oracle=lambda net, u, v: None)
    report = VerificationReport(config={})
    rng, twin = random.Random(seed), random.Random(seed)
    harness._check_sample(runner, fn, m, rng, 1, seed, report)
    assert pairs == [(pool[twin.randrange(n)], pool[twin.randrange(n)])
                     for _ in range(m)]
    assert rng.getstate() == twin.getstate()
    assert report.queries_checked == m and report.mismatches == []


@pytest.mark.parametrize("function", ["ancestry", "distance", "seplevel",
                                      "routing"])
def test_sampled_mismatches_are_those_of_the_reference(monkeypatch,
                                                       function):
    """400-event leaf-dynamic runs under ``sampled:16`` with a decoder
    wrong on some pairs report the mismatches of ``ref_verify_step``,
    which draws with ``randrange``, entry by entry, sampled steps
    included."""
    decode = scheme_core.decode_labels
    for seed, port_model in enumerate(("designer", "adversary")):
        config = RunConfig(seed=seed, events=400, model="dynamic",
                           p_delete=0.3, port_model=port_model,
                           function=function, verify="sampled:16",
                           invariants="off", bounds=False)
        reports = []
        for step in (harness.verify_step, ref_verify_step):
            with monkeypatch.context() as m:
                m.setattr(scheme_core, "decode_labels",
                          _wrong_on_some_pairs(decode, []))
                m.setattr(harness, "verify_step", step)
                reports.append(run(config))
        got, want = reports
        for a, b in itertools.zip_longest(got.mismatches, want.mismatches):
            assert a == b, config
        assert got.queries_checked == want.queries_checked, config
        assert got.errors == want.errors == [], config
        events = generate_scenario(seed, 400, 0.3)
        sizes = list(itertools.accumulate(
            (1 if e.kind == "A" else -1 for e in events), initial=1))
        assert any(sizes[x.event_index] > harness.AUTO_EXHAUSTIVE_LIMIT
                   for x in got.mismatches), config


def test_a_failing_decode_ends_the_check_as_pair_order_would(monkeypatch):
    """A decode that raises on some label pairs (and answers wrongly on
    others) ends the run with the error of the first failing pair in
    (u, v) order, after the mismatches of the pairs before it, as a
    check that decodes every pair in order does."""
    decode = scheme_core.decode_labels

    def broken(fn, pi, lx, ly):
        key = lx[1][-1] + 3 * ly[1][-1]
        if key % 64 == 6:
            raise DecodeError(f"bad pair of {lx[1][-1]} and {ly[1][-1]} bits")
        got = decode(fn, pi, lx, ly)
        return ("wrong", got) if key % 8 == 0 else got

    failed = 0
    for seed, function in itertools.product(range(4), ("distance",
                                                       "routing")):
        config = RunConfig(seed=seed, events=60, model="dynamic",
                           p_delete=0.3, function=function,
                           verify="exhaustive", invariants="off")
        reports = []
        for step in (harness.verify_step, ref_verify_step):
            with monkeypatch.context() as m:
                m.setattr(scheme_core, "decode_labels", broken)
                m.setattr(harness, "verify_step", step)
                reports.append(run(config).to_dict())
        assert reports[0] == reports[1], config
        failed += bool(reports[0]["errors"])
    assert failed >= 6


def _reports_rewriting_at_event_20(monkeypatch, config, eligible, rewrite,
                                   touched):
    """The run's report under ``harness.verify_step``, then under
    ``ref_verify_step``; before the check of event 20, ``rewrite`` acts
    on the largest non-root node that is ``eligible`` and whose label
    object the scheme left unchanged since event 19, and ``touched``
    gets that node once per run."""
    def rewriting(step):
        last = {}

        def wrapped(runner, fn, mode, sample_size, rng, event_index, *rest):
            labels = runner.core.labels
            if event_index == 20:
                v = max(u for u in labels
                        if u != runner.net.root and labels[u] is last.get(u)
                        and eligible(runner, u))
                rewrite(runner, v)
                touched.append(v)
            last.clear()
            last.update(labels)
            step(runner, fn, mode, sample_size, rng, event_index, *rest)
        return wrapped

    reports = []
    for step in (harness.verify_step, ref_verify_step):
        with monkeypatch.context() as m:
            m.setattr(harness, "verify_step", rewriting(step))
            reports.append(run(config))
    return reports


def test_the_decode_memo_still_catches_a_replaced_label(monkeypatch):
    """A stored label replaced between two events, on a node whose label
    the scheme left alone, is decoded again: the mismatches are those of
    a check that decodes every pair."""
    config = RunConfig(seed=6, events=30, model="dynamic", p_delete=0.3,
                       function="distance", verify="exhaustive",
                       invariants="off", bounds=False)
    replaced = []

    def replace_label(runner, v):
        labels = runner.core.labels
        labels[v] = labels[runner.net.root]

    memo, ref = _reports_rewriting_at_event_20(
        monkeypatch, config, lambda runner, v: True, replace_label, replaced)
    assert replaced[0] == replaced[1]
    assert memo.mismatches == ref.mismatches
    assert any(m.event_index == 20 and replaced[0] in (m.u, m.v)
               for m in memo.mismatches)
    assert memo.queries_checked == ref.queries_checked


@pytest.mark.parametrize("function, port_model, fact", [
    ("distance", "designer", "depth"),
    ("seplevel", "designer", "depth"),
    ("routing", "designer", "up_port"),
    ("routing", "adversary", "up_port"),
])
def test_a_rewritten_fact_clears_the_decode_memo(monkeypatch, function,
                                                 port_model, fact):
    """A surviving node's fact rewritten from outside, on a node whose
    label the scheme left alone (an internal one, so a depth reaches
    separation levels too), changes the oracle values of pairs whose
    labels did not change: the memo's facts guard checks every pair
    fresh, and the mismatches are those of a check that decodes every
    pair."""
    config = RunConfig(seed=6, events=30, model="dynamic", p_delete=0.3,
                       port_model=port_model, function=function,
                       verify="exhaustive", invariants="off", bounds=False)
    touched = []

    def internal(runner, v):
        return not runner.net.is_leaf(v)

    def bump(runner, v):
        getattr(runner.net, fact)[v] += 1

    memo, ref = _reports_rewriting_at_event_20(monkeypatch, config, internal,
                                               bump, touched)
    assert touched[0] == touched[1]
    assert memo.mismatches == ref.mismatches
    assert any(m.event_index == 20 and touched[0] in (m.u, m.v)
               for m in memo.mismatches)
    assert memo.queries_checked == ref.queries_checked


@pytest.mark.parametrize("function", ["ancestry", "distance", "seplevel",
                                      "routing"])
def test_leaf_events_rewrite_no_declared_fact_of_a_surviving_node(function):
    """The premise of carried outcomes: through random leaf-dynamic and
    leaf-increasing streams, with their restarts and phase shifts, under
    every port assignment the function takes, no event rewrites a
    ``fn.facts`` entry of a node that survives it.  Compact up ports do
    move (a new child goes first, and a top-level reset renumbers), but
    no function declares them."""
    fn = get_function(function)
    moved_ports = restarts = phases = 0
    for assignment in PortAssignment:
        if function == "routing" and assignment is PortAssignment.COMPACT:
            continue
        for seed in range(3):
            for driver, p_delete in ((DynamicScheme, 0.3),
                                     (IncreasingScheme, 0.0)):
                net = Network(assignment=assignment,
                              rng=random.Random(seed))
                runner = driver(net, function, QuotaFunction.parse("pow:0.5"))
                maps = [getattr(net, name) for name in fn.facts]
                before = {}
                ports = {}
                for ev in generate_scenario(seed, 300, p_delete):
                    runner.apply(ev)
                    now = {v: tuple(m.get(v) for m in maps)
                           for v in net.alive_list}
                    assert all(before.get(v, f) == f
                               for v, f in now.items()), (assignment, seed)
                    moved_ports += any(ports.get(v, p) != p
                                       for v, p in net.up_port.items())
                    before, ports = now, dict(net.up_port)
                restarts += len(runner.restart_log)
                phases += len(runner.phase_log)
    assert restarts and phases
    assert moved_ports or function == "routing"


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(["run", "--seed", "6", "--events", "50",
                     "--function", "distance", "--out", str(out)])
    assert code == 0
    assert out.exists()
    broken = dataclasses.replace(
        static_schemes.SCHEMES["distance"],
        decoder=lambda lu, lv: 1 + static_schemes.separator_distance_decode(lu, lv))
    monkeypatch.setitem(static_schemes.SCHEMES, "distance", broken)
    code = cli_main(["run", "--seed", "6", "--events", "50",
                     "--function", "distance"])
    assert code == 1


def test_metrics_csv_is_byte_identical_across_reruns(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = run(RunConfig(seed=7, events=200, model="dynamic", p_delete=0.3,
                          function="distance", port_model="adversary",
                          out_path=str(out)))
        assert r.passed()
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_scenario_file_replay_matches_inline_generation(tmp_path):
    events = generate_scenario(8, 150, 0.2)
    scen = tmp_path / "events.txt"
    scen.write_text(format_scenario(events))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = run(RunConfig(seed=8, events=150, p_delete=0.2, model="dynamic",
                       function="seplevel", out_path=str(out_a)))
    rb = run(RunConfig(seed=8, model="dynamic", function="seplevel",
                       scenario_path=str(scen), out_path=str(out_b)))
    assert ra.passed() and rb.passed()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_gen_writes_scenario(tmp_path):
    out = tmp_path / "scen.txt"
    code = cli_main(["gen", "--seed", "1", "--events", "30",
                     "--pdelete", "0.2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30


def test_invalid_scenario_event_reported(tmp_path):
    scen = tmp_path / "bad.txt"
    scen.write_text("A 0\nR 0\n")  # removing the root is invalid
    r = run(RunConfig(seed=9, model="dynamic", scenario_path=str(scen)))
    assert not r.passed()
    assert r.errors


def test_bound_checks_flag_budget_overruns(monkeypatch):
    from dynlabel import budgets
    monkeypatch.setattr(budgets, "LABEL_OVERHEAD_PER_LEVEL", -10 ** 9)
    r = run(RunConfig(seed=10, events=60, function="distance"))
    assert r.bound_violations


def test_label_bound_is_checked_on_a_restart_event(monkeypatch):
    """A restart that leaves an oversized label is reported at the
    restart event itself, not at the event after it."""
    from dynlabel import DynamicScheme

    def restart(runner, _restart=DynamicScheme._restart):
        _restart(runner)
        runner.net.ledger.note_label_bits(10 ** 6)

    monkeypatch.setattr(DynamicScheme, "_restart", restart)
    r = run(RunConfig(seed=1, events=300, p_delete=0.3, model="dynamic",
                      function="distance", verify="off"))
    assert r.restarts
    assert r.bound_violations[0].startswith(
        f"event {r.restarts[0][0]}: label bits 1000000 exceed budget")


def test_message_bound_reads_the_running_schemes_curve(monkeypatch):
    """The epoch's message budget takes MC(pi, n) from the running
    static scheme, so a scheme declaring a tighter curve is held to it.
    A leaf-increasing run has one long epoch; the restarts of a short
    leaf-dynamic stream keep each epoch too short to trip even MC = 1."""
    tight = dataclasses.replace(static_schemes.SCHEMES["distance"],
                                mc_budget=lambda n: 1)
    monkeypatch.setitem(static_schemes.SCHEMES, "distance", tight)
    r = run(RunConfig(seed=1, events=300, function="distance", verify="off"))
    assert [m for m in r.bound_violations
            if "protocol messages" in m and "exceed budget" in m]


@pytest.mark.parametrize("seed,events", [(0, 59), (1, 124), (0, 1)])
def test_memory_bound_counts_the_levels_of_a_final_restart(monkeypatch, seed,
                                                          events):
    """When the last event restarts onto more levels, the memory budget
    is sized with those levels, not with the maximum before it."""
    from dynlabel import DynamicScheme, budgets
    seen, budgeted = [], []

    def apply(runner, ev, _apply=DynamicScheme.apply):
        _apply(runner, ev)
        seen.append(runner.levels)

    def budget(ever, levels, _budget=budgets.designer_memory_budget):
        budgeted.append(levels)
        return _budget(ever, levels)

    monkeypatch.setattr(DynamicScheme, "apply", apply)
    monkeypatch.setattr(budgets, "designer_memory_budget", budget)
    r = run(RunConfig(seed=seed, events=events, p_delete=0.3, model="dynamic",
                      function="distance", quota_fn="const:2", verify="off",
                      invariants="off"))
    assert r.passed()
    assert r.restarts[-1][0] == events
    assert seen[-1] > max(seen[:-1], default=0)
    assert budgeted == [seen[-1]]


def test_report_json_round_trips():
    import json
    r = run(RunConfig(seed=11, events=30, function="ancestry"))
    data = json.loads(r.to_json())
    assert data["passed"] is True
    assert data["final_n"] == 31


def test_report_dict_is_a_detached_copy():
    """On a report with mismatches, restarts and phases, ``to_json``
    reads as the deep ``dataclasses.asdict`` copy would, and editing the
    dict ``to_dict`` returns leaves the report as it was."""
    r = VerificationReport(
        config=dataclasses.asdict(RunConfig(model="dynamic", p_delete=0.2)),
        queries_checked=9,
        mismatches=[Mismatch(0, 4, 2, 3, "1", "3"),
                    Mismatch(0, 7, 5, 0, "2", "1")],
        errors=["event 8: SchemeError: marker produced duplicate labels"],
        messages_by_category={"signal": 12, "marker": 30},
        restarts=[(3, 4), (6, 5)], phases=[(2, 2, 2, 3)])
    deep = dataclasses.asdict(r) | {"passed": r.passed()}
    before = r.to_json()
    assert before == json.dumps(deep, indent=2, default=str)
    d = r.to_dict()
    del d["config"]["seed"]
    d["mismatches"][0]["u"] = -1
    for key in ("mismatches", "restarts", "phases", "errors"):
        d[key].append(None)
    d["messages_by_category"]["signal"] = -1
    assert r.to_json() == before


def test_every_exported_name_resolves():
    import dynlabel
    assert [n for n in dynlabel.__all__ if not hasattr(dynlabel, n)] == []


def test_config_rejects_unknown_function():
    with pytest.raises(ValueError, match="unknown tree function 'nope'"):
        RunConfig(function="nope")


def test_config_rejects_negative_port_cap():
    with pytest.raises(ValueError):
        RunConfig(port_model="adversary", port_cap=-1)


def test_run_with_port_cap_zero_reports_the_rejected_add():
    """Under a cap of 0 a node has one port number, so the second port
    at a node cannot exist: the add is rejected instead of drawing ports
    forever.  The alarm turns a hang into a failure."""
    import signal

    def stop(signum, frame):
        raise TimeoutError("adversary port draw did not stop")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(30)
    try:
        r = run(RunConfig(seed=1, events=20, port_model="adversary",
                          port_cap=0, verify="off"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert r.events_applied == 1
    assert len(r.errors) == 1 and "no free port" in r.errors[0]


def test_routing_label_budget_follows_a_wide_port_cap():
    """Routing labels carry adversary ports; under a cap of 2**62 each
    takes 63 bits, so the label budget of a correct run must too."""
    r = run(RunConfig(seed=1, events=300, port_model="adversary",
                      function="routing", port_cap=2 ** 62, verify="off"))
    assert r.max_label_bits > 1720
    assert r.bound_violations == [] and r.passed()


def test_exhaustive_cap_ends_the_run_with_a_report(capsys):
    code = cli_main(["run", "--seed", "1", "--events", "200",
                     "--verify", "exhaustive", "--invariants", "off"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["errors"] == ["event 128: ExhaustiveCapError: exhaustive "
                              "verification is capped at 128 nodes"]
    assert data["events_applied"] == 128


@pytest.mark.parametrize("attr, rows, exc", [
    ("apply_add", 4, SchemeError),
    ("apply_add", 4, MemoryError_),
    ("apply_add", 4, DeadNeighborError),
    ("label", 5, DecodeError),
    ("label", 5, BitsError),
    ("scan_invariants", 5, SchemeError),
])
def test_scheme_failures_become_report_errors(monkeypatch, attr, rows, exc):
    """A scheme failure at the fifth event, in the event itself
    (``apply_add``), its oracle check (``label``, once the event's row is
    logged) or its scan, is recorded with the event index and stops the
    run."""
    real = getattr(SchemeCore, attr)

    def failing(core, *args):
        if len(core.net.ledger.per_event_rows) == rows:
            raise exc("broken on purpose")
        return real(core, *args)
    monkeypatch.setattr(SchemeCore, attr, failing)
    r = run(RunConfig(seed=2, events=20, invariants="every-event"))
    assert r.errors == [f"event 5: {exc.__name__}: broken on purpose"]
    assert r.events_applied == rows and not r.passed()


def test_cli_rejects_a_bad_quota_rule(capsys):
    for rule in ("bogus", "pow", "pow:x", "cube:2"):
        with pytest.raises(SystemExit) as stop:
            cli_main(["run", "--kfn", rule])
        assert stop.value.code == 2
        assert "argument --kfn" in capsys.readouterr().err


def test_cli_offers_the_package_trackers(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["run", "--watch", "bogus"])
    assert stop.value.code == 2
    assert "argument --watch" in capsys.readouterr().err


def test_cli_names_the_bad_scenario_line(tmp_path, capsys):
    scen = tmp_path / "bad.txt"
    scen.write_text("A 0\nA x\n")
    with pytest.raises(SystemExit) as stop:
        cli_main(["run", "--scenario", str(scen)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scenario: line 2: bad scenario line 'A x'" in err


def test_cli_rejects_a_missing_scenario_file(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    with pytest.raises(SystemExit) as stop:
        cli_main(["run", "--scenario", str(missing)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scenario" in err and "absent.txt" in err


def test_cli_rejects_quota_rules_it_cannot_compute(capsys):
    for rule in ("pow:nan", "pow:inf", "pow:1000", "logpow:1000",
                 "const:1e400", "pow:-0.5"):
        with pytest.raises(SystemExit) as stop:
            cli_main(["run", "--kfn", rule, "--events", "20"])
        assert stop.value.code == 2, rule
        assert "argument --kfn" in capsys.readouterr().err


def test_removing_an_unknown_id_is_an_invalid_event(tmp_path):
    scen = tmp_path / "unknown.txt"
    scen.write_text("A 0\nR 999\n")
    r = run(RunConfig(model="dynamic", p_delete=0.1,
                      scenario_path=str(scen)))
    assert r.errors == ["event 2: InvalidEvent: remove-leaf: 999 not alive"]
    assert r.events_applied == 1 and not r.passed()


def test_cli_turns_a_rejected_config_into_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["run", "--pdelete", "0.3"])
    assert stop.value.code == 2
    assert "forbids deletions" in capsys.readouterr().err


def test_cli_rejects_stream_parameters_no_scenario_has(tmp_path, capsys):
    out = tmp_path / "scen.txt"
    cases = [(["run", "--events", "-5"], "event count must be nonnegative"),
             (["gen", "--events", "-5", "--out", str(out)],
              "event count must be nonnegative"),
             (["gen", "--pdelete", "7", "--out", str(out)],
              "deletion probability must lie in [0, 1)"),
             (["gen", "--pdelete", "-0.1", "--out", str(out)],
              "deletion probability must lie in [0, 1)")]
    for argv, message in cases:
        with pytest.raises(SystemExit) as stop:
            cli_main(argv)
        assert stop.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--events", "20", "--out"], "--out"),
    (["run", "--events", "20", "--mem-out"], "--mem-out"),
    (["gen", "--events", "20", "--out"], "--out"),
])
def test_cli_rejects_an_output_path_it_cannot_write(monkeypatch, tmp_path,
                                                    capsys, argv, flag):
    """A bad output path is a usage error before any scenario is drawn
    or run, not a traceback after the run."""
    import dynlabel.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before checking the output path")
    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "generate_scenario", never)
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    for path in (tmp_path / "absent" / "x.csv", tmp_path, plain / "x.csv"):
        with pytest.raises(SystemExit) as stop:
            cli_main(argv + [str(path)])
        assert stop.value.code == 2, path
        assert f"argument {flag}" in capsys.readouterr().err, path
