import dataclasses
import json

import pytest

from dynlabel import Network, RunConfig, generate_scenario, run
from dynlabel.bits import BitsError
from dynlabel.cli import main as cli_main
from dynlabel.memory import MemoryError_
from dynlabel.scheme_core import SchemeCore, SchemeError
from dynlabel.simnet import DeadNeighborError, format_scenario
from dynlabel.static_schemes import DecodeError
import dynlabel.static_schemes as static_schemes


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


def test_report_json_round_trips():
    import json
    r = run(RunConfig(seed=11, events=30, function="ancestry"))
    data = json.loads(r.to_json())
    assert data["passed"] is True
    assert data["final_n"] == 31


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
