"""The benchmark's span tracer wraps dynlabel callables by name; every
seam it names must exist and be called, so a rename or a bypass fails
here and does not just read zero in a traced benchmark run.  The same
holds for what the benchmark reads off each ``StaticScheme``."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

from dynlabel import PortAssignment, RunConfig, harness, run
from dynlabel.functions import TreeFunction
from dynlabel.scheme_core import SchemeCore
from dynlabel.static_schemes import SCHEMES

from _util import build_net, scope_of

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_seam_resolves():
    seams = _spans()._seams()
    assert seams
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in seams
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_static_scheme_keeps_the_benchmark_contract():
    """``perfbench/spans.py`` swaps marker and decoder through
    ``dataclasses.replace``; ``perfbench/run.py`` reads LS and MC."""
    net = build_net([0, 0, 1], assignment=PortAssignment.STABLE)
    scope = scope_of(net, 0, net.alive_nodes())
    for name, pi in SCHEMES.items():
        calls = []

        def marker(*args, _pi=pi):
            calls.append("marker")
            return _pi.marker(*args)

        def decoder(*args, _pi=pi):
            calls.append("decoder")
            return _pi.decoder(*args)

        wrapped = dataclasses.replace(pi, marker=marker, decoder=decoder)
        labels = wrapped.marker(net, 0, scope)
        assert wrapped.decoder(labels[2], labels[3]) == pi.decoder(
            labels[2], labels[3])
        assert calls == ["marker", "decoder"], name
        for n in (1, 2, 40, 1 << 20):
            assert type(pi.ls_budget(n)) is int, name
            assert type(pi.ls_budget(n, 21)) is int, name
            assert type(pi.mc_budget(n)) is int, name


def test_every_benchmark_seam_is_called():
    spans = _spans()
    seams = [(owner, attr) for owner, attr, _, _ in spans._seams()]
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    undo = []
    try:
        for owner, attr in seams:
            spans.patch(undo, owner, attr,
                        counted((owner, attr), getattr(owner, attr)))
        for port_model in ("designer", "adversary"):
            for model, p_delete in (("increasing", 0.0), ("dynamic", 0.3)):
                r = run(RunConfig(seed=1, events=200, model=model,
                                  p_delete=p_delete, port_model=port_model,
                                  function="distance", verify="sampled:4",
                                  invariants="every-event"))
                assert r.passed(), (port_model, model)
    finally:
        spans.restore(undo)
    assert len(seams) == 34
    idle = [(getattr(owner, "__name__", owner), attr)
            for owner, attr in seams if not calls[(owner, attr)]]
    assert idle == []


def test_the_decode_seam_sees_every_exhaustive_decode():
    """``harness.verify_step`` reads ``scheme_core.decode_labels`` off
    the module at each call, so the traced seam counts the exhaustive
    branch's decodes too: one per static decoder call."""
    spans = _spans()
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        r = run(RunConfig(seed=2, events=40, function="distance",
                          verify="exhaustive", invariants="off"))
    finally:
        spans.restore(undo)
    assert r.passed()
    decodes = tracer.calls["scheme_core.decode_labels"]
    assert decodes > 0
    assert decodes == tracer.calls["static_schemes.decoder"]


def test_verify_steps_call_the_counted_seams_once_per_read(monkeypatch):
    """A sampled step of m pairs makes m ``SchemeCore.query`` and m
    ``fn.oracle`` calls; an exhaustive step reads each alive node's
    label through ``SchemeCore.label`` exactly once and makes neither
    call.  So the benchmark's ``scheme_core.query.calls``,
    ``scheme_core.label.calls_per_query`` and ``functions.oracle.calls``
    count what they did when every pair took its own calls."""
    m = 16
    queries, oracles, labels = [], [], []
    query, label = SchemeCore.query, SchemeCore.label
    oracle = TreeFunction.oracle

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args[1:])
            return real(*args)
        return wrapper

    steps = []
    step = harness.verify_step

    def recorded(runner, *args):
        seen = len(queries), len(oracles), len(labels)
        alive = sorted(runner.net.alive_list)
        step(runner, *args)
        steps.append((alive, len(queries) - seen[0], len(oracles) - seen[1],
                      labels[seen[2]:]))

    monkeypatch.setattr(SchemeCore, "query", counted(queries, query))
    monkeypatch.setattr(TreeFunction, "oracle", counted(oracles, oracle))
    monkeypatch.setattr(SchemeCore, "label", counted(labels, label))
    monkeypatch.setattr(harness, "verify_step", recorded)
    for function in ("distance", "routing"):
        r = run(RunConfig(seed=3, events=300, model="dynamic", p_delete=0.3,
                          function=function, port_model="adversary",
                          verify=f"sampled:{m}", invariants="off"))
        assert r.passed(), function
    sampled = exhaustive = 0
    for alive, n_queries, n_oracles, read in steps:
        if len(alive) > harness.AUTO_EXHAUSTIVE_LIMIT:
            sampled += 1
            assert (n_queries, n_oracles, len(read)) == (m, m, 2 * m)
        else:
            exhaustive += 1
            assert (n_queries, n_oracles) == (0, 0)
            assert sorted(w for (w,) in read) == alive
    assert sampled > 100 and exhaustive > 100
