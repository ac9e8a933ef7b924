"""The benchmark's span tracer wraps dynlabel callables by name; every
seam it names must exist, so a rename fails here and not only in a
traced benchmark run.  The same holds for what the benchmark reads off
each ``StaticScheme``."""

import dataclasses
import importlib.util
from pathlib import Path

from dynlabel import PortAssignment
from dynlabel.static_schemes import SCHEMES

from _util import build_net, scope_of

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_seam_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    seams = spans._seams()
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
