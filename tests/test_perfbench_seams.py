"""The benchmark's span tracer wraps dynlabel callables by name; every
seam it names must exist, so a rename fails here and not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

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
