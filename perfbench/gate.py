"""Correctness gate for one benchmark run.

A run passes when its report passes (no decoder mismatch, invariant
violation, bound violation or error), it applied every scenario event,
and both CSVs it wrote -- the per-event metrics CSV and the final
memory report -- hash to the digests recorded in ``digests.json`` for
the workload and seed, when there are any.  On other seeds the
benchmark compares every replay with the case's first run, digests
included, so a replay that drifts fails there too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_recorded(workload: str, seed: int) -> dict:
    """{case name: [metrics CSV digest, memory CSV digest]} or {}."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def check(report, n_events: int, digests, expected) -> list[str]:
    """Problems with one run; an empty list means it passed."""
    problems = []
    if not report.passed():
        problems.append(
            f"report failed: {len(report.mismatches)} mismatches, "
            f"{len(report.invariant_violations)} invariant violations, "
            f"{len(report.bound_violations)} bound violations, "
            f"{len(report.errors)} errors")
    if report.events_applied != n_events:
        problems.append(f"applied {report.events_applied} of {n_events} "
                        f"events")
    if expected is not None and list(digests) != list(expected):
        problems.append(f"CSV digests {list(digests)} != expected "
                        f"{list(expected)}")
    return problems
