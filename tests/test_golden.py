"""Replays the golden run grid of ``_golden.py``: every run's metrics
CSV, memory CSV and report must hash to the recorded digest."""

import json
from pathlib import Path

from _golden import digests

DIGEST_FILE = Path(__file__).parent / "data" / "run_digests.json"


def test_run_digests_match_the_recorded_ones():
    recorded = json.loads(DIGEST_FILE.read_text())
    got = digests()
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []
