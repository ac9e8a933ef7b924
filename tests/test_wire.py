"""Replays the wire families of ``_wire.py``: every static label, function
value and nested dynamic label must encode to the recorded bits."""

import json
from pathlib import Path

from _wire import digests

DIGEST_FILE = Path(__file__).parent / "data" / "wire_digests.json"


def test_wire_digests_match_the_recorded_ones():
    recorded = json.loads(DIGEST_FILE.read_text())
    got = digests()
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []
