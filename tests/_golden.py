"""Golden run digests: one SHA-256 per harness run over a fixed grid.

The grid is 4 functions x 2 models x 3 port setups (designer, adversary
with cap 255, adversary with cap 2**20), seed 1 and 250 events each,
with ``sampled:16`` verification (exhaustive while the tree has at most
64 nodes) and an invariant scan after every event.  A run's digest
covers its per-event metrics CSV, its memory CSV and its report dict
with the path fields dropped, so a change that moves any message, bit,
count, phase, restart or check result shows.

``python tests/_golden.py > tests/data/run_digests.json`` records the
file; ``tests/test_golden.py`` replays the grid against it.
"""

import hashlib
import json
import os
import tempfile

from dynlabel import RunConfig, run

FUNCTIONS = ("ancestry", "distance", "seplevel", "routing")
MODELS = (("increasing", 0.0), ("dynamic", 0.3))
PORTS = (("designer", 1 << 20), ("adversary", 255), ("adversary", 1 << 20))
SEED = 1
EVENTS = 250
PATH_FIELDS = ("scenario_path", "out_path", "mem_out_path")


def grid():
    """Yield (name, RunConfig) for every run of the grid."""
    for function in FUNCTIONS:
        for model, p_delete in MODELS:
            for port_model, cap in PORTS:
                yield f"{function} {model} {port_model} cap {cap}", RunConfig(
                    seed=SEED, events=EVENTS, p_delete=p_delete, model=model,
                    port_model=port_model, function=function,
                    verify="sampled:16", invariants="every-event",
                    port_cap=cap)


def digest(config: RunConfig) -> str:
    """SHA-256 of one run's metrics CSV, memory CSV and report dict."""
    with tempfile.TemporaryDirectory() as tmp:
        config.out_path = os.path.join(tmp, "metrics.csv")
        config.mem_out_path = os.path.join(tmp, "memory.csv")
        report = run(config).to_dict()
        h = hashlib.sha256()
        for path in (config.out_path, config.mem_out_path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    for key in PATH_FIELDS:
        del report["config"][key]
    h.update(json.dumps(report, sort_keys=True, default=str).encode())
    return h.hexdigest()


def digests() -> dict:
    return {name: digest(config) for name, config in grid()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
