"""Record the CSV digests the correctness gate expects.

    python3 perfbench/record_digests.py --seeds 0-15

Runs one round of every workload for each seed and writes the digests
of each run's per-event metrics CSV and final memory report to
``digests.json``.  Re-record only on purpose: the point of the file is
that a change to the program which alters any message count, label
size or memory size fails the gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import gate
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record_digests.py")
    parser.add_argument("--seeds", default="0-15",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    digests = {}
    run.OUT.mkdir(exist_ok=True)
    for workload in workloads.BUILDERS:
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
            try:
                bench = run.Bench(workload, seed, workdir)
                bench.recorded = {}
                runs = [bench.run_case(c) for c in bench.cases]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if bench.failed:
                raise SystemExit(f"{workload} seed {seed}: a run failed "
                                 f"the gate; nothing recorded")
            digests.setdefault(workload, {})[str(seed)] = {
                r.case.name: list(r.sim[-1]) for r in runs}
            print(f"{workload} seed {seed}: {len(runs)} runs", flush=True)
    with open(gate.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
