"""Record the sweep-tall references: the sha256 of the gate sweep's metrics CSV
for each seed and gate size, written to ``perfbench/refs/sweep_tall.json``.

    python3 perfbench/record_refs.py --first 0 --last 199

The gate fails when a run's CSV differs from its reference, so record again
only for a change to the metrics CSV that is intended and explained.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy is imported
from workloads import REFS, SIZES, SweepTall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=199)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    work = run.SCRATCH / f"refs-{os.getpid()}"
    path = REFS / "sweep_tall.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    try:
        for size in SIZES.values():
            trials = size["sweep_gate_trials"]
            for seed in range(args.first, args.last + 1):
                workload = SweepTall(size)
                run.set_up(workload, seed, work)
                csv = workload.run(seed, trials)[2]
                refs.setdefault(str(trials), {})[str(seed)] = hashlib.sha256(csv).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFS.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
