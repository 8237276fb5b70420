"""Record the quality reference that the benchmark's correctness check uses.

    python3 benchmarks/record_reference.py --seeds 0-24

For every workload and seed, runs the workload only as far as its quality
guard (the probe-batch loss after the probe step, or the mean score of
the first beam decodes) and writes ``benchmarks/reference.json``:

* ``seeds``: the value per recorded seed; a run with a recorded seed
  must match it within ``seed_tolerance_rel`` of the value;
* ``band_rel``: for any other seed the value must lie within this share
  of the recorded median. It is twice the largest relative distance of a
  recorded seed from that median.

Re-record only when a change is meant to alter what the program computes,
and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

import run

SEED_TOLERANCE_REL = 1e-4


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-24"))
    args = parser.parse_args()
    run.cap_blas_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    out = {"seed_tolerance_rel": SEED_TOLERANCE_REL, "workloads": {}}
    for name in run.WORKLOADS:
        values = {}
        for seed in args.seeds:
            result, _ = workloads.run(name, seed, 0.0, False, None)
            values[str(seed)] = result.quality
            print(f"{name} seed {seed}: {result.quality!r}", flush=True)
        med = statistics.median(values.values())
        widest = max(abs(v - med) / abs(med) for v in values.values())
        band = math.ceil(2 * widest * 1e4) / 1e4
        out["workloads"][name] = {"band_rel": band, "seeds": values}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
