"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Perturbs one entry of the exact-engine reference by the smallest step a
float allows (one ulp of the simulated ``seconds``) and shows that

1. the comparator flags exactly that entry, and
2. a real ``serve_mix`` run against the perturbed reference reports
   ``failed`` > 0, ``correct`` false and exits 1.

Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import common

SEED = 1


def main() -> int:
    if not common.source_present():
        print("selftest.py: no src/repro next to perfbench/", file=sys.stderr)
        return 2
    work_dir = common.isolate()
    try:
        import servemix
        from figures import Op

        reference = common.load_reference()
        # The first job of the sequence always runs, so its entry is checked.
        key = servemix.ref_key(servemix.job_sequence(SEED, 1)[0])
        record = reference["outputs"][key]
        perturbed = copy.deepcopy(reference)
        entry = perturbed["outputs"][key]
        entry["seconds"] = math.nextafter(entry["seconds"], math.inf)

        op = Op("job0", key, 0.0, True, record)
        clean = common.check_outputs([op], reference)
        flagged = common.check_outputs([op], perturbed)
        print(f"comparator: clean reference -> {len(clean)} mismatches, "
              f"perturbed -> {flagged}")
        if clean or list(flagged) != ["job0"]:
            print("FAIL: comparator did not flag exactly the perturbed entry")
            return 1

        path = os.path.join(work_dir, "perturbed-reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(perturbed, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(common.HERE, "run.py"), "--workload", "serve_mix",
             "--seed", str(SEED), "--seconds", "3", "--trace", "0", "--reference", path],
            cwd=common.ROOT, capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        frac = result["failed"] / result["attempted"]
        print(f"serve_mix against the perturbed reference: exit {proc.returncode}, "
              f"failed {result['failed']}/{result['attempted']} (failed_frac {frac:.4g}), "
              f"correct {result['correct']}")
        if proc.returncode != 1 or result["correct"] or frac <= 0:
            print("FAIL: a perturbed reference entry did not fail the run")
            return 1
    finally:
        common.remove(work_dir)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
