"""Regenerate ``reference.json``: every output the benchmark checks,
produced once with the exact (per-reference oracle) replay engine.

    python3 perfbench/reference.py

It holds the run record of every figure cell and serve cell (simulated
``seconds``, ``dram_bytes``, every counter) and the figure JSON exports.
Run it again only when the simulator's semantics change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import common


def main() -> int:
    if not common.source_present():
        print("reference.py: no src/repro next to perfbench/", file=sys.stderr)
        return 2
    work_dir = common.isolate()
    os.environ["REPRO_ENGINE"] = "exact"
    try:
        import figures
        import servemix
        from repro.serve.executor import execute_job
        from repro.serve.jobs import resolve_spec

        outputs = {}
        for workload in ("fig2_grid", "blur_visionfive"):
            result = figures.run_pass(workload, os.path.join(work_dir, workload))
            for op in result.ops:
                if not op.ok:
                    raise RuntimeError(f"{op.label} did not complete")
                outputs[op.ref_key] = op.output
            print(f"{workload}: {len(result.ops)} outputs in {result.wall_s:.1f} s",
                  flush=True)
        cache = os.path.join(work_dir, "serve.json")
        for spec in servemix.cells():
            task = resolve_spec(spec).task(cache)
            task["engine"] = "exact"
            result = execute_job(task)
            if result["outcome"] != "completed":
                raise RuntimeError(f"{spec}: {result['reason']}")
            outputs[servemix.ref_key(spec)] = result["record"]
        print(f"serve_mix: {len(servemix.cells())} outputs", flush=True)
    finally:
        common.remove(work_dir)
    with open(common.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"engine": "exact", "outputs": outputs},
                  fh, sort_keys=True, indent=0, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {common.REFERENCE}: {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
