"""Repository benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload fig2_grid --seed 1 --seconds 30 --trace 0

Workloads: ``fig2_grid``, ``blur_visionfive`` (fixed figure grids, run
cold) and ``serve_mix`` (seeded closed-loop traffic against ``repro
serve``).  ``--trace 0`` measures the end-to-end metrics (``setup_s`` and
the figure workloads' times scaled to a reference host speed, see
``CALIBRATION_REF_S``); ``--trace 1`` adds a traced run and reports the
per-layer metrics.  Every output is compared with the exact-engine
reference in ``reference.json``; the run
exits 1 when one differs, 3 when the replay engine is not the expected
one, 2 when the source tree is missing.  The last stdout line is the
JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
from spans import NullRecorder, SpanRecorder

WORKLOADS = ("fig2_grid", "blur_visionfive", "serve_mix")
#: The replay engine every comparable run must use.  A run on another
#: engine (the Python columnar fallback) is reported invalid.
EXPECTED_ENGINE = "native"
#: Set-ups per run (fresh processes, or server boots); ``setup_s`` is
#: their median.
SETUP_REPEATS = 7
#: Host-speed calibration: a fixed pure-Python loop, timed right before
#: every set-up and every figure cell.  It runs no repro code, so no
#: change to the program moves it; it tracks how fast the shared host
#: runs Python at that moment.  ``setup_s`` and the figure workloads'
#: times are scaled to the host speed at which the loop takes
#: CALIBRATION_REF_S.  serve_mix's session is not: the loop cannot run
#: while the server works, and loops timed between parts of the session
#: did not track its speed (README.md, "Noise").
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.1
#: Loops timed next to each set-up: the host slows down in bursts
#: shorter than a loop, so one loop per set-up is too few.
CALIBRATION_REPEATS = 3
#: How an end-to-end unit scales with the host's slowdown.
UNIT_SCALING = {"s": 1, "ms": 1, "refs/s": -1, "jobs/s": -1, "MB": 0}
#: Variants whose cache hits still pay ``kernels.build`` with its
#: dependence certification on the server (measured when this benchmark
#: was defined; README.md, "Findings").
REBUILD_VARIANTS = ("Parallel", "Blocking")

ENGINE_PROBE = (
    "from repro.memsim.native import native_available;"
    "print('native' if native_available() else 'columnar')"
)
SETUP_PROBE = (
    "import sys; sys.path.insert(0, {here!r});"
    "import figures; from repro.memsim.native import native_available;"
    "from repro.experiments import config; from repro.experiments.runner import default_runner;"
    "assert native_available();"
    "[config.scaled_device(c.device_key) for c in figures.CELLS[{workload!r}]()];"
    "default_runner(); print('ready', flush=True)"
)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=common.REFERENCE,
                        help="reference outputs to check against")
    return parser.parse_args(argv)


# -- provenance ---------------------------------------------------------------

def replay_engine() -> str:
    """Build (outside any timing) and load the native core in a child
    process; the engine the simulator will actually use."""
    out = subprocess.run([sys.executable, "-c", ENGINE_PROBE], cwd=common.ROOT,
                         capture_output=True, text=True, timeout=600)
    return out.stdout.strip() or f"unknown ({out.stderr.strip()[-200:]})"


def source_digest() -> str:
    """The commit (``+`` when the tree is dirty) when the checkout is a git
    repository, else a digest of the ``src/`` tree."""
    from repro.bench.trend import current_commit

    commit = current_commit(common.ROOT)
    if commit != "unknown":
        return commit
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(common.SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, common.SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


# -- statistics ---------------------------------------------------------------

def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; the maximum (p100) when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def calibration_s() -> float:
    """Host seconds for one pass of the calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(setup: Callable[[], float]) -> Tuple[float, float]:
    """``(median set-up seconds, median calibration loop seconds)`` over
    SETUP_REPEATS set-ups, each timed right after CALIBRATION_REPEATS
    calibration loops."""
    setups: List[float] = []
    loops: List[float] = []
    for _ in range(SETUP_REPEATS):
        loops += [calibration_s() for _ in range(CALIBRATION_REPEATS)]
        setups.append(setup())
    return statistics.median(setups), statistics.median(loops)


def setup_probe(workload: str) -> float:
    """One fresh process from spawn to first op ready: interpreter,
    imports, native-core load, devices and an empty runner."""
    code = SETUP_PROBE.format(here=common.HERE, workload=workload)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=common.ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def scale(host: Dict[str, float], setup_loop_s: float,
          loops: Optional[List[float]]) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics scaled to the reference host speed (``setup_s``
    by the loops timed next to the set-ups, the others by ``loops``, or not
    at all when ``loops`` is None), and notes giving the slowdowns and the
    unscaled values."""
    units = declared_metrics("end_to_end")
    setup_slowdown = setup_loop_s / CALIBRATION_REF_S
    scaled = dict(host, setup_s=host["setup_s"] / setup_slowdown)
    speed = (f"setup_s slowdown {setup_slowdown:.4f} (median of the "
             f"{SETUP_REPEATS * CALIBRATION_REPEATS} loops next to the set-ups)")
    if loops is None:
        speed += "; the other metrics are plain host time"
    else:
        slowdown = statistics.median(loops) / CALIBRATION_REF_S
        for name in host:
            if name != "setup_s":
                scaled[name] = host[name] / slowdown ** UNIT_SCALING[units[name]]
        speed += (f"; the other metrics: slowdown {slowdown:.4f} (median of "
                  f"{len(loops)} loops during the run)")
    notes = [
        f"host speed: times scaled to a {CALIBRATION_REF_S * 1e3:.0f} ms calibration loop; "
        + speed,
        "unscaled host values: " + ", ".join(
            f"{name} {value:.6g} {units[name]}" for name, value in host.items()),
    ]
    return scaled, notes


# -- workloads ----------------------------------------------------------------

def figure_workload(args, work_dir: str, reference: Dict) -> Dict:
    import figures
    from repro.memsim.native import native_available

    native_available()  # load the core before the clock starts
    out: Dict = {"ops": [], "failures": {}, "metrics": {}, "notes": []}
    if args.trace:
        base = figures.run_pass(args.workload, os.path.join(work_dir, "untraced"))
        rec = SpanRecorder()
        traced = figures.run_traced_pass(args.workload, os.path.join(work_dir, "traced"), rec)
        out["ops"] = base.ops + [traced_op(op) for op in traced.ops]
        out["failures"] = common.check_outputs(out["ops"], reference)
        untraced = {op.label: op.output for op in base.ops}
        for op in traced.ops:
            expected = untraced.get(op.label)
            if op.output != expected:
                found = common.diff(op.output, expected) or ["fields the untraced one lacks"]
                out["failures"].setdefault(f"traced/{op.label}", []).extend(
                    "differs from Runner.run_supervised: " + d for d in found
                )
        out["metrics"] = figure_layers(rec, traced, base)
        out["spans"] = rec
        return out

    setup_s, setup_loop_s = setup_times(lambda: setup_probe(args.workload))
    calibration: List[float] = []
    passes = []
    start = time.perf_counter()
    while True:
        result = figures.run_pass(args.workload, os.path.join(work_dir, f"pass{len(passes)}"),
                                  between=lambda: calibration.append(calibration_s()))
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + result.wall_s > args.seconds:
            break
    ops = [op for p in passes for op in p.ops]
    cells = [op for op in ops if op.kind == "cell"]
    out["ops"] = ops
    out["failures"] = common.check_outputs(ops, reference)
    walls = [p.wall_s for p in passes]
    p_tail, pct = tail([op.seconds * 1e3 for op in cells])
    host = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "sim_refs_per_s": statistics.median(
            sum(op.refs for op in p.ops) / p.wall_s for p in passes),
        "jobs_per_s": statistics.median(
            sum(1 for op in p.ops if op.kind == "cell") / p.wall_s
            for p in passes),
        "job_p50_ms": statistics.median(op.seconds * 1e3 for op in cells),
        "job_tail_ms": p_tail,
        "peak_rss_mb": own_peak_rss_mb(),
    }
    out["metrics"], scale_notes = scale(host, setup_loop_s, calibration)
    out["notes"] = [
        f"inputs: fixed grid of {len(cells) // len(passes)} cells (the seed does not change it)",
        f"passes: {len(passes)} cold pass(es); wall_s is their median",
        f"job_p50_ms over {len(cells)} cells; job_tail_ms is p{pct:.1f}",
        f"setup_s: median of {SETUP_REPEATS} fresh processes (spawn to first op ready)",
    ] + scale_notes
    return out


def figure_layers(rec, traced, base) -> Dict[str, float]:
    import figures

    self_times = rec.self_times()
    layer_total = sum(self_times.get(name, 0.0) for name in figures.LAYER_SPANS)
    roots = sum(s["end"] - s["start"] for s in rec.spans if s["parent"] is None)
    counts = traced.layer
    return {
        "kernels.build_s": self_times.get("kernels.build", 0.0),
        "kernels.builds": counts["kernels.builds"],
        "exec.tracegen_s": self_times.get("exec.tracegen", 0.0),
        "exec.segments": counts["exec.segments"],
        "memsim.replay_s": self_times.get("memsim.replay", 0.0),
        "memsim.line_ops": counts["memsim.line_ops"],
        "memsim.pmu_s": (self_times.get("memsim.replay", 0.0)
                         - self_times.get("memsim.replay_nopmu", 0.0)),
        "memsim.skip_frac": (counts["memsim.skipped"] / counts["memsim.skip_total"]
                             if counts["memsim.skip_total"] else 0.0),
        "timing.time_run_s": self_times.get("timing.time_run", 0.0),
        "runtime.cache_io_s": self_times.get("runtime.cache_io", 0.0),
        "experiments.render_s": self_times.get("experiments.render", 0.0),
        "trace.unattributed_s": roots - layer_total,
        "trace.overhead_s": traced.wall_s - base.wall_s,
    }


def serve_workload(args, work_dir: str, reference: Dict) -> Dict:
    import servemix

    rounds = servemix.session_rounds(args.seconds)
    sequence = servemix.job_sequence(args.seed, rounds)
    env = dict(os.environ)
    out: Dict = {"ops": [], "failures": {}, "metrics": {}, "notes": []}

    def server(tag: str) -> servemix.Server:
        return servemix.Server(common.ROOT, env, os.path.join(work_dir, f"{tag}.json"))

    def session(tag: str, rec) -> servemix.Session:
        srv = server(tag)
        try:
            return servemix.run_session(srv, sequence, rec)
        finally:
            srv.stop()

    if args.trace:
        base = session("untraced", NullRecorder())
        rec = SpanRecorder()
        traced = session("traced", rec)
        servemix.replay_cache_io(traced.jobs, os.path.join(work_dir, "replay.json"), rec)
        out["ops"] = ([job_op(job) for job in base.jobs]
                      + [traced_op(job_op(job)) for job in traced.jobs])
        out["failures"] = common.check_outputs(out["ops"], reference)
        out["metrics"] = serve_layers(rec, traced, base)
        out["spans"] = rec
        return out

    boots = iter(range(SETUP_REPEATS))

    def boot() -> float:
        srv = server(f"boot{next(boots)}")
        srv.stop()
        return srv.boot_s

    setup_s, setup_loop_s = setup_times(boot)
    result = session("session", NullRecorder())
    ops = [job_op(job) for job in result.jobs]
    out["ops"] = ops
    out["failures"] = common.check_outputs(ops, reference)
    latencies = [job.latency_s * 1e3 for job in result.jobs if job.ok]
    p_tail, pct = tail(latencies)
    host = {
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "sim_refs_per_s": sum(op.refs for op in ops) / result.wall_s,
        "jobs_per_s": len(latencies) / result.wall_s,
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": p_tail,
        "peak_rss_mb": own_peak_rss_mb() + result.server_hwm_kb / 1024.0,
    }
    out["metrics"], scale_notes = scale(host, setup_loop_s, None)
    out["notes"] = [
        f"traffic: seed {args.seed}: {len(result.jobs)} jobs, {rounds} rounds of "
        f"{len(servemix.round_jobs())} Zipf(s={servemix.ZIPF_S})-weighted jobs over "
        f"{len(servemix.cells())} cells, each round shuffled by the seed; closed loop, "
        f"{servemix.CLIENT_THREADS} clients",
        "job mix: " + job_mix(result.jobs),
        f"job_p50_ms over {len(latencies)} jobs; job_tail_ms is p{pct:.1f}",
        f"setup_s: median of {SETUP_REPEATS} server boots (spawn to /readyz)",
    ] + scale_notes
    return out


def job_mix(jobs) -> str:
    """Shares of fresh runs, of cache hits (or coalesced jobs) whose
    program build the server repeats, and of other hits."""
    done = [job for job in jobs if job.ok]
    fresh = sum(1 for job in done if job.source == "simulated")
    rebuild = sum(1 for job in done if job.source != "simulated"
                  and job.spec["variant"] in REBUILD_VARIANTS)

    def share(count: int) -> str:
        return f"{100.0 * count / len(done):.1f}%" if done else "n/a"

    return (f"fresh runs {share(fresh)}, hits on {'/'.join(REBUILD_VARIANTS)} "
            f"(the server rebuilds their program before the cache lookup) "
            f"{share(rebuild)}, other hits {share(len(done) - fresh - rebuild)}")


def job_op(job):
    import figures
    import servemix

    record = job.record if job.ok else None
    return figures.Op(f"job{job.index}", servemix.ref_key(job.spec), job.latency_s,
                      job.ok, record, figures.refs_of(record) if record else 0)


def traced_op(op):
    """The traced run's copy of an op, labelled apart from the untraced one."""
    return dataclasses.replace(op, label=f"traced/{op.label}")


def serve_layers(rec, traced, base) -> Dict[str, float]:
    import servemix

    samples = servemix.parse_metrics(traced.metrics_text)
    self_times = rec.self_times()
    layers = ("serve.submit", "serve.wait", "runtime.cache_io")
    roots = sum(s["end"] - s["start"] for s in rec.spans if s["parent"] is None)
    done = [job for job in traced.jobs if job.ok]
    hits = [job.latency_s * 1e3 for job in done if job.source != "simulated"]
    misses = [job.latency_s * 1e3 for job in done if job.source == "simulated"]
    return {
        "runtime.cache_io_s": self_times.get("runtime.cache_io", 0.0),
        "serve.hit_p50_ms": statistics.median(hits) if hits else 0.0,
        "serve.miss_p50_ms": statistics.median(misses) if misses else 0.0,
        "serve.hit_frac": len(hits) / len(done) if done else 0.0,
        "serve.queue_p50_ms": servemix.histogram_p50_ms(
            samples, "repro_serve_job_phase_seconds", "queue"),
        "serve.exec_p50_ms": servemix.histogram_p50_ms(
            samples, "repro_serve_job_phase_seconds", "exec"),
        "serve.coalesced": servemix.counter_total(samples, "repro_serve_coalesced_total"),
        "trace.unattributed_s": roots - sum(self_times.get(n, 0.0) for n in layers),
        "trace.overhead_s": traced.wall_s - base.wall_s,
    }


# -- output -------------------------------------------------------------------

def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    BENCHMARK.json declares."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not common.source_present():
        print(f"perfbench: no src/repro under {common.ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    work_dir = common.isolate()
    try:
        engine = replay_engine()
        if engine != EXPECTED_ENGINE:
            print(f"perfbench: INVALID run: replay engine is {engine!r}, the benchmark "
                  f"expects {EXPECTED_ENGINE!r}; not comparable", file=sys.stderr)
            return 3
        reference = common.load_reference(args.reference)
        run = serve_workload if args.workload == "serve_mix" else figure_workload
        out = run(args, work_dir, reference)
        spans = out.pop("spans", None)
        if spans is not None:
            path = os.path.join(common.BUILD_DIR,
                                f"spans-{args.workload}-seed{args.seed}.json")
            spans.write(path)
            out["notes"].append(f"spans written to {os.path.relpath(path, common.ROOT)}")
    finally:
        common.remove(work_dir)

    attempted = len(out["ops"])
    failed = len(out["failures"])
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = out["metrics"]
    idle = [name for name in units if name not in metrics]
    if idle and not args.trace:
        raise KeyError(f"end-to-end metrics not measured: {idle}")
    if idle:
        out["notes"].append("per-layer metrics this workload does not measure, "
                            "reported as 0: " + ", ".join(idle))
    from repro.bench.harness import fingerprint_hash, host_fingerprint

    fingerprint = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"engine={engine} source={source_digest()} nproc={os.cpu_count()}")
    print(f"host: {fingerprint_hash(fingerprint)} {json.dumps(fingerprint, sort_keys=True)}")
    for note in out["notes"]:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics.get(name, 0.0):.6g} {unit}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed}/{attempted} ops)")
    for label, problems in sorted(out["failures"].items()):
        print(f"MISMATCH {label}: " + "; ".join(problems[:5]), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
