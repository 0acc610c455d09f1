"""The two figure workloads: ``fig2_grid`` and ``blur_visionfive``.

Both are fixed grids of figure cells (the seed does not change them).
One pass regenerates the workload cold, against an empty run cache:

* ``fig2_grid``: the 35 Fig. 2 cells (20 at 512^2, 15 at 1024^2; the Mango
  Pi is left out of the large panel as in the paper), then Fig. 2 and
  Fig. 3 are assembled from those records, rendered and exported as JSON;
* ``blur_visionfive``: the five Fig. 6 blur variants on the VisionFive,
  with Fig. 6's cell keys, then its Fig. 6 row is rendered and exported.

An untraced pass drives every cell through ``Runner.run_supervised``.  A
traced pass runs the same cells through the layers one by one, with a
span around each layer call, and must produce the same records.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.footprint import essential_traffic_bytes
from repro.exec.trace import CoreWork
from repro.exec.tracegen import TraceGenerator
from repro.experiments import config, export, fig1, fig2, fig3, fig6
from repro.experiments.runner import RunRecord, default_runner, reset_default_runner
from repro.kernels import blur, transpose
from repro.memsim.columnar import resolve_engine
from repro.memsim.stats import snapshot
from repro.metrics.speedup import speedup_row
from repro.profiling.counters import counter_set
from repro.runtime import canonical_key
from repro.simulate import SimulationResult, has_parallel_loop
from repro.timing.model import time_run
from repro.transforms import AutoVectorize

BLUR_DEVICE = "visionfive_jh7100"

#: Span names that are layers (the ``op`` and ``pass`` spans are not).
LAYER_SPANS = (
    "kernels.build", "exec.tracegen", "memsim.replay_nopmu", "memsim.replay",
    "timing.time_run", "runtime.cache_io", "experiments.render",
)


@dataclass(frozen=True)
class Cell:
    label: str
    key: Tuple
    device_key: str
    build: Callable


@dataclass
class Op:
    """One completed (or failed) cell or figure export of a pass."""

    label: str
    ref_key: str                 # key into the reference file
    seconds: float               # host time of the op
    ok: bool
    output: Optional[Dict] = None
    refs: int = 0                # simulated loads + stores of the record
    kind: str = "cell"           # cell | export (a figure's JSON file)


@dataclass
class PassResult:
    wall_s: float
    ops: List[Op]
    layer: Dict[str, float]      # per-layer counts (traced passes only)


def fig2_cells() -> List[Cell]:
    cells = []
    for paper_n, sim_n in config.TRANSPOSE_SIZES:
        paper_bytes = config.transpose_workload(paper_n).paper_bytes
        for dev in config.all_device_keys():
            if not config.device_fits_paper_workload(dev, paper_bytes):
                continue
            for variant in transpose.VARIANT_ORDER:
                cells.append(Cell(
                    label=f"fig2/{sim_n}/{dev}/{variant}",
                    key=("fig2", variant, sim_n, config.TRANSPOSE_BLOCK, dev,
                         config.CACHE_SCALE),
                    device_key=dev,
                    build=functools.partial(
                        transpose.build, variant, sim_n, block=config.TRANSPOSE_BLOCK
                    ),
                ))
    return cells


def blur_cells() -> List[Cell]:
    w, h = config.BLUR_SIM_WH
    return [
        Cell(
            label=f"fig6/{BLUR_DEVICE}/{variant}",
            key=("fig6", variant, w, h, config.BLUR_FILTER, BLUR_DEVICE,
                 config.CACHE_SCALE),
            device_key=BLUR_DEVICE,
            build=functools.partial(blur.build, variant, h, w, config.BLUR_FILTER),
        )
        for variant in blur.VARIANT_ORDER
    ]


CELLS = {"fig2_grid": fig2_cells, "blur_visionfive": blur_cells}


def fresh_runner(cache_path: str):
    """The process-wide runner on an empty cache, with Fig. 1's in-process
    memo cleared, so the pass regenerates everything."""
    os.environ["REPRO_CACHE"] = cache_path
    reset_default_runner()
    fig1._measure_level.cache_clear()
    fig1.dram_bandwidth.cache_clear()
    return default_runner()


def refs_of(record: Dict) -> int:
    counters = record.get("counters") or {}
    return int(counters.get("ops.loads", 0)) + int(counters.get("ops.stores", 0))


def render_and_export(workload: str, records: Dict[str, Dict], out_dir: str) -> Dict[str, str]:
    """Assemble, render and export the workload's figures; ``name -> path``."""
    paths = {}
    if workload == "fig2_grid":
        panels = fig2.run()
        rows = fig3.run()
        fig2.render(panels)
        fig3.render(rows)
        paths["fig2"] = export.export_figure_json("fig2", out_dir, result=panels)
        paths["fig3"] = export.export_figure_json("fig3", out_dir, result=rows)
    else:
        w, h = config.BLUR_SIM_WH
        seconds = {
            cell.key[1]: records[cell.label]["seconds"]
            for cell in blur_cells() if cell.label in records
        }
        result = fig6.Fig6Result(width=w, height=h, filter_size=config.BLUR_FILTER)
        if blur.VARIANT_ORDER[0] in seconds:
            result.rows.append(speedup_row(BLUR_DEVICE, seconds))
        fig6.render(result)
        paths["fig6"] = export.export_figure_json("fig6", out_dir, result=result)
    return paths


def _export_ops(workload: str, paths: Dict[str, str], seconds: float) -> List[Op]:
    ops = []
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            ops.append(Op(f"{workload}/{name}.json", f"{workload}/{name}", seconds,
                          True, json.load(fh), kind="export"))
    return ops


def run_pass(workload: str, work_dir: str,
             between: Optional[Callable[[], None]] = None) -> PassResult:
    """Untraced pass: every cell through ``Runner.run_supervised``.
    ``between`` runs before each cell, outside every reported time."""
    runner = fresh_runner(os.path.join(work_dir, "cache.json"))
    ops: List[Op] = []
    records: Dict[str, Dict] = {}
    between_s = 0.0
    start = time.perf_counter()
    for cell in CELLS[workload]():
        if between is not None:
            t0 = time.perf_counter()
            between()
            between_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        outcome = runner.run_supervised(
            cell.key, cell.build, config.scaled_device(cell.device_key)
        )
        elapsed = time.perf_counter() - t0
        record = asdict(outcome.value) if outcome.ok else None
        if record is not None:
            records[cell.label] = record
        ops.append(Op(cell.label, cell.label, elapsed, outcome.ok,
                      record, refs_of(record) if record else 0))
    t0 = time.perf_counter()
    paths = render_and_export(workload, records, os.path.join(work_dir, "figures"))
    wall = time.perf_counter() - start - between_s
    ops += _export_ops(workload, paths, time.perf_counter() - t0)
    return PassResult(wall, ops, {})


def _traced_cell(rec, runner, cell: Cell, counts: Dict[str, float]) -> RunRecord:
    """``Runner.run_supervised`` + ``simulate()`` for one cold cell, one
    span per layer call.  Mirrors their order exactly, replays each
    stream a second time without the PMU, and returns the record."""
    device = config.scaled_device(cell.device_key)
    disk_key = canonical_key(cell.key)
    lock = runner.cache.key_lock(disk_key)
    with rec.span("runtime.cache_io"):
        lock.acquire()
        if runner.cache.reload(disk_key) is not None:
            raise RuntimeError(f"{disk_key} already cached in a cold pass")
    try:
        with rec.span("kernels.build"):
            program = cell.build()
            if device.cpu.vector_bits:
                program = AutoVectorize().run(program)
        counts["kernels.builds"] += 1
        device.check_capacity(program.footprint_bytes(), what=f"program {program.name!r}")
        cores = device.cores if has_parallel_loop(program) else 1
        engine = resolve_engine(None)

        with rec.span("exec.tracegen"):
            generator = TraceGenerator(program, num_cores=cores)
            streams = [list(generator.core_stream(core)) for core in range(cores)]
        works = [CoreWork().merge(one) for one in generator.work]
        counts["exec.segments"] += sum(len(stream) for stream in streams)

        with rec.span("memsim.replay_nopmu"):
            for hierarchy, stream in zip(device.build_hierarchies(cores, engine=engine), streams):
                hierarchy.run(stream)
        with rec.span("memsim.replay"):
            hierarchies = device.build_hierarchies(cores, engine=engine)
            for hierarchy in hierarchies:
                hierarchy.attach_pmu()
            baselines = [snapshot(h) for h in hierarchies]
            for hierarchy, stream in zip(hierarchies, streams):
                hierarchy.run(stream)
        with rec.span("timing.time_run"):
            deltas = [snapshot(h) - base for h, base in zip(hierarchies, baselines)]
            timing = time_run(device, works, deltas, cores)

        for delta in deltas:
            counts["memsim.line_ops"] += sum(level.accesses for level in delta.levels)
        for hierarchy in hierarchies:
            skips = getattr(hierarchy, "skip_counts", lambda: {})()
            counts["memsim.skipped"] += skips.get("resident", 0) + skips.get("streaming", 0)
            counts["memsim.skip_total"] += sum(skips.values())

        result = SimulationResult(
            program_name=program.name, device_key=device.key, active_cores=cores,
            seconds=timing.seconds, timing=timing, works=works, snapshots=deltas,
        )
        record = RunRecord(
            program_name=program.name,
            device_key=device.key,
            seconds=result.seconds,
            dram_bytes=result.dram_bytes,
            essential_bytes=essential_traffic_bytes(program),
            active_cores=cores,
            flops=result.total_ops.flops,
            counters=dict(counter_set(result)),
        )
        with rec.span("runtime.cache_io"):
            runner.cache.put(disk_key, asdict(record))
            runner.cache.reload(disk_key)
    finally:
        with rec.span("runtime.cache_io"):
            lock.release()
    runner.adopt(cell.key, record)
    return record


def run_traced_pass(workload: str, work_dir: str, rec) -> PassResult:
    """Traced pass: the same cells, layer by layer, under ``rec``'s spans."""
    runner = fresh_runner(os.path.join(work_dir, "cache.json"))
    counts = {name: 0 for name in (
        "kernels.builds", "exec.segments", "memsim.line_ops",
        "memsim.skipped", "memsim.skip_total",
    )}
    ops: List[Op] = []
    records: Dict[str, Dict] = {}
    start = time.perf_counter()
    with rec.span("pass", op="pass"):
        for cell in CELLS[workload]():
            t0 = time.perf_counter()
            with rec.span("op", op=cell.label):
                record = asdict(_traced_cell(rec, runner, cell, counts))
            records[cell.label] = record
            ops.append(Op(cell.label, cell.label,
                          time.perf_counter() - t0, True, record, refs_of(record)))
        t0 = time.perf_counter()
        with rec.span("experiments.render"):
            paths = render_and_export(workload, records, os.path.join(work_dir, "figures"))
    wall = time.perf_counter() - start
    ops += _export_ops(workload, paths, time.perf_counter() - t0)
    return PassResult(wall, ops, counts)
