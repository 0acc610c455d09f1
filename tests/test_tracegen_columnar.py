"""Columnar trace generation against the per-segment oracle walker.

:class:`repro.exec.tracegen.TraceGenerator` walks each loop level for a
whole table of bindings and emits NumPy column batches;
``tests/tracegen_oracle.py`` keeps the recursive walker that emitted one
``Segment`` per innermost-loop execution.  For every figure program and
a set of corner cases the two must agree exactly on the segments
(reference ids included), the ``references()`` table and every core's
``CoreWork``.  The batches must also replay the same however they are
cut, on the fast engine and against the exact one.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
import pytest

from repro.devices import get_device
from repro.exec import tracegen
from repro.exec.trace import SegmentBatch
from repro.exec.tracegen import TraceGenerator
from repro.experiments.config import BLUR_FILTER, BLUR_SIM_WH, scaled_device
from repro.ir import DType, LoopBuilder
from repro.ir.affine import Affine, AffineBound, AffineLowerBound
from repro.ir.program import Program
from repro.ir.stmt import Block, For, Store
from repro.kernels import blur, scan, stream, transpose
from repro.memsim.native import native_available
from repro.memsim.stats import snapshot
from repro.profiling import tracer
from repro.simulate import simulate
from tests.test_fast_engine import pmu_state
from tests.tracegen_oracle import OracleTraceGenerator

CORES = (1, 2, 3, 4, 10)


def assert_matches_oracle(program, cores):
    new = TraceGenerator(program, num_cores=cores)
    old = OracleTraceGenerator(program, num_cores=cores)
    for core in range(cores):
        for index, (got, want) in enumerate(zip_longest(new.core_stream(core), old.core_stream(core))):
            assert got == want, f"core {core} segment {index}"
        assert new.work[core] == old.work[core], f"core {core} work"
    assert new.references() == old.references()


def _transpose_cases():
    for variant in transpose.VARIANT_ORDER:
        for n in (16, 24, 64, 512):
            block = 8 if n == 24 else 16  # manual blocking needs n % block == 0
            yield f"transpose-{variant}-{n}", lambda v=variant, n=n, b=block: transpose.build(v, n, block=b)


def _small_cases():
    for variant in blur.VARIANT_ORDER:
        yield f"blur-{variant}-small", lambda v=variant: blur.build(v, 16, 12, 3)
    for test in stream.TESTS:
        for parallel in (True, False):
            yield f"stream-{test}-{parallel}", lambda t=test, p=parallel: stream.build(t, 96, parallel=p)
    for variant in scan.VARIANT_ORDER:
        yield f"scan-{variant}", lambda v=variant: scan.build(v, 64)
    # Sweep programs (repro.experiments.sweeps).
    yield "sweep-blocking-48-b12", lambda: transpose.blocking(48, block=12)
    yield "sweep-dynamic-64-b8", lambda: transpose.dynamic(64, block=8)
    yield "sweep-blur-naive-f5", lambda: blur.naive(20, 14, 5)
    yield "sweep-blur-one-d-f7", lambda: blur.one_d(20, 14, 7)


_FIGURE = list(_transpose_cases()) + list(_small_cases())


@pytest.mark.parametrize("name,build", _FIGURE, ids=[case[0] for case in _FIGURE])
def test_figure_programs_match_oracle(name, build):
    program = build()
    for cores in CORES:
        assert_matches_oracle(program, cores)


@pytest.mark.parametrize("variant", blur.VARIANT_ORDER)
def test_figure_size_blur_matches_oracle(variant):
    width, height = BLUR_SIM_WH
    program = blur.build(variant, height, width, BLUR_FILTER)
    assert_matches_oracle(program, 4 if variant == "Parallel" else 1)


# -- corner cases -------------------------------------------------------------


def _parallel_under_serial():
    b = LoopBuilder("par_under_serial")
    a = b.array("a", DType.F64, (4, 40))
    c = b.array("c", DType.F64, (40,))
    with b.loop("r", 0, 4) as r:
        with b.loop("i", r, 40, parallel=True) as i:  # innermost parallel
            b.store(a, (r, i), c[i])
        with b.loop("k", 0, r + 1, parallel=True, schedule="dynamic", chunk=1) as k:
            with b.loop("j", k, 10) as j:
                b.store(a, (k, j), a[k, j] + c[j])
    return b.build()


def _leaves_outside_loops():
    b = LoopBuilder("leaves")
    a = b.array("a", DType.F32, (8, 6))
    s = b.array("s", DType.F32, (8,))
    reg = b.array("reg", DType.F32, (2,), scope="register")
    with b.loop("i", 0, 8) as i:
        b.local("t", a[i, 0] * 2.0)
        b.accumulate(s, i, a[i, 1])          # accumulate leaf: read + write
        b.store(reg, 0, a[i, 2])             # register store: load only
        with b.loop("j", 0, 6) as j:
            b.accumulate(reg, 1, a[i, j])
        b.store(s, i, s[i] + 1.0)
    return b.build()


def _empty_ranges():
    """max/min bounds that are empty on some rows, including the first rows
    of an earlier sibling (so reference ids follow first emission, not
    program order)."""
    i, j, k, o, c = (Affine.var(v) for v in "ijkoc")
    a = LoopBuilder("empty_ranges").array("a", DType.F64, (12, 12))
    body = Block([
        For("j", AffineLowerBound(i - 3, 0), AffineBound(i, 6), Store(a.array, (i, j), a[j, i])),
        For("k", AffineLowerBound(2, i), AffineBound(9, i + 4), Store(a.array, (k, i), a[i, k] * 2.0)),
        For("o", 0, AffineBound(i - 5, 3), For("c", 0, 3, Store(a.array, (o * 3 + c, i), 1.0))),
    ])
    return Program("empty_ranges", For("i", 0, 12, body))


def _pair_chain_fails_on_some_rows():
    """(o, c) merges into one segment only when the inner trip count makes
    the outer stride contiguous (r == 2); other rows fall back."""
    b = LoopBuilder("pair_rows")
    a = b.array("a", DType.F32, (64,))
    out = b.array("out", DType.F32, (64,))
    with b.loop("r", 0, 5) as r:
        with b.loop("o", 0, 4) as o:
            with b.loop("c", 0, r + 1) as c:
                b.store(out, o * 3 + c + r, a[o * 3 + c] + a[7])
    return b.build()


def _reversed_and_strided():
    b = LoopBuilder("reversed")
    a = b.array("a", DType.F64, (64,))
    m = b.array("m", DType.F64, (16, 16))
    with b.loop("i", 0, 32, step=3) as i:
        b.store(a, 63 - i, a[i] + 1.0)
    with b.loop("p", 0, 16, parallel=True, chunk=2) as p:
        with b.loop("q", 0, 16, step=4) as q:
            b.store(m, (q, p), m[p, q])
    return b.build()


_CORNERS = {
    "parallel-under-serial": _parallel_under_serial,
    "leaves-outside-loops": _leaves_outside_loops,
    "empty-min-max-ranges": _empty_ranges,
    "pair-chain-fails-some-rows": _pair_chain_fails_on_some_rows,
    "reversed-and-strided": _reversed_and_strided,
}


@pytest.mark.parametrize("batch_segments", [tracegen.BATCH_SEGMENTS, 3])
@pytest.mark.parametrize("name", sorted(_CORNERS))
def test_corner_cases_match_oracle(name, batch_segments, monkeypatch):
    """Also with tiny batches, which exercises chunk sizing and streaming
    one level deeper."""
    monkeypatch.setattr(tracegen, "BATCH_SEGMENTS", batch_segments)
    program = _CORNERS[name]()
    for cores in CORES:
        assert_matches_oracle(program, cores)


def test_small_batches_match_oracle_on_figure_program(monkeypatch):
    monkeypatch.setattr(tracegen, "BATCH_SEGMENTS", 5)
    for variant in transpose.VARIANT_ORDER:
        assert_matches_oracle(transpose.build(variant, 64), 3)
    assert_matches_oracle(blur.build("Naive", 16, 12, 3), 1)


def test_corner_cases_exercise_their_paths():
    """The corner programs really take the paths they are named after."""
    gen = TraceGenerator(_empty_ranges(), num_cores=1)
    segments = list(gen.core_stream(0))
    first_refs = [seg.ref for seg in segments if seg.ref >= 0]
    # The k loop emits before the j loop does, so it takes ids first.
    assert gen.references()[first_refs[0]].loop == "k"
    gen = TraceGenerator(_pair_chain_fails_on_some_rows(), num_cores=1)
    list(gen.core_stream(0))
    # Three references, with ids for both the merged pair and the inner
    # loop's own plan (the rows where the chain check fails).
    assert sum(1 for info in gen.references().values() if info.loop == "c") == 6
    gen = TraceGenerator(_leaves_outside_loops(), num_cores=1)
    assert any(seg.ref == -1 and seg.is_write for seg in gen.core_stream(0))


# -- batch cuts ----------------------------------------------------------------


def _cut(batches, size):
    for batch in batches:
        for start in range(0, len(batch), size):
            yield batch[start : start + size]


@pytest.mark.skipif(not native_available(), reason="native core unavailable")
def test_replay_is_invariant_under_batch_cuts():
    program = transpose.build("Dynamic", 512, block=16)
    device = scaled_device("visionfive_jh7100")
    cores = device.cores
    gen = TraceGenerator(program, num_cores=cores)
    streams = [list(gen.core_batches(core)) for core in range(cores)]
    assert any(len(batches) > 1 for batches in streams)

    def replay(engine, cut):
        out = []
        for hierarchy, batches in zip(device.build_hierarchies(cores, engine=engine), streams):
            pmu = hierarchy.attach_pmu()
            for batch in cut(batches):
                hierarchy.process_batch(batch)
            hierarchy.drain()
            out.append((snapshot(hierarchy), pmu_state(pmu)))
        return out

    exact = replay("exact", iter)
    assert replay("fast", iter) == exact
    assert replay("fast", lambda batches: _cut(batches, 7)) == exact
    assert replay("fast", lambda batches: _cut(batches, 1)) == exact


def test_segment_batch_round_trip():
    gen = TraceGenerator(transpose.build("Blocking", 64), num_cores=2)
    segments = list(gen.core_stream(1))
    batch = SegmentBatch.from_segments(segments)
    assert list(batch.segments()) == segments
    assert list(batch[3:9].segments()) == segments[3:9]
    assert all(column.dtype == np.int64 for column in batch.columns())


# -- observability --------------------------------------------------------------


def test_trace_memsim_span_splits_tracegen_and_replay():
    with tracer.install() as t:
        simulate(transpose.build("Dynamic", 128), get_device("visionfive_jh7100"), check_capacity=False)
    spans = [s for s in t.spans if s.name == "trace+memsim"]
    assert spans
    for span in spans:
        split = span.args["tracegen_s"] + span.args["replay_s"]
        assert span.args["tracegen_s"] > 0 and span.args["replay_s"] > 0
        assert split <= span.dur_us / 1e6
