"""Symbolic, columnar trace generation.

Walks a program's loop nest *without computing values* and produces, for
each core of the target device, the stream of memory-access segments that
core issues, plus its exact operation counts.

Key properties:

* **Columnar, closed form**: a loop level is walked for a whole table of
  enclosing-loop bindings at once.  Bounds are ``max``/``min`` of affine
  forms, so every row's ``lo``/``hi``/trip count is a few NumPy passes;
  child loops expand raggedly (``np.repeat`` + ``cumsum``); an innermost
  loop turns into ``base = array base + const + coeff*lo + sum(coeff_v*v)``
  for every row and reference in one vector operation.  Sibling
  statements keep program order through a stable merge on the parent
  row.  The output is a sequence of :class:`~repro.exec.trace.
  SegmentBatch` column batches (:meth:`TraceGenerator.core_batches`),
  bounded by chunking the outermost loop's values, which the replay
  engines take without building per-segment objects;
  :meth:`TraceGenerator.core_stream` is a thin ``Segment`` view of them.
* **Parallel-loop scheduling is simulated faithfully**: ``static``
  schedules split the iteration space into contiguous slabs (or
  round-robin chunks when ``chunk`` is given), ``dynamic`` schedules are
  simulated by greedy least-loaded assignment using per-iteration cost
  estimates from :mod:`repro.analysis.opcount` — which is how real OpenMP
  dynamic scheduling balances the triangular transpose loop.
* **Innermost loops are emitted as whole segments**: one ``Segment`` per
  array reference per innermost-loop execution, in program order of the
  references.  (The per-iteration interleaving of references *within* one
  innermost iteration is abstracted away; see DESIGN.md §5.1 and the
  validation test comparing against the exact per-access order.)
* **Per-core streams are independent**: a consumer can process core 0's
  stream to completion before core 1's.  Shared cache levels are handled
  by the hierarchy model (capacity partitioning), DRAM contention by the
  timing model.

Reference ids are handed out lazily, in the order a sequential walk of
the streams would first reach each emission plan, so ids (the
prefetcher's training key and the PMU's attribution key) are a function
of the program alone.  ``tests/tracegen_oracle.py`` keeps that
sequential per-segment walker as the differential oracle.

The generator is the single source of truth for both the cache simulator
(addresses) and the timing model (operation counts) so they can never
disagree about what the program did.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.opcount import OpCounts, count_expr, iteration_cost
from repro.analysis.summation import polynomial_map
from repro.errors import SimulationError
from repro.ir.affine import Affine
from repro.ir.expr import loads_in
from repro.ir.program import MemoryLayout, Program
from repro.runtime import faults
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, walk_stmts
from repro.exec.trace import CoreWork, RefInfo, Segment, SegmentBatch
from repro.profiling import tracer


class _RefPlan:
    """Precompiled emission plan for one array reference in an innermost
    loop: evaluate base cheaply, emit one segment."""

    __slots__ = ("ref_id", "array", "is_write", "elem_size", "const", "terms", "coeff", "stmt")

    def __init__(self, ref_id: int, array, is_write: bool, offset: Affine, var: str, stmt=None):
        self.ref_id = ref_id
        self.array = array
        self.is_write = is_write
        self.elem_size = array.dtype.size
        self.stmt = stmt  # the leaf statement this reference belongs to
        size = self.elem_size
        self.const = offset.const * size
        self.coeff = offset.coefficient(var) * size  # byte stride per iteration
        self.terms = tuple(
            (v, c * size) for v, c in offset.terms.items() if v != var
        )


class _LoopPlan:
    """Precompiled plan for an innermost loop body."""

    __slots__ = ("refs", "per_iter", "vectorized", "step")

    def __init__(self, loop: For):
        self.refs: List[_RefPlan] = []
        self.vectorized = loop.vectorized
        self.step = loop.step
        counts = OpCounts()
        ref_id = 0
        for leaf in _leaves(loop.body):
            if isinstance(leaf, LocalAssign):
                for load in loads_in(leaf.value):
                    if load.array.scope == "register":
                        continue
                    self.refs.append(
                        _RefPlan(ref_id, load.array, False, load.array.linearize(load.indices), loop.var, leaf)
                    )
                    ref_id += 1
                counts = counts + count_expr(leaf.value)
                if leaf.accumulate:
                    counts.flops += 1
            elif isinstance(leaf, Store):
                for load in loads_in(leaf.value):
                    if load.array.scope == "register":
                        continue
                    self.refs.append(
                        _RefPlan(ref_id, load.array, False, load.array.linearize(load.indices), loop.var, leaf)
                    )
                    ref_id += 1
                counts = counts + count_expr(leaf.value)
                counts.iterations += 1
                if leaf.array.scope == "register":
                    if leaf.accumulate:
                        counts.flops += 1
                    continue
                offset = leaf.array.linearize(leaf.indices)
                if leaf.accumulate:
                    self.refs.append(_RefPlan(ref_id, leaf.array, False, offset, loop.var, leaf))
                    ref_id += 1
                    counts.loads += 1
                    counts.bytes_loaded += leaf.array.dtype.size
                    counts.flops += 1
                self.refs.append(_RefPlan(ref_id, leaf.array, True, offset, loop.var, leaf))
                ref_id += 1
                counts.stores += 1
                counts.bytes_stored += leaf.array.dtype.size
            else:
                raise SimulationError(f"unexpected statement in innermost body: {leaf!r}")
        counts.int_ops += 1  # induction update
        self.per_iter = counts


def _leaves(stmt: Stmt):
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _leaves(child)
    else:
        yield stmt


class _PairRef:
    """One reference of a two-level (outer, inner) loop pair."""

    __slots__ = ("ref_id", "array", "is_write", "elem_size", "const", "terms", "coeff_out", "coeff_in", "stmt")

    def __init__(self, ref_id: int, array, is_write: bool, offset: Affine, outer: str, inner: str, stmt=None):
        self.ref_id = ref_id
        self.array = array
        self.is_write = is_write
        self.stmt = stmt
        size = array.dtype.size
        self.elem_size = size
        self.const = offset.const * size
        self.coeff_out = offset.coefficient(outer) * size
        self.coeff_in = offset.coefficient(inner) * size
        self.terms = tuple(
            (v, c * size) for v, c in offset.terms.items() if v not in (outer, inner)
        )


class _PairPlan:
    """Emission plan for a perfect (outer, inner) pair whose inner loop is
    innermost and has outer-independent bounds.

    Lets tiny innermost loops (the 3-iteration channel loop of the blur's
    "Unit-stride" variant) merge with their parent into one segment per
    reference per *pair* execution instead of per inner-loop execution —
    an order-of-magnitude reduction in emitted segments.
    """

    __slots__ = ("inner", "refs", "per_iter", "vectorized")

    def __init__(self, outer: For, inner: For):
        self.inner = inner
        self.vectorized = inner.vectorized or outer.vectorized
        inner_plan = _LoopPlan(inner)
        self.per_iter = inner_plan.per_iter
        self.refs: List[_PairRef] = []
        ref_id = 0
        for leaf in _leaves(inner.body):
            targets = []
            for load in loads_in(leaf.value):
                targets.append((load.array, load.array.linearize(load.indices), False))
            if isinstance(leaf, Store):
                offset = leaf.array.linearize(leaf.indices)
                if leaf.accumulate:
                    targets.append((leaf.array, offset, False))
                targets.append((leaf.array, offset, True))
            for array, offset, is_write in targets:
                if array.scope == "register":
                    continue
                self.refs.append(_PairRef(ref_id, array, is_write, offset, outer.var, inner.var, leaf))
                ref_id += 1

    @staticmethod
    def try_build(loop: For) -> Optional["_PairPlan"]:
        body = [s for s in _leaves_or_loops(loop.body)]
        if len(body) != 1 or not isinstance(body[0], For):
            return None
        inner = body[0]
        if inner.parallel:
            return None
        if any(isinstance(s, For) for s in walk_stmts(inner.body)):
            return None
        if loop.var in inner.lo.variables or loop.var in inner.hi.variables:
            return None
        try:
            return _PairPlan(loop, inner)
        except SimulationError:
            return None


def _leaves_or_loops(stmt: Stmt):
    """Direct children after block flattening (loops NOT descended)."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _leaves_or_loops(child)
    else:
        yield stmt


def split_static(values: List[int], num_cores: int, chunk: Optional[int]) -> List[List[int]]:
    """OpenMP static schedule: contiguous slabs, or round-robin chunks."""
    n = len(values)
    if chunk is None:
        per = (n + num_cores - 1) // num_cores
        return [values[c * per : (c + 1) * per] for c in range(num_cores)]
    out: List[List[int]] = [[] for _ in range(num_cores)]
    for index in range(0, n, chunk):
        core = (index // chunk) % num_cores
        out[core].extend(values[index : index + chunk])
    return out


def split_dynamic(
    values: List[int],
    num_cores: int,
    chunk: int,
    cost: Callable[[int], int],
) -> List[List[int]]:
    """Greedy dynamic schedule: each chunk goes to the least-loaded core.

    Models OpenMP ``schedule(dynamic, chunk)``: a core finishing its chunk
    grabs the next one, so cores accumulate roughly equal *cost* (not
    iteration count) — which is why the paper's "Dynamic" variant fixes
    the triangular imbalance that "static" leaves behind.
    """
    out: List[List[int]] = [[] for _ in range(num_cores)]
    heap: List[Tuple[int, int]] = [(0, core) for core in range(num_cores)]
    heapq.heapify(heap)
    for index in range(0, len(values), chunk):
        piece = values[index : index + chunk]
        load, core = heapq.heappop(heap)
        out[core].extend(piece)
        heapq.heappush(heap, (load + sum(cost(v) for v in piece), core))
    return out




# -- segment tables -----------------------------------------------------------
#
# While a loop nest is walked, its segments live in an int64 table with
# one row per segment: the index of the enclosing binding row that
# produced it, then the ``Segment`` fields (``REF`` holds *provisional*
# reference ids until a batch is finished).  Tables are kept sorted by
# ``ROW``, program order within a row.

_ROW, _REF, _BASE, _STRIDE, _COUNT, _WRITE, _ESIZE = range(7)
_NCOL = 7
_EMPTY = np.empty((0, _NCOL), dtype=np.int64)

#: Segments per emitted batch the loop-value chunking aims at.  A table
#: of this many segments (7 int64 columns, 112 KiB) stays below the C
#: allocator's default 128 KiB mmap threshold; 4096 or more measured up
#: to ~2 MB higher, run-to-run varying peak RSS on the fig2 grid.
BATCH_SEGMENTS = 2048


def _affine_rows(aff: Affine, env: Dict[str, np.ndarray], n: int) -> np.ndarray:
    out = np.full(n, aff.const, dtype=np.int64)
    for var, coeff in aff.terms.items():
        out += coeff * env[var]
    return out


def _bound_rows(bound, env: Dict[str, np.ndarray], n: int, combine) -> np.ndarray:
    """A ``max`` (lower) or ``min`` (upper) bound evaluated for every row."""
    out = _affine_rows(bound.operands[0], env, n)
    for operand in bound.operands[1:]:
        combine(out, _affine_rows(operand, env, n), out=out)
    return out


def _trips(loop: For, env: Dict[str, np.ndarray], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``lo`` and trip count (0 for empty ranges)."""
    lo = _bound_rows(loop.lo, env, n, np.maximum)
    hi = _bound_rows(loop.hi, env, n, np.minimum)
    return lo, np.maximum((hi - lo + loop.step - 1) // loop.step, 0)


def _expand(rows: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Repeat each of ``rows`` ``counts`` times: (parent row, iteration index)."""
    parent = np.repeat(rows, counts)
    first = np.cumsum(counts) - counts
    return parent, np.arange(len(parent), dtype=np.int64) - np.repeat(first, counts)


def _merge(parts: List[np.ndarray]) -> np.ndarray:
    """Stable merge of row-sorted tables: per row, ``parts`` order."""
    parts = [part for part in parts if len(part)]
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    table = np.concatenate(parts)
    return table[np.argsort(table[:, _ROW], kind="stable")]


class _Columns:
    """The per-reference constants of one emission plan as vectors."""

    __slots__ = ("prov", "write", "esize", "terms", "base0")

    def __init__(self, refs: Sequence, prov0: int, bases: List[Dict[str, int]]):
        k = len(refs)
        self.prov = np.arange(prov0, prov0 + k, dtype=np.int64) if prov0 >= 0 else np.full(k, -1, np.int64)
        self.write = np.array([ref.is_write for ref in refs], dtype=np.int64)
        self.esize = np.array([ref.elem_size for ref in refs], dtype=np.int64)
        variables = sorted({var for ref in refs for var, _ in ref.terms})
        self.terms = [
            (var, np.array([dict(ref.terms).get(var, 0) for ref in refs], dtype=np.int64))
            for var in variables
        ]
        self.base0 = [
            np.array([core_bases[ref.array.name] + ref.const for ref in refs], dtype=np.int64)
            for core_bases in bases
        ]

    def table(self, core: int, env, rows: np.ndarray, extra, stride, count) -> np.ndarray:
        """One segment per (row, reference), row-major: ``base = base0 +
        extra + sum(coeff_v * v)``; ``extra``/``stride``/``count``
        broadcast against ``(len(rows), refs)``."""
        m, k = len(rows), len(self.prov)
        out = np.empty((m, k, _NCOL), dtype=np.int64)
        base = out[:, :, _BASE]
        np.add(self.base0[core], extra, out=base)
        for var, coeff in self.terms:
            base += env[var][rows][:, None] * coeff
        out[:, :, _ROW] = rows[:, None]
        out[:, :, _REF] = self.prov
        out[:, :, _STRIDE] = stride
        out[:, :, _COUNT] = count
        out[:, :, _WRITE] = self.write
        out[:, :, _ESIZE] = self.esize
        return out.reshape(m * k, _NCOL)


class TraceGenerator:
    """Generates per-core segment batches and per-core work summaries."""

    def __init__(
        self,
        program: Program,
        num_cores: int = 1,
        layout: Optional[MemoryLayout] = None,
    ):
        self.program = program
        self.num_cores = max(1, int(num_cores))
        self.layout = layout or MemoryLayout(program, num_threads=self.num_cores)
        # Emission plans by id(statement): innermost loops, (outer, inner)
        # pairs (None: not a pair) and leaves outside innermost loops.
        self._plans: Dict[int, tuple] = {}
        self._pairs: Dict[int, Optional[tuple]] = {}
        self._leaf_plans: Dict[int, tuple] = {}
        self._trip_acc: Dict[int, list] = {}
        # Provisional -> final reference ids.  A plan's references get
        # provisional ids when the plan is built and final ids when a
        # finished batch first shows the plan reached (see ``_resolve``).
        self._owners: List[Tuple[Sequence, For, int]] = []
        self._prov_owner: List[int] = []
        self._final = np.empty(0, dtype=np.int64)
        self._next_ref = 0
        # Attribution: leaf statements numbered in program (printer) order,
        # loop-nest depths, and the ref id -> RefInfo table filled in as
        # references are first reached (the PMU's attribution join key).
        self._stmt_ids: Dict[int, int] = {}
        self._loop_depths: Dict[int, int] = {}
        self._innermost: Dict[int, bool] = {}
        self._has_parallel: Dict[int, bool] = {}
        self._index_statements(program.body, 0)
        self.ref_info: Dict[int, RefInfo] = {
            -1: RefInfo(-1, "(setup)", False, 0, -1, "", 0)
        }
        self._assignments: Dict[Tuple[int, Tuple[Tuple[str, int], ...]], List[List[int]]] = {}
        self.work: List[CoreWork] = [CoreWork() for _ in range(self.num_cores)]
        self._bases: List[Dict[str, int]] = [
            {
                arr.name: self.layout.address_of(arr, core)
                for arr in program.arrays
                if arr.scope != "register"
            }
            for core in range(self.num_cores)
        ]

    def _index_statements(self, stmt: Stmt, depth: int) -> bool:
        """Number leaf statements in program order (the same walk the
        pretty printer performs), record loop-nest depths and which
        statements are innermost loops or contain a parallel loop.
        Returns whether ``stmt`` contains a loop."""
        if isinstance(stmt, Block):
            loops = False
            for child in stmt.stmts:
                loops = self._index_statements(child, depth) or loops
            return loops
        if isinstance(stmt, For):
            self._loop_depths[id(stmt)] = depth
            self._innermost[id(stmt)] = not self._index_statements(stmt.body, depth + 1)
            self._has_parallel[id(stmt)] = any(
                isinstance(node, For) and node.parallel for node in walk_stmts(stmt)
            )
            return True
        self._stmt_ids[id(stmt)] = len(self._stmt_ids)
        self._has_parallel[id(stmt)] = False
        return False

    def references(self) -> Dict[int, RefInfo]:
        """The ref id -> :class:`RefInfo` attribution table.

        Ids are assigned as the streams are generated, so consume them
        before reading this (``simulate`` does).
        """
        return dict(self.ref_info)

    # -- public API ----------------------------------------------------------

    def core_batches(self, core: int) -> Iterator[SegmentBatch]:
        """The segments issued by ``core``, in program order, as column
        batches of at most about :data:`BATCH_SEGMENTS` segments.

        Also (re)accumulates ``self.work[core]`` as a side effect; consume
        the batches fully before reading the work summary.
        """
        if not 0 <= core < self.num_cores:
            raise SimulationError(f"core {core} out of range 0..{self.num_cores - 1}")
        faults.before_tracegen()
        self.work[core] = CoreWork()
        # Innermost-loop op counts accumulate as per-plan trip totals and
        # fold into the work summary once the walk finishes.
        self._trip_acc = {}
        for table in self._stream(self.program.body, {}, False, core):
            if len(table):
                batch = self._finish(table, core)
                if len(batch):
                    yield batch
        work = self.work[core]
        for plan, trips in self._trip_acc.values():
            counts = plan.per_iter * trips
            if plan.vectorized:
                work.vector = work.vector + counts
            else:
                work.scalar = work.scalar + counts
        self._trip_acc = {}

    def core_stream(self, core: int) -> Iterator[Segment]:
        """:meth:`core_batches` as individual :class:`Segment` objects."""
        for batch in self.core_batches(core):
            yield from batch.segments()

    # -- reference ids -------------------------------------------------------

    def _columns(self, refs: Sequence, loop: Optional[For]) -> _Columns:
        """Columns for a plan's references; ``loop`` registers them for
        reference ids (``None``: setup leaves, all ``ref -1``)."""
        if loop is None:
            return _Columns(refs, -1, self._bases)
        prov0 = len(self._prov_owner)
        self._prov_owner.extend([len(self._owners)] * len(refs))
        self._owners.append((refs, loop, prov0))
        self._final = np.concatenate([self._final, np.full(len(refs), -1, dtype=np.int64)])
        return _Columns(refs, prov0, self._bases)

    def _marker(self, cols: _Columns) -> np.ndarray:
        """A zero-count row at row 0 marking a plan as reached there (a pair
        takes its ids when reached, even if it then emits nothing)."""
        if not len(cols.prov) or self._final[cols.prov[0]] >= 0:
            return _EMPTY
        marker = np.zeros((1, _NCOL), dtype=np.int64)
        marker[0, _REF] = cols.prov[0]
        return marker

    def _resolve(self, prov: np.ndarray) -> np.ndarray:
        """Final ids for a finished table's provisional ids, assigning new
        ones to plans in order of their first appearance."""
        known = prov >= 0
        ids = np.full(len(prov), -1, dtype=np.int64)
        ids[known] = self._final[prov[known]]
        fresh = np.flatnonzero(known & (ids < 0))
        if len(fresh):
            _, first = np.unique(prov[fresh], return_index=True)
            owners: Dict[int, None] = {}
            for position in np.sort(fresh[first]).tolist():
                owners.setdefault(self._prov_owner[int(prov[position])])
            for owner in owners:
                self._register(owner)
            ids[known] = self._final[prov[known]]
        return ids

    def _register(self, owner: int) -> None:
        refs, loop, prov0 = self._owners[owner]
        depth = self._loop_depths.get(id(loop), -1) + 1
        for offset, ref in enumerate(refs):
            ref_id = self._next_ref
            self._next_ref += 1
            self._final[prov0 + offset] = ref_id
            self.ref_info[ref_id] = RefInfo(
                ref_id=ref_id,
                array=ref.array.name,
                is_write=ref.is_write,
                elem_size=ref.elem_size,
                stmt_id=self._stmt_ids.get(id(ref.stmt), -1),
                loop=loop.var,
                depth=depth,
            )

    def _finish(self, table: np.ndarray, core: int) -> SegmentBatch:
        table[:, _REF] = self._resolve(table[:, _REF])
        counts = table[:, _COUNT]
        if not counts.all():
            table = table[counts != 0]  # drop reach markers
        self.work[core].segments += len(table)
        return SegmentBatch(*np.ascontiguousarray(table[:, _REF:].T))

    # -- walk ----------------------------------------------------------------

    def _stream(self, stmt: Stmt, env: Dict[str, int], par: bool, core: int) -> Iterator[np.ndarray]:
        """Tables for ``stmt`` under one binding, in program order: loops
        that just iterate are walked in chunks of values, everything else
        is one table."""
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                yield from self._stream(child, env, par, core)
            return
        if (
            isinstance(stmt, For)
            and not self._innermost[id(stmt)]
            and (par or not core or self._has_parallel[id(stmt)])
        ):
            if stmt.parallel and not par:
                yield from self._chunks(stmt, env, self._assigned(stmt, env)[core], True, core)
                return
            if self._pair(stmt) is None:
                yield from self._chunks(stmt, env, stmt.iter_values(env), par, core)
                return
        rows = {var: np.array([value], dtype=np.int64) for var, value in env.items()}
        yield self._table(stmt, rows, 1, par, core)

    def _chunks(self, loop: For, env: Dict[str, int], values, par: bool, core: int) -> Iterator[np.ndarray]:
        """``loop``'s body over ``values``, a chunk of values per table,
        sized from the previous output to about :data:`BATCH_SEGMENTS`
        segments.  The first value, and any value whose predecessor alone
        emitted more than that, is streamed one level deeper instead."""
        values = np.asarray(values, dtype=np.int64)
        start, take = 0, 0
        while start < len(values):
            if take:
                chunk = values[start : start + take]
                rows = {var: np.full(len(chunk), value, dtype=np.int64) for var, value in env.items()}
                rows[loop.var] = chunk
                table = self._table(loop.body, rows, len(chunk), par, core)
                yield table
                emitted = len(table) / len(chunk)
                start += len(chunk)
            else:
                emitted = 0
                for table in self._stream(loop.body, {**env, loop.var: int(values[start])}, par, core):
                    emitted += len(table)
                    yield table
                start += 1
            take = int(BATCH_SEGMENTS / emitted) if emitted else 2 * max(take, 1)

    def _table(self, stmt: Stmt, env: Dict[str, np.ndarray], n: int, par: bool, core: int) -> np.ndarray:
        """The segments ``stmt`` emits under each of ``n`` binding rows."""
        if not n:
            return _EMPTY
        if isinstance(stmt, Block):
            return _merge([self._table(child, env, n, par, core) for child in stmt.stmts])
        if core and not par and not self._has_parallel[id(stmt)]:
            return _EMPTY  # serial code runs on the master core only
        if not isinstance(stmt, For):
            return self._leaf_table(stmt, env, n, core)
        if stmt.parallel and not par:
            rows, values = self._scheduled(stmt, env, n, core)
            if self._innermost[id(stmt)]:
                # Contiguous runs of assigned values coalesce into segments.
                breaks = np.ones(len(rows), dtype=bool)
                breaks[1:] = (values[1:] != values[:-1] + stmt.step) | (rows[1:] != rows[:-1])
                starts = np.flatnonzero(breaks)
                trips = np.diff(np.append(starts, len(rows)))
                return self._loop_table(stmt, env, rows[starts], values[starts], trips, core)
            return self._nest(stmt, env, rows, values, True, core)
        lo, trips = _trips(stmt, env, n)
        if self._innermost[id(stmt)]:
            live = np.flatnonzero(trips)
            return self._loop_table(stmt, env, live, lo[live], trips[live], core)
        pair = self._pair(stmt)
        if pair is not None:
            return self._pair_table(stmt, pair, env, n, lo, trips, core)
        parent, it = _expand(np.arange(n, dtype=np.int64), trips)
        return self._nest(stmt, env, parent, lo[parent] + it * stmt.step, par, core)

    def _nest(self, loop: For, env, parent: np.ndarray, values: np.ndarray, par: bool, core: int) -> np.ndarray:
        """``loop``'s body under the rows ``parent`` extended by ``values``."""
        child = {var: column[parent] for var, column in env.items()}
        child[loop.var] = values
        table = self._table(loop.body, child, len(parent), par, core)
        if len(table):
            table[:, _ROW] = parent[table[:, _ROW]]
        return table

    # -- scheduling ---------------------------------------------------------------

    def _scheduled(self, loop: For, env, n: int, core: int) -> Tuple[np.ndarray, np.ndarray]:
        """(row, value) of every iteration of a parallel loop this core runs."""
        rows, values = [], []
        for row in range(n):
            assigned = self._assigned(loop, {var: int(column[row]) for var, column in env.items()})[core]
            rows.extend([row] * len(assigned))
            values.extend(assigned)
        return np.asarray(rows, dtype=np.int64), np.asarray(values, dtype=np.int64)

    def _assigned(self, loop: For, env: Dict[str, int]) -> List[List[int]]:
        env_key = tuple(sorted(env.items()))
        key = (id(loop), env_key)
        cached = self._assignments.get(key)
        if cached is not None:
            return cached
        values = list(loop.iter_values(env))
        with tracer.span(
            "tracegen.schedule",
            cat="tracegen",
            loop=loop.var,
            schedule=loop.schedule,
            iterations=len(values),
        ):
            if loop.schedule == "dynamic":
                chunk = loop.chunk or 1
                frozen_env = dict(env)
                # Per-iteration cost is polynomial in the loop variable for
                # affine IR, so all chunk costs come from a handful of
                # symbolic evaluations (validated; exact either way).
                costs = polynomial_map(
                    lambda value: iteration_cost(loop, value, frozen_env), values
                )
                table = dict(zip(values, costs))
                assignment = split_dynamic(values, self.num_cores, chunk, table.__getitem__)
            else:
                assignment = split_static(values, self.num_cores, loop.chunk)
        self._assignments[key] = assignment
        return assignment

    # -- emission -------------------------------------------------------------------

    def _plan(self, loop: For) -> tuple:
        entry = self._plans.get(id(loop))
        if entry is None:
            plan = _LoopPlan(loop)
            coeff = np.array([ref.coeff for ref in plan.refs], dtype=np.int64)
            entry = self._plans[id(loop)] = (plan, self._columns(plan.refs, loop), coeff)
        return entry

    def _pair(self, loop: For) -> Optional[tuple]:
        key = id(loop)
        if key not in self._pairs:
            plan = _PairPlan.try_build(loop)
            entry = None
            if plan is not None:
                refs = plan.refs
                coeff_out = np.array([ref.coeff_out for ref in refs], dtype=np.int64)
                coeff_in = np.array([ref.coeff_in for ref in refs], dtype=np.int64)
                entry = (plan, self._columns(refs, plan.inner), coeff_out, coeff_in)
            self._pairs[key] = entry
        return self._pairs[key]

    def _loop_table(self, loop: For, env, rows: np.ndarray, lo: np.ndarray, trips: np.ndarray, core: int) -> np.ndarray:
        """An innermost loop's plan, one execution per ``rows`` entry."""
        if not len(rows):
            return _EMPTY
        plan, cols, coeff = self._plan(loop)
        acc = self._trip_acc.get(id(plan))
        if acc is None:
            acc = self._trip_acc[id(plan)] = [plan, 0]
        acc[1] += int(trips.sum())
        if not plan.refs:
            return _EMPTY
        stride = coeff * loop.step
        count = np.where(stride == 0, 1, trips[:, None])
        return cols.table(core, env, rows, lo[:, None] * coeff, stride, count)

    def _pair_table(self, loop: For, entry: tuple, env, n: int, out_lo, trips_out, core: int) -> np.ndarray:
        """A whole (outer, inner) iteration space per row, one segment per
        reference, where every reference chains contiguously; rows where
        one does not fall back to the inner loop's plan per outer value."""
        pair, cols, coeff_out, coeff_in = entry
        inner = pair.inner
        in_lo, trips_in = _trips(inner, env, n)
        stride_out = coeff_out * loop.step
        stride_in = coeff_in * inner.step
        live = (trips_out > 0) & (trips_in > 0)
        chained = live.copy()
        for s_out, s_in in zip(stride_out.tolist(), stride_in.tolist()):
            if s_out and s_in:
                chained &= trips_in * s_in == s_out
        parts = [self._marker(cols)]

        rows = np.flatnonzero(chained)
        if len(rows):
            t_in, t_out = trips_in[rows], trips_out[rows]
            counts = pair.per_iter * int((t_in * t_out).sum())
            counts.int_ops += int(t_out.sum())  # outer induction updates
            work = self.work[core]
            if pair.vectorized:
                work.vector = work.vector + counts
            else:
                work.scalar = work.scalar + counts
            count = np.where(
                stride_in == 0,
                np.where(stride_out == 0, 1, t_out[:, None]),
                np.where(stride_out == 0, t_in[:, None], (t_in * t_out)[:, None]),
            )
            extra = out_lo[rows][:, None] * coeff_out + in_lo[rows][:, None] * coeff_in
            stride = np.where(stride_in == 0, stride_out, stride_in)
            parts.append(cols.table(core, env, rows, extra, stride, count))

        rows = np.flatnonzero(live & ~chained)
        if len(rows):
            # Not contiguous: the inner loop per outer value.
            parent, it = _expand(rows, trips_out[rows])
            child = {var: column[parent] for var, column in env.items()}
            child[loop.var] = out_lo[parent] + it * loop.step
            table = self._loop_table(
                inner, child, np.arange(len(parent), dtype=np.int64),
                in_lo[parent], trips_in[parent], core,
            )
            if len(table):
                table[:, _ROW] = parent[table[:, _ROW]]
            parts.append(table)
        return _merge(parts)

    def _leaf_table(self, stmt: Stmt, env, n: int, core: int) -> np.ndarray:
        """A leaf outside any innermost loop (rare: scalar setup code)."""
        entry = self._leaf_plans.get(id(stmt))
        if entry is None:
            refs, counts = _leaf_plan(stmt)
            entry = self._leaf_plans[id(stmt)] = (self._columns(refs, None), counts)
        cols, counts = entry
        work = self.work[core]
        work.scalar = work.scalar + counts * n
        if not len(cols.prov):
            return _EMPTY
        return cols.table(core, env, np.arange(n, dtype=np.int64), 0, 0, 1)


def _leaf_plan(stmt: Stmt) -> Tuple[List[_RefPlan], OpCounts]:
    """Accesses (all ``ref -1``, point segments) and op counts of one
    execution of a leaf statement outside any innermost loop."""
    if not isinstance(stmt, (LocalAssign, Store)):
        raise SimulationError(f"unknown leaf statement {stmt!r}")
    refs = [
        _RefPlan(-1, load.array, False, load.array.linearize(load.indices), "", stmt)
        for load in loads_in(stmt.value)
        if load.array.scope != "register"
    ]
    counts = count_expr(stmt.value)
    if isinstance(stmt, Store):
        if stmt.array.scope == "register":
            if stmt.accumulate:
                counts.flops += 1
        else:
            offset = stmt.array.linearize(stmt.indices)
            counts.stores += 1
            counts.bytes_stored += stmt.array.dtype.size
            if stmt.accumulate:
                refs.append(_RefPlan(-1, stmt.array, False, offset, "", stmt))
                counts.loads += 1
                counts.bytes_loaded += stmt.array.dtype.size
                counts.flops += 1
            refs.append(_RefPlan(-1, stmt.array, True, offset, "", stmt))
    return refs, counts
