"""Per-segment reference walker: the oracle for columnar trace generation.

:class:`OracleTraceGenerator` walks a program's loop nest one innermost
loop execution at a time and yields one :class:`~repro.exec.trace.Segment`
per array reference, assigning reference ids lazily in emission order.
It is the recursive walker :mod:`repro.exec.tracegen` used before it
generated column batches, kept here (test code only) so the columnar
generator has an independent implementation to be diffed against:
segments, reference ids, the ``references()`` table and ``CoreWork``
must all match exactly.

The dynamic schedule is costed with :func:`oracle_iteration_cost`, the
symbolic per-iteration count that decides loop-variable dependence by
scanning the whole subtree (array indices included), so the oracle also
checks that :func:`repro.analysis.opcount.iteration_cost` still yields
the same schedules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.opcount import (
    OpCounts,
    _field_tuple,
    _sum_counts_over_range,
    count_expr,
)
from repro.analysis.summation import polynomial_map
from repro.errors import SimulationError
from repro.exec.trace import CoreWork, RefInfo, Segment
from repro.exec.tracegen import _LoopPlan, _PairPlan, split_dynamic, split_static
from repro.ir.expr import IndexValue, Load, loads_in, walk_expr
from repro.ir.program import MemoryLayout, Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, walk_stmts


def _subtree_uses(stmt: Stmt, var: str) -> bool:
    for node in walk_stmts(stmt):
        if isinstance(node, For):
            if var in node.lo.variables or var in node.hi.variables:
                return True
        if isinstance(node, Store):
            if any(var in ix.variables for ix in node.indices):
                return True
        if hasattr(node, "value"):
            for sub in walk_expr(node.value):
                if isinstance(sub, Load) and any(var in ix.variables for ix in sub.indices):
                    return True
                if isinstance(sub, IndexValue) and var in sub.affine.variables:
                    return True
    return False


def _count_stmt(stmt: Stmt, env: Dict[str, int]) -> OpCounts:
    if isinstance(stmt, Block):
        total = OpCounts()
        for child in stmt.stmts:
            total = total + _count_stmt(child, env)
        return total
    if isinstance(stmt, For):
        lo = stmt.lo.evaluate(env)
        hi = stmt.hi.evaluate(env)
        if not _subtree_uses(stmt.body, stmt.var):
            trips = stmt.trip_count(env)
            if trips == 0:
                return OpCounts()
            per_iter = _count_stmt(stmt.body, {**env, stmt.var: lo})
            per_iter.int_ops += 1
            return per_iter * trips
        memo: Dict[int, tuple] = {}

        def counts_at(value: int) -> tuple:
            if value not in memo:
                memo[value] = _field_tuple(_count_stmt(stmt.body, {**env, stmt.var: value}))
            return memo[value]

        total = _sum_counts_over_range(counts_at, lo, hi, stmt.step)
        total.int_ops += stmt.trip_count(env)
        return total
    if isinstance(stmt, Store):
        counts = count_expr(stmt.value)
        counts.iterations += 1
        if stmt.array.scope == "register":
            if stmt.accumulate:
                counts.flops += 1
            return counts
        counts.stores += 1
        counts.bytes_stored += stmt.array.dtype.size
        if stmt.accumulate:
            counts.loads += 1
            counts.bytes_loaded += stmt.array.dtype.size
            counts.flops += 1
        return counts
    if isinstance(stmt, LocalAssign):
        counts = count_expr(stmt.value)
        if stmt.accumulate:
            counts.flops += 1
        return counts
    raise SimulationError(f"cannot count unknown statement {stmt!r}")


def oracle_iteration_cost(loop: For, value: int, env: Dict[str, int]) -> int:
    counts = _count_stmt(loop.body, {**env, loop.var: value})
    return counts.flops + counts.loads + counts.stores + counts.int_ops + 1


class OracleTraceGenerator:
    """Same contract as :class:`repro.exec.tracegen.TraceGenerator`
    (``core_stream``, ``work``, ``references``), one segment at a time."""

    def __init__(self, program: Program, num_cores: int = 1, layout: Optional[MemoryLayout] = None):
        self.program = program
        self.num_cores = max(1, int(num_cores))
        self.layout = layout or MemoryLayout(program, num_threads=self.num_cores)
        self._plans: Dict[int, _LoopPlan] = {}
        self._trip_acc: Dict[int, list] = {}
        self._pair_plans: Dict[int, Optional[_PairPlan]] = {}
        self._next_ref = 0
        self._stmt_ids: Dict[int, int] = {}
        self._loop_depths: Dict[int, int] = {}
        self._index_statements(program.body, 0)
        self.ref_info: Dict[int, RefInfo] = {-1: RefInfo(-1, "(setup)", False, 0, -1, "", 0)}
        self._assignments: Dict[tuple, List[List[int]]] = {}
        self.work: List[CoreWork] = [CoreWork() for _ in range(self.num_cores)]
        self._bases = [
            {arr.name: self.layout.address_of(arr, core) for arr in program.arrays if arr.scope != "register"}
            for core in range(self.num_cores)
        ]

    def _index_statements(self, stmt: Stmt, depth: int) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._index_statements(child, depth)
        elif isinstance(stmt, For):
            self._loop_depths[id(stmt)] = depth
            self._index_statements(stmt.body, depth + 1)
        else:
            self._stmt_ids[id(stmt)] = len(self._stmt_ids)

    def _register(self, refs, loop: For) -> None:
        for ref in refs:
            ref.ref_id = self._next_ref
            self._next_ref += 1
            self.ref_info[ref.ref_id] = RefInfo(
                ref.ref_id, ref.array.name, ref.is_write, ref.elem_size,
                self._stmt_ids.get(id(ref.stmt), -1), loop.var,
                self._loop_depths.get(id(loop), -1) + 1,
            )

    def references(self) -> Dict[int, RefInfo]:
        return dict(self.ref_info)

    def core_stream(self, core: int):
        if not 0 <= core < self.num_cores:
            raise SimulationError(f"core {core} out of range 0..{self.num_cores - 1}")
        self.work[core] = CoreWork()
        self._trip_acc = {}
        yield from self._walk(self.program.body, {}, core, in_parallel=False)
        work = self.work[core]
        for plan, trips in self._trip_acc.values():
            if plan.vectorized:
                work.vector = work.vector + plan.per_iter * trips
            else:
                work.scalar = work.scalar + plan.per_iter * trips

    def _walk(self, stmt: Stmt, env: Dict[str, int], core: int, in_parallel: bool):
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                yield from self._walk(child, env, core, in_parallel)
            return
        if isinstance(stmt, For):
            if not any(isinstance(s, For) for s in walk_stmts(stmt.body)):
                if stmt.parallel and not in_parallel:
                    yield from self._emit_values(stmt, env, core, self._assigned(stmt, env)[core])
                elif in_parallel or core == 0:
                    yield from self._emit_innermost(stmt, env, core)
                return
            if stmt.parallel and not in_parallel:
                for value in self._assigned(stmt, env)[core]:
                    env[stmt.var] = value
                    yield from self._walk(stmt.body, env, core, True)
                env.pop(stmt.var, None)
                return
            contains_parallel = any(isinstance(n, For) and n.parallel for n in walk_stmts(stmt))
            if not in_parallel and core != 0 and not contains_parallel:
                return
            pair = self._pair(stmt)
            if pair is not None:
                yield from self._emit_pair(stmt, pair, env, core)
                return
            for value in stmt.iter_values(env):
                env[stmt.var] = value
                yield from self._walk(stmt.body, env, core, in_parallel)
            env.pop(stmt.var, None)
            return
        if in_parallel or core == 0:
            yield from self._emit_leaf(stmt, env, core)

    def _assigned(self, loop: For, env: Dict[str, int]) -> List[List[int]]:
        key = (id(loop), tuple(sorted(env.items())))
        if key not in self._assignments:
            values = list(loop.iter_values(env))
            if loop.schedule == "dynamic":
                frozen = dict(env)
                costs = polynomial_map(lambda v: oracle_iteration_cost(loop, v, frozen), values)
                table = dict(zip(values, costs))
                self._assignments[key] = split_dynamic(values, self.num_cores, loop.chunk or 1, table.__getitem__)
            else:
                self._assignments[key] = split_static(values, self.num_cores, loop.chunk)
        return self._assignments[key]

    def _plan(self, loop: For) -> _LoopPlan:
        if id(loop) not in self._plans:
            plan = _LoopPlan(loop)
            self._register(plan.refs, loop)
            self._plans[id(loop)] = plan
        return self._plans[id(loop)]

    def _pair(self, loop: For) -> Optional[_PairPlan]:
        if id(loop) not in self._pair_plans:
            plan = _PairPlan.try_build(loop)
            if plan is not None:
                self._register(plan.refs, plan.inner)
            self._pair_plans[id(loop)] = plan
        return self._pair_plans[id(loop)]

    def _emit_pair(self, loop: For, pair: _PairPlan, env: Dict[str, int], core: int):
        inner = pair.inner
        out_lo, out_hi = loop.lo.evaluate(env), loop.hi.evaluate(env)
        if out_hi <= out_lo:
            return
        trips_out = (out_hi - out_lo + loop.step - 1) // loop.step
        in_lo, in_hi = inner.lo.evaluate(env), inner.hi.evaluate(env)
        if in_hi <= in_lo:
            return
        trips_in = (in_hi - in_lo + inner.step - 1) // inner.step
        plans: Optional[List[Tuple]] = []
        for ref in pair.refs:
            stride_in = ref.coeff_in * inner.step
            stride_out = ref.coeff_out * loop.step
            if stride_in == 0 and stride_out == 0:
                plans.append((ref, 0, 1))
            elif stride_in == 0:
                plans.append((ref, stride_out, trips_out))
            elif stride_out == 0:
                plans.append((ref, stride_in, trips_in))
            elif stride_out == stride_in * trips_in:
                plans.append((ref, stride_in, trips_in * trips_out))
            else:
                plans = None
                break
        if plans is None:
            for value in range(out_lo, out_hi, loop.step):
                env[loop.var] = value
                yield from self._emit_innermost(inner, env, core)
            env.pop(loop.var, None)
            return
        work = self.work[core]
        counts = pair.per_iter * (trips_in * trips_out)
        counts.int_ops += trips_out
        if pair.vectorized:
            work.vector = work.vector + counts
        else:
            work.scalar = work.scalar + counts
        bases = self._bases[core]
        for ref, stride, count in plans:
            base = bases[ref.array.name] + ref.const + ref.coeff_out * out_lo + ref.coeff_in * in_lo
            for var, coeff in ref.terms:
                base += coeff * env[var]
            work.segments += 1
            yield Segment(ref.ref_id, base, stride, count, ref.is_write, ref.elem_size)

    def _emit_innermost(self, loop: For, env: Dict[str, int], core: int):
        lo, hi = loop.lo.evaluate(env), loop.hi.evaluate(env)
        if hi > lo:
            yield from self._emit_plan(loop, env, core, lo, (hi - lo + loop.step - 1) // loop.step)

    def _emit_values(self, loop: For, env: Dict[str, int], core: int, values: List[int]):
        if not values:
            return
        start, length = values[0], 1
        for value in values[1:]:
            if value == start + length * loop.step:
                length += 1
                continue
            yield from self._emit_plan(loop, env, core, start, length)
            start, length = value, 1
        yield from self._emit_plan(loop, env, core, start, length)

    def _emit_plan(self, loop: For, env: Dict[str, int], core: int, lo: int, trips: int):
        plan = self._plan(loop)
        acc = self._trip_acc.setdefault(id(plan), [plan, 0])
        acc[1] += trips
        bases = self._bases[core]
        work = self.work[core]
        for ref in plan.refs:
            base = bases[ref.array.name] + ref.const + ref.coeff * lo
            for var, coeff in ref.terms:
                base += coeff * env[var]
            stride = ref.coeff * loop.step
            work.segments += 1
            if stride == 0:
                yield Segment(ref.ref_id, base, 0, 1, ref.is_write, ref.elem_size)
            else:
                yield Segment(ref.ref_id, base, stride, trips, ref.is_write, ref.elem_size)

    def _emit_leaf(self, stmt: Stmt, env: Dict[str, int], core: int):
        bases = self._bases[core]
        work = self.work[core]

        def one(array, indices, is_write: bool) -> Segment:
            offset = array.linearize(indices).evaluate(env)
            work.segments += 1
            return Segment(-1, bases[array.name] + offset * array.dtype.size, 0, 1, is_write, array.dtype.size)

        for load in loads_in(stmt.value):
            if load.array.scope != "register":
                yield one(load.array, load.indices, False)
        counts = count_expr(stmt.value)
        if isinstance(stmt, Store):
            if stmt.array.scope == "register":
                if stmt.accumulate:
                    counts.flops += 1
            else:
                counts.stores += 1
                counts.bytes_stored += stmt.array.dtype.size
                if stmt.accumulate:
                    yield one(stmt.array, stmt.indices, False)
                    counts.loads += 1
                    counts.bytes_loaded += stmt.array.dtype.size
                    counts.flops += 1
                yield one(stmt.array, stmt.indices, True)
        elif not isinstance(stmt, LocalAssign):
            raise SimulationError(f"unknown leaf statement {stmt!r}")
        work.scalar = work.scalar + counts
