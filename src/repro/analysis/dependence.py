"""Data-dependence testing and transformation-legality certification.

Three complementary mechanisms:

* **Fast conservative tests** on affine subscript pairs (ZIV and GCD tests)
  that can *disprove* a dependence without enumerating iterations.
* **Symbolic certification** (primary): exact distance/direction vectors
  from :mod:`repro.analysis.lint.symbolic` — Banerjee bounds plus a small
  integer solver — giving size-generic proofs whose cost is independent of
  the iteration space.
* **Concrete enumeration** (cross-check oracle): exhaustively execute the
  iteration space, recording which iteration of a candidate parallel loop
  touches which elements.  Exact but budget-limited.  The budget is
  decided in closed form *before* any walk: :func:`access_count` sums the
  accesses the walk would record over the affine loop bounds, in a cost
  that does not grow with the iteration space, and stops once the total
  passes the budget.  When the space exceeds the budget the oracle is
  *skipped* (the symbolic proof stands on its own) rather than failing
  the certification; otherwise the walk runs, visiting only the
  candidate loop and the loops enclosing it.

The transform passes call :func:`certify_parallel` /
:func:`certify_interchange`; see ``tests/test_dependence.py`` and the
symbolic-vs-enumeration property tests in ``tests/test_symbolic.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.summation import capped_sum_over_range
from repro.errors import AnalysisError
from repro.ir.affine import Affine
from repro.ir.expr import loads_in
from repro.ir.program import Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, find_loop, loops_in

MAX_CERTIFY_POINTS = 2_000_000


class EnumerationBudgetError(AnalysisError):
    """The concrete oracle's iteration space exceeded its access budget.

    Direct callers of :func:`loop_conflicts` still see an
    :class:`AnalysisError`; the certification entry points catch this
    subclass and downgrade the oracle to "skipped"."""


@dataclass(frozen=True)
class Access:
    """One dynamic array access: which element, read or write, and the
    value of the candidate loop variable when it happened.  ``outer``
    holds the values of the loops *enclosing* the candidate: iterations
    from different outer values run in different parallel regions, with
    an implicit barrier between them, so only accesses with equal
    ``outer`` can race."""

    array: str
    element: Tuple[int, ...]
    is_write: bool
    loop_value: int
    sequence: int  # program order
    outer: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Conflict:
    """A loop-carried dependence that forbids parallelization."""

    array: str
    element: Tuple[int, ...]
    first: Access
    second: Access

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.array}{list(self.element)} touched by iterations "
            f"{self.first.loop_value} and {self.second.loop_value} "
            f"(write involved)"
        )


# ---------------------------------------------------------------------------
# Conservative affine tests
# ---------------------------------------------------------------------------

def ziv_independent(a: Affine, b: Affine) -> bool:
    """Zero-Index-Variable test: constants that differ can never alias."""
    return a.is_constant and b.is_constant and a.const != b.const


def gcd_independent(a: Affine, b: Affine) -> bool:
    """GCD test on ``a(i...) == b(j...)`` over integer unknowns.

    If gcd of all coefficients does not divide the constant difference, the
    Diophantine equation has no solution and the references are independent.
    """
    coeffs: List[int] = []
    for var in a.variables | b.variables:
        # Treat the two iteration vectors as distinct unknowns.
        ca = a.coefficient(var)
        cb = b.coefficient(var)
        if ca:
            coeffs.append(ca)
        if cb:
            coeffs.append(cb)
    diff = b.const - a.const
    if not coeffs:
        return diff != 0
    divisor = 0
    for c in coeffs:
        divisor = math.gcd(divisor, abs(c))
    return divisor != 0 and diff % divisor != 0


def may_alias(a_indices, b_indices) -> bool:
    """Conservative may-alias over per-dimension subscripts."""
    for a, b in zip(a_indices, b_indices):
        if ziv_independent(a, b) or gcd_independent(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# Concrete certification
# ---------------------------------------------------------------------------

def _path_to_loop(stmt: Stmt, var: str) -> Optional[Tuple[Stmt, ...]]:
    """The statements from ``stmt`` down to the loop named ``var``
    (inclusive, outside-in), or ``None`` if no such loop exists."""
    if isinstance(stmt, For) and stmt.var == var:
        return (stmt,)
    if isinstance(stmt, Block):
        children: Tuple[Stmt, ...] = stmt.stmts
    elif isinstance(stmt, For):
        children = (stmt.body,)
    else:
        return None
    for child in children:
        found = _path_to_loop(child, var)
        if found is not None:
            return (stmt,) + found
    return None


class _Scope:
    """What the walker and the counter visit for one candidate loop.

    Outside the candidate loop only the loops on the path down to it
    matter: every other statement there runs outside the parallel region,
    separated from its iterations by the implicit barrier, so it cannot
    race, and no loop off the path encloses the candidate.  With no
    candidate (``var is None``) the whole program is in scope."""

    def __init__(self, program: Program, var: Optional[str]):
        self.var = var
        path = (_path_to_loop(program.body, var) or ()) if var is not None else ()
        self.on_path = frozenset(path)
        self.enclosing = tuple(s.var for s in path[:-1] if isinstance(s, For))
        self._loads: Dict[Stmt, tuple] = {}
        self._varies: Dict[For, bool] = {}

    def reaches(self, stmt: Stmt, env: Dict[str, int]) -> bool:
        """Whether ``stmt``, run under ``env``, is inside the candidate
        loop or on the path to it."""
        return self.var is None or self.var in env or stmt in self.on_path

    def global_loads(self, stmt: Stmt) -> tuple:
        """Loads of ``stmt`` the oracle records.  Thread-local scratch is
        privatized per OpenMP thread; cross-iteration sharing is a
        scheduling artifact, not a data dependence (see
        kernels.transpose.manual_blocking)."""
        loads = self._loads.get(stmt)
        if loads is None:
            loads = self._loads[stmt] = tuple(
                load for load in loads_in(stmt.value) if load.array.scope == "global"
            )
        return loads

    def leaf_accesses(self, stmt: Stmt) -> int:
        """Counter increments of one execution of a ``Store`` /
        ``LocalAssign``: one per global load, plus one for a global store
        (also when it accumulates)."""
        stored = isinstance(stmt, Store) and stmt.array.scope == "global"
        return len(self.global_loads(stmt)) + stored

    def trips_vary(self, loop: For) -> bool:
        """Whether the body's iteration count depends on ``loop.var``
        (subscripts never change a count; only nested loop bounds do)."""
        varies = self._varies.get(loop)
        if varies is None:
            varies = self._varies[loop] = any(
                loop.var in inner.lo.variables or loop.var in inner.hi.variables
                for inner in loops_in(loop.body)
            )
        return varies


def _accesses(
    stmt: Stmt,
    env: Dict[str, int],
    scope: _Scope,
    out: List[Access],
    counter: List[int],
) -> None:
    if not scope.reaches(stmt, env):
        return
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _accesses(child, env, scope, out, counter)
        return
    if isinstance(stmt, For):
        for value in stmt.iter_values(env):
            env[stmt.var] = value
            _accesses(stmt.body, env, scope, out, counter)
        env.pop(stmt.var, None)
        return
    if isinstance(stmt, (Store, LocalAssign)):
        loop_value = env.get(scope.var, 0) if scope.var is not None else 0
        outer = tuple(env[v] for v in scope.enclosing)
        for load in scope.global_loads(stmt):
            counter[0] += 1
            out.append(
                Access(
                    load.array.name,
                    tuple(ix.evaluate(env) for ix in load.indices),
                    False,
                    loop_value,
                    counter[0],
                    outer,
                )
            )
        if isinstance(stmt, Store) and stmt.array.scope == "global":
            counter[0] += 1
            element = tuple(ix.evaluate(env) for ix in stmt.indices)
            if stmt.accumulate:
                out.append(Access(stmt.array.name, element, False, loop_value, counter[0], outer))
            out.append(Access(stmt.array.name, element, True, loop_value, counter[0], outer))
        return
    raise AnalysisError(f"unknown statement {stmt!r}")


def _walk(program: Program, var: Optional[str]) -> List[Access]:
    """Every access the oracle records, in program order."""
    accesses: List[Access] = []
    _accesses(program.body, {}, _Scope(program, var), accesses, [0])
    return accesses


def access_count(program: Program, var: Optional[str] = None, cap: float = math.inf) -> int:
    """How many accesses the oracle's walk of ``program`` would count for
    candidate loop ``var`` (``None``: the whole program, as
    :func:`execution_order_signature` walks it) — without walking.

    Exact when the count is at most ``cap``; otherwise it stops as soon as
    the running total passes ``cap`` and returns that partial total.  A
    loop whose body's trip counts ignore its variable costs one body
    count times its trips; any other loop is summed in closed form
    (:func:`~repro.analysis.summation.capped_sum_over_range`), so the cost
    does not grow with the iteration space.
    """
    scope = _Scope(program, var)

    def count(stmt: Stmt, env: Dict[str, int]) -> int:
        if not scope.reaches(stmt, env):
            return 0
        if isinstance(stmt, Block):
            total = 0
            for child in stmt.stmts:
                total += count(child, env)
                if total > cap:
                    break
            return total
        if isinstance(stmt, For):
            lo, hi = stmt.lo.evaluate(env), stmt.hi.evaluate(env)

            def body_at(value: int) -> int:
                return count(stmt.body, {**env, stmt.var: value})

            if scope.trips_vary(stmt):
                return capped_sum_over_range(body_at, lo, hi, stmt.step, cap)
            trips = stmt.trip_count(env)
            return trips * body_at(lo) if trips else 0
        if isinstance(stmt, (Store, LocalAssign)):
            return scope.leaf_accesses(stmt)
        raise AnalysisError(f"unknown statement {stmt!r}")

    return count(program.body, {})


def _check_budget(program: Program, var: Optional[str], budget: int) -> None:
    """Raise :class:`EnumerationBudgetError` unless the walk fits ``budget``."""
    if access_count(program, var, budget) > budget:
        raise EnumerationBudgetError(
            f"iteration space too large to certify (> {budget} accesses); "
            "certify at a smaller size of the same kernel family"
        )


def loop_conflicts(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> List[Conflict]:
    """All cross-iteration conflicts that forbid parallelizing loop ``var``.

    A conflict is two accesses to the same element from different values of
    ``var`` — at the *same* values of every enclosing loop, since distinct
    outer iterations open distinct parallel regions separated by the
    implicit barrier — where at least one access is a write.  Raises
    :class:`EnumerationBudgetError` before walking anything when the walk
    would count more than ``budget`` accesses.
    """
    find_loop(program.body, var)  # raises if the loop does not exist
    _check_budget(program, var, budget)

    conflicts: List[Conflict] = []
    by_element: Dict[Tuple[str, Tuple[int, ...]], List[Access]] = {}
    for access in _walk(program, var):
        by_element.setdefault((access.array, access.element), []).append(access)
    for (array, element), hits in by_element.items():
        if len(hits) < 2:
            continue
        for first, second in itertools.combinations(hits, 2):
            if first.loop_value == second.loop_value or first.outer != second.outer:
                continue
            if first.is_write or second.is_write:
                conflicts.append(Conflict(array, element, first, second))
                break  # one conflict per element is enough evidence
    return conflicts


def enumeration_oracle(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> Optional[List[Conflict]]:
    """Concrete cross-check: the conflict list, or ``None`` when the
    iteration space exceeds ``budget`` (oracle skipped, not an error)."""
    try:
        return loop_conflicts(program, var, budget)
    except EnumerationBudgetError:
        return None


def certify_parallel(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> Optional[str]:
    """Prove parallelizing ``var`` legal; raise :class:`AnalysisError` if not.

    The symbolic engine is the primary proof (size-generic).  Concrete
    enumeration then cross-checks it when the iteration space fits the
    budget; over budget it is skipped and the skip is reported in the
    return value (``None`` means fully cross-checked).
    """
    from repro.analysis.lint.symbolic import certify_parallel_symbolic

    certify_parallel_symbolic(program, var)
    oracle = enumeration_oracle(program, var, budget)
    if oracle is None:
        return (
            f"enumeration oracle skipped for loop {var!r}: iteration space "
            f"exceeds the {budget}-access budget (symbolic proof stands alone)"
        )
    if oracle:
        sample = "; ".join(str(c) for c in oracle[:3])
        raise AnalysisError(
            f"internal analysis disagreement on loop {var!r} of "
            f"{program.name!r}: the symbolic engine certified it parallel but "
            f"enumeration found conflicts: {sample}"
        )
    return None


def execution_order_signature(
    program: Program, budget: int = MAX_CERTIFY_POINTS
) -> List[Tuple[str, Tuple[int, ...], bool]]:
    """The sequence of (array, element, is_write) touches of a program.

    Interchange is legal iff the *set* of reads-before-writes relations per
    element is preserved; for certification we compare the per-element
    write sequences and final values instead (see certify_interchange).
    """
    _check_budget(program, None, budget)
    return _signature(program)


def _signature(program: Program) -> List[Tuple[str, Tuple[int, ...], bool]]:
    return [(a.array, a.element, a.is_write) for a in _walk(program, None)]


def certify_interchange(
    original: Program, transformed: Program, budget: int = MAX_CERTIFY_POINTS
) -> Optional[str]:
    """Certify an interchange/tiling by comparing per-element access
    multisets (same elements read and written the same number of times).

    This is a necessary condition; combined with the interpreter-equality
    tests in the kernel test-suites (bitwise equal outputs) it gives strong
    evidence of semantic preservation.  Over-budget iteration spaces skip
    the comparison and report it in the return value instead of raising —
    the symbolic direction-vector proof
    (:func:`repro.analysis.lint.symbolic.certify_interchange_symbolic`)
    is the primary legality argument.
    """
    from collections import Counter

    try:
        _check_budget(original, None, budget)
        _check_budget(transformed, None, budget)
    except EnumerationBudgetError:
        return (
            f"enumeration oracle skipped for {original.name!r}: iteration "
            f"space exceeds the {budget}-access budget"
        )
    before = _signature(original)
    after = _signature(transformed)
    if Counter(before) != Counter(after):
        missing = Counter(before) - Counter(after)
        extra = Counter(after) - Counter(before)
        raise AnalysisError(
            f"transformation changed the access multiset: missing={list(missing)[:3]} "
            f"extra={list(extra)[:3]}"
        )
    return None
