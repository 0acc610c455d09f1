"""Closed-form summation of polynomial per-iteration quantities.

Counting operations in a triangular loop nest (the transposition kernels
iterate ``j in [i+1, N)``) naively costs one Python iteration per loop
trip.  Because every bound in the IR is affine, per-iteration counts are
polynomials in the loop variable, so the sum over the loop has a closed
form.  We recover it numerically with Newton forward differences:

    sum_{t=0}^{T-1} p(t) = sum_k  d_k * C(T, k+1)

where ``d_k`` are the forward differences of ``p`` at 0.  The fit is
validated against extra sample points; if the quantity is *not* polynomial
(it never is for valid IR, but a buggy caller might), we fall back to brute
force so the result is always exact.
"""

from __future__ import annotations

from math import comb, inf
from typing import Callable, Dict

MAX_DEGREE = 4


def newton_sum(samples, trips: int) -> int:
    """Sum of the degree-(len(samples)-1) polynomial through ``samples``
    evaluated at t = 0 .. trips-1.

    ``samples`` are the polynomial's values at t = 0, 1, 2, ...
    """
    diffs = list(samples)
    total = 0
    for order in range(len(samples)):
        total += diffs[0] * comb(trips, order + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    return total


def sum_over_range(fn: Callable[[int], int], lo: int, hi: int, step: int = 1) -> int:
    """Exact ``sum(fn(v) for v in range(lo, hi, step))``, in O(degree) calls
    to ``fn`` when ``fn`` is polynomial of degree <= MAX_DEGREE.
    """
    return capped_sum_over_range(fn, lo, hi, step, inf)


def capped_sum_over_range(
    fn: Callable[[int], int], lo: int, hi: int, step: int, cap: float
) -> int:
    """:func:`sum_over_range` of a non-negative ``fn`` that gives up early.

    Exact when the sum is at most ``cap``; otherwise it returns as soon as
    the running total of evaluated terms passes ``cap``, with that partial
    total (so any result above ``cap`` only says "more than ``cap``").
    Every ``fn`` value is computed once: the brute-force fallback re-uses
    the probes of the failed fit.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi <= lo:
        return 0
    trips = (hi - lo + step - 1) // step
    memo: Dict[int, int] = {}

    def at(t: int) -> int:
        value = memo.get(t)
        if value is None:
            value = memo[t] = fn(lo + t * step)
        return value

    probe = min(trips, MAX_DEGREE + 2)
    total = 0
    for t in range(probe):
        total += at(t)
        if total > cap:
            return total
    if trips == probe:
        return total
    # Fit on the first MAX_DEGREE+1 samples; the extra sample and the very
    # last iteration validate the polynomial hypothesis.
    diffs = _forward_diffs([at(t) for t in range(MAX_DEGREE + 1)])
    last_t = trips - 1
    if (
        _eval_diffs(diffs, MAX_DEGREE + 1) == at(MAX_DEGREE + 1)
        and _eval_diffs(diffs, last_t) == at(last_t)
    ):
        total = diffs[0] * trips
        c = trips
        for k in range(1, len(diffs)):
            c = c * (trips - k) // (k + 1)
            total = total + diffs[k] * c
        return total
    for t in range(probe, trips):
        total += at(t)
        if total > cap:
            break
    return total


def polynomial_map(fn: Callable[[int], int], values) -> list:
    """Exact ``[fn(v) for v in values]`` in O(degree) calls to ``fn`` when
    ``values`` is an arithmetic progression and ``fn`` is polynomial of
    degree <= MAX_DEGREE.

    The fit is validated the same way as :func:`sum_over_range` (one extra
    probe plus the last point); any mismatch — or a non-progression input —
    falls back to brute-force evaluation, so the result is always exact.
    The dynamic-schedule simulator uses this to cost every chunk of a
    triangular loop with a handful of evaluations instead of one per
    iteration.
    """
    n = len(values)
    if n <= MAX_DEGREE + 2:
        return [fn(v) for v in values]
    step = values[1] - values[0]
    if any(values[i + 1] - values[i] != step for i in range(n - 1)):
        return [fn(v) for v in values]
    samples = [fn(values[t]) for t in range(MAX_DEGREE + 2)]
    fit = samples[: MAX_DEGREE + 1]
    last_t = n - 1
    last = fn(values[last_t])
    diffs = _forward_diffs(fit)
    if (
        _eval_diffs(diffs, MAX_DEGREE + 1) != samples[MAX_DEGREE + 1]
        or _eval_diffs(diffs, last_t) != last
    ):
        return samples + [fn(values[t]) for t in range(MAX_DEGREE + 2, n)]
    return (
        samples
        + [_eval_diffs(diffs, t) for t in range(MAX_DEGREE + 2, last_t)]
        + [last]
    )


def _forward_diffs(samples) -> list:
    """Leading forward differences ``[p(0), Δp(0), Δ²p(0), ...]``."""
    out = []
    row = list(samples)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _eval_diffs(diffs, t: int):
    """Evaluate the Newton polynomial from precomputed differences at
    integer ``t`` — the per-point cost when the same fit is evaluated
    many times (``comb(t, k)`` built by the integer recurrence)."""
    total = diffs[0]
    c = 1
    for k in range(1, len(diffs)):
        c = c * (t - k + 1) // k
        total = total + diffs[k] * c
    return total


def _newton_eval(samples, t: int) -> int:
    """Evaluate the Newton forward-difference polynomial at integer ``t``."""
    diffs = list(samples)
    value = 0
    for order in range(len(samples)):
        value += diffs[0] * comb(t, order)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    return value
