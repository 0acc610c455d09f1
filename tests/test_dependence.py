"""Tests for dependence analysis and legality certification."""

import pytest

from repro.analysis import (
    certify_interchange,
    certify_parallel,
    gcd_independent,
    loop_conflicts,
    may_alias,
    ziv_independent,
)
from repro.analysis.dependence import _walk, access_count, enumeration_oracle
from repro.errors import AnalysisError
from repro.ir import Affine, DType, LoopBuilder

from tests.conftest import transpose_program, triad_program


class TestConservativeTests:
    def test_ziv(self):
        assert ziv_independent(Affine(3), Affine(5))
        assert not ziv_independent(Affine(3), Affine(3))
        assert not ziv_independent(Affine.var("i"), Affine(3))

    def test_gcd_disproves(self):
        # 2i and 2j+1 can never be equal.
        assert gcd_independent(Affine.var("i") * 2, Affine.var("j") * 2 + 1)

    def test_gcd_cannot_disprove_unit_coefficients(self):
        assert not gcd_independent(Affine.var("i"), Affine.var("j") + 1)

    def test_may_alias(self):
        a = [Affine.var("i") * 2]
        b = [Affine.var("j") * 2 + 1]
        assert not may_alias(a, b)
        assert may_alias([Affine.var("i")], [Affine.var("j")])


def _scan_program(n):
    """a[i] = a[i-1] + 1: a genuinely sequential loop."""
    b = LoopBuilder("scan")
    a = b.array("a", DType.F64, (n,))
    with b.loop("i", 1, n) as i:
        b.store(a, i, a[i - 1] + 1.0)
    return b.build()


class TestConcreteCertification:
    def test_triad_parallel_legal(self):
        certify_parallel(triad_program(64), "i")

    def test_scan_parallel_illegal(self):
        with pytest.raises(AnalysisError, match="carries dependences"):
            certify_parallel(_scan_program(32), "i")

    def test_scan_conflicts_identify_elements(self):
        conflicts = loop_conflicts(_scan_program(16), "i")
        assert conflicts
        assert all(c.array == "a" for c in conflicts)

    def test_transpose_outer_parallel_legal(self):
        certify_parallel(transpose_program(24), "i")

    def test_all_paper_parallel_schedules_legal(self):
        from repro.kernels import blur, transpose

        certify_parallel(transpose.parallel(16), "i")
        certify_parallel(transpose.blocking(16, block=4), "i_blk")
        certify_parallel(transpose.manual_blocking(16, block=4), "i_blk")
        certify_parallel(transpose.dynamic(16, block=4), "i_blk")
        certify_parallel(blur.parallel(12, 10, 3), "i")
        certify_parallel(blur.parallel(12, 10, 3), "i2")

    def test_budget_exceeded_enumeration_still_raises(self):
        # Direct enumeration keeps its hard budget...
        with pytest.raises(AnalysisError, match="too large"):
            loop_conflicts(triad_program(1024), "i", budget=100)

    def test_budget_exceeded_downgrades_to_skipped_oracle(self):
        # ...but certification is symbolic-first: blowing the oracle budget
        # only skips the cross-check (reported in the return value).
        note = certify_parallel(triad_program(1024), "i", budget=100)
        assert note is not None and "skipped" in note

    def test_oracle_runs_clean_within_budget(self):
        assert certify_parallel(triad_program(64), "i") is None

    def test_enumeration_oracle_none_on_overflow(self):
        assert enumeration_oracle(triad_program(1024), "i", budget=100) is None
        assert enumeration_oracle(triad_program(16), "i") == []

    def test_reduction_into_array_conflicts(self):
        b = LoopBuilder("reduce")
        a = b.array("a", DType.F64, (8,))
        out = b.array("out", DType.F64, (1,))
        with b.loop("i", 0, 8) as i:
            b.accumulate(out, 0, a[i])
        with pytest.raises(AnalysisError):
            certify_parallel(b.build(), "i")


class TestInterchangeCertification:
    def test_tiling_preserves_accesses(self):
        from repro.transforms import TileTriangular2D, apply_passes

        original = transpose_program(16)
        tiled = apply_passes(original, [TileTriangular2D("i", "j", 4)])
        certify_interchange(original, tiled)

    def test_strip_mine_preserves_accesses(self):
        from repro.transforms import StripMine, apply_passes

        original = triad_program(37)  # deliberately not a multiple
        mined = apply_passes(original, [StripMine("i", 8)])
        certify_interchange(original, mined)

    def test_detects_changed_access_multiset(self):
        small = triad_program(16)
        big = triad_program(17)
        with pytest.raises(AnalysisError, match="multiset"):
            certify_interchange(small, big)


# -- closed-form budget ---------------------------------------------------------


def _walked(program, var):
    """The walker's final counter: the sequence number of its last access."""
    accesses = _walk(program, var)
    return accesses[-1].sequence if accesses else 0


def _count_cases():
    """(id, program factory, candidate loop) for the count-vs-walker check."""
    from repro.kernels import blur, scan, stream, transpose

    loops = {"Naive": ("i",), "Parallel": ("i",), "Blocking": ("i_blk", "i")}
    for variant in transpose.VARIANT_ORDER:
        for n in (16, 24, 64):
            block = 8 if n == 24 else 16  # manual blocking needs n % block == 0
            for var in loops.get(variant, ("i_blk", "i", "j_blk")) + (None,):
                yield (
                    f"transpose-{variant}-{n}-{var}",
                    lambda variant=variant, n=n, block=block: transpose.build(variant, n, block=block),
                    var,
                )
    for var in ("i", "i2", None):
        yield f"blur-parallel-{var}", lambda: blur.parallel(12, 10, 3), var
    for var in ("i", None):
        yield f"scan-{var}", lambda: scan.build("Naive", 40), var
        yield f"stream-triad-{var}", lambda: stream.build("triad", 50), var
        yield f"scan-fixture-{var}", lambda: _scan_program(33), var
        yield f"triad-fixture-{var}", lambda: triad_program(37), var


_CASES = list(_count_cases())


@pytest.mark.parametrize("name,build,var", _CASES, ids=[c[0] for c in _CASES])
def test_closed_form_count_equals_walker(name, build, var):
    program = build()
    assert access_count(program, var) == _walked(program, var)


class TestBudgetBoundary:
    def test_budget_equal_to_count_runs_the_oracle(self):
        program = _scan_program(16)
        count = access_count(program, "i")
        assert loop_conflicts(program, "i", budget=count) == loop_conflicts(program, "i")
        assert enumeration_oracle(program, "i", budget=count)

    def test_budget_one_below_count_skips_with_the_same_note(self):
        program = triad_program(64)
        count = access_count(program, "i")
        assert certify_parallel(program, "i", budget=count) is None
        note = certify_parallel(program, "i", budget=count - 1)
        assert note == (
            f"enumeration oracle skipped for loop 'i': iteration space exceeds "
            f"the {count - 1}-access budget (symbolic proof stands alone)"
        )
        with pytest.raises(AnalysisError, match=rf"too large to certify \(> {count - 1} accesses\)"):
            loop_conflicts(program, "i", budget=count - 1)

    def test_interchange_boundary(self):
        from repro.transforms import StripMine, apply_passes

        original = triad_program(37)
        mined = apply_passes(original, [StripMine("i", 8)])
        count = access_count(original)
        assert access_count(mined) == count
        assert certify_interchange(original, mined, budget=count) is None
        assert certify_interchange(original, mined, budget=count - 1) == (
            f"enumeration oracle skipped for 'triad_37': iteration space "
            f"exceeds the {count - 1}-access budget"
        )

    def test_cap_stops_early_and_stays_above_it(self):
        from repro.transforms import TileTriangular2D, apply_passes
        from repro.kernels import transpose

        tiled = apply_passes(transpose.naive(1024), [TileTriangular2D("i", "j", 16)])
        full = access_count(tiled, "i_blk")
        assert full == 4 * (1024 * 1023 // 2)
        assert 200_000 < access_count(tiled, "i_blk", cap=200_000) < full


_SKIP = "enumeration oracle skipped for loop {!r}: iteration space exceeds the 200000-access budget (symbolic proof stands alone)"


class TestFigureSizeBuildsNeverEnumerate:
    """Figure-size Parallel/Blocking builds exceed the 200k-access budget:
    the closed-form count must decide that without a single walk step."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        import repro.analysis.dependence as dependence

        def refuse(*args, **kwargs):
            raise AssertionError("the enumeration oracle walked a figure-size build")

        monkeypatch.setattr(dependence, "_accesses", refuse)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_transpose_parallel(self, n):
        from repro.kernels import transpose

        assert transpose.build("Parallel", n).meta == {
            "certified_transforms": (
                {"transform": "Parallelize", "loops": ("i",), "method": "symbolic"},
            ),
            "oracle_skipped": ({"note": _SKIP.format("i")},),
        }

    @pytest.mark.parametrize("n", [512, 1024])
    def test_transpose_blocking(self, n):
        from repro.kernels import transpose

        assert transpose.build("Blocking", n).meta == {
            "certified_transforms": (
                {"transform": "Parallelize", "loops": ("i_blk",), "method": "symbolic"},
            ),
            "oracle_skipped": ({"note": _SKIP.format("i_blk")},),
        }

    def test_blur_parallel(self):
        from repro.experiments.config import BLUR_FILTER, BLUR_SIM_WH
        from repro.kernels import blur

        w, h = BLUR_SIM_WH
        assert blur.build("Parallel", h, w, BLUR_FILTER).meta == {
            "certified_transforms": (
                {"transform": "Parallelize", "loops": ("i",), "method": "symbolic"},
                {"transform": "Parallelize", "loops": ("i2",), "method": "symbolic"},
            ),
            "oracle_skipped": (
                {"note": _SKIP.format("i")},
                {"note": _SKIP.format("i2")},
            ),
        }

    def test_count_on_blocking_1024_visits_few_statements(self, monkeypatch):
        import repro.analysis.dependence as dependence
        from repro.transforms import TileTriangular2D, apply_passes
        from repro.kernels import transpose

        visits = [0]
        leaf = dependence._Scope.leaf_accesses

        def counted(self, stmt):
            visits[0] += 1
            return leaf(self, stmt)

        monkeypatch.setattr(dependence._Scope, "leaf_accesses", counted)
        tiled = apply_passes(transpose.naive(1024), [TileTriangular2D("i", "j", 16)])
        assert access_count(tiled, "i_blk", cap=200_000) > 200_000
        # A walk would execute the three body statements 523,776 times each.
        assert visits[0] < 10_000
