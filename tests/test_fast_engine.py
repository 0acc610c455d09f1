"""Differential tests for the fast replay engine.

The fast engine's contract is *bit-identity* with the exact simulator —
not approximate agreement.  These tests run the same segment streams
through the exact :class:`~repro.memsim.hierarchy.MemoryHierarchy` and
the native :class:`~repro.memsim.native.NativeHierarchy`, and assert
that every observable — hits, misses, prefetch hits, writebacks, DRAM
line traffic, TLB walks, and the full per-reference PMU attribution
state — is exactly equal, including on runs whose reuse regime flips
mid-stream.  Without a C toolchain there is no fast engine to compare,
so the module skips rather than compare the exact engine with itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.trace import Segment
from repro.memsim import (
    C906_PREFETCH,
    Cache,
    MemoryHierarchy,
    NO_PREFETCH,
    TlbSpec,
    snapshot,
)
from repro.memsim.cache import set_indices, set_mask
from repro.memsim.native import (
    NativeHierarchy,
    native_available,
    native_cache,
    native_status,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason=f"native core {native_status()}"
)

TLB = TlbSpec(l1_entries=4, l1_ways=0, l2_entries=16, l2_ways=2, walk_cycles=40)

#: (name, size_bytes, ways, policy) rows for a small two-level hierarchy.
SMALL_LEVELS = [("L1", 4096, 4, "lru"), ("L2", 16384, 8, "lru")]


def seg(base, stride, count, write=False, esize=8, ref=0):
    return Segment(ref, base, stride, count, write, esize)


def build_engines(levels=SMALL_LEVELS, prefetch=C906_PREFETCH, tlb=TLB):
    """One hierarchy per engine over identical cache geometry."""
    return {
        "exact": MemoryHierarchy(
            [Cache(row[0], row[1], row[2], 64, row[3]) for row in levels],
            prefetch=prefetch,
            tlb=tlb,
        ),
        "native": NativeHierarchy(
            [native_cache(row[0], row[1], row[2], 64, row[3]) for row in levels],
            prefetch=prefetch,
            tlb=tlb,
        ),
    }


def pmu_state(pmu):
    """Every observable of a PMU, as comparable plain data."""
    state = {
        "counters": dict(pmu.counters()),
        "useful": pmu.prefetch_useful,
        "polluting": pmu.prefetch_polluting,
        "accesses": dict(pmu.ref_accesses),
        "bytes": dict(pmu.ref_bytes),
        "dram_read": dict(pmu.ref_dram_read_lines),
        "dram_written": dict(pmu.ref_dram_written_lines),
        "tlb": dict(pmu.ref_tlb_walks),
    }
    for level in pmu.levels:
        state[level.name] = (
            level.compulsory,
            level.capacity,
            level.conflict,
            dict(level.set_conflicts),
            {k: tuple(v) for k, v in level.per_ref.items()},
        )
    return state


def run_all(segments, levels=SMALL_LEVELS, prefetch=C906_PREFETCH, tlb=TLB,
            pmu=True, flush=False):
    """Run ``segments`` through every engine; return {engine: observables}."""
    out = {}
    for name, hier in build_engines(levels, prefetch, tlb).items():
        p = hier.attach_pmu() if pmu else None
        hier.run(segments)
        if flush:
            hier.flush()
        out[name] = {
            "snapshot": snapshot(hier),
            "dirty": sum(c.flush_dirty_count() for c in hier.caches),
            "pmu": pmu_state(p) if p else None,
        }
    return out


def assert_engines_agree(results):
    exact = results["exact"]
    for name, got in results.items():
        if name == "exact":
            continue
        assert got["snapshot"] == exact["snapshot"], name
        assert got["dirty"] == exact["dirty"], name
        assert got["pmu"] == exact["pmu"], name


# ---------------------------------------------------------------------------
# Random affine traces (satellite: hypothesis differential property)
# ---------------------------------------------------------------------------

segments_strategy = st.lists(
    st.builds(
        seg,
        base=st.integers(min_value=0, max_value=1 << 16),
        stride=st.sampled_from([-512, -64, -8, 0, 4, 8, 24, 64, 80, 512, 4096]),
        count=st.integers(min_value=1, max_value=200),
        write=st.booleans(),
        esize=st.sampled_from([4, 8]),
        ref=st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=20,
)


class TestRandomTraceDifferential:
    @settings(max_examples=60, deadline=None)
    @given(segments_strategy)
    def test_lru_engines_bit_identical(self, segments):
        assert_engines_agree(run_all(segments))

    @settings(max_examples=30, deadline=None)
    @given(segments_strategy)
    def test_random_policy_engines_bit_identical(self, segments):
        levels = [("L1", 4096, 4, "lru"), ("L2", 16384, 8, "random")]
        assert_engines_agree(run_all(segments, levels=levels))

    @settings(max_examples=30, deadline=None)
    @given(segments_strategy)
    def test_flush_writebacks_bit_identical(self, segments):
        assert_engines_agree(run_all(segments, flush=True))


# ---------------------------------------------------------------------------
# Reuse-regime boundaries (mid-run transitions)
# ---------------------------------------------------------------------------

class TestSkipReplayBoundary:
    def phased_segments(self):
        """A stream whose reuse regime flips mid-run:

        * a streaming sweep much larger than L2 (every op misses),
        * repeated passes over a tiny footprint (every op hits),
        * a same-set conflict ping-pong (hits and misses interleave),

        interleaved so each regime starts with the previous one's state.
        """
        tiny = [seg(0, 64, 8) for _ in range(6)]             # resident reuse
        sweep = [seg(1 << 20, 64, 2048, write=True)]          # streams thru L2
        # 4-way L1 set 0: five lines mapping to the same set, cycled.
        conflict = [seg(w * 64 * 1024, 0, 1) for w in range(5)] * 4
        return tiny + sweep + conflict + tiny + sweep + list(reversed(conflict))

    def test_boundary_crossing_bit_identical(self):
        assert_engines_agree(run_all(self.phased_segments()))


# ---------------------------------------------------------------------------
# Writeback accounting unification (satellite: dirty-line accounting)
# ---------------------------------------------------------------------------

class TestWritebackUnification:
    def test_flush_dirty_count_matches_flush_charge(self):
        """``Cache.dirty_lines`` is the one definition of end-of-run
        writeback traffic: ``flush_dirty_count`` counts it per level,
        ``flush()`` charges its across-level dedup to DRAM — and every
        engine must agree line for line."""
        segments = [seg(i * 4096, 64, 32, write=True, ref=i % 3)
                    for i in range(24)]
        per_level = {}
        charged = {}
        for name, hier in build_engines().items():
            hier.run(segments)
            hier.drain()
            per_level[name] = [
                (c.flush_dirty_count(), sorted(c.dirty_lines()))
                for c in hier.caches
            ]
            union = set()
            for cache in hier.caches:
                union.update(cache.dirty_lines())
            before = hier.dram.written_lines
            hier.flush()
            charged[name] = hier.dram.written_lines - before
            assert charged[name] == len(union), name
            assert per_level[name][0][0] > 0, name   # workload really dirtied
        assert per_level["native"] == per_level["exact"]
        assert charged["native"] == charged["exact"]

    def test_pmu_and_engines_agree_on_writeback_bytes(self):
        """Total DRAM writeback bytes: identical across engines, and the
        PMU's per-reference attribution sums to the DRAM model's count."""
        segments = [seg(i * 2048, 64, 64, write=(i % 2 == 0), ref=i % 4)
                    for i in range(32)]
        written = {}
        for name, hier in build_engines().items():
            pmu = hier.attach_pmu()
            hier.run(segments)
            hier.flush()
            written[name] = hier.dram.written_lines * 64
            attributed = sum(pmu.ref_dram_written_lines.values())
            assert attributed == hier.dram.written_lines, name
        assert len(set(written.values())) == 1, written
        assert written["exact"] > 0


# ---------------------------------------------------------------------------
# Set-index helper (satellite: non-power-of-two set counts)
# ---------------------------------------------------------------------------

class TestSetIndexHelper:
    def test_set_mask_power_of_two(self):
        assert set_mask(128) == 127
        assert set_mask(1) == 0

    def test_set_mask_non_power_of_two(self):
        assert set_mask(20480) is None   # the Xeon 4310T's 15 MiB/12-way L3
        assert set_mask(3) is None

    def test_set_indices_matches_scalar_rule(self):
        lines = [0, 1, 127, 128, 20479, 20480, 12345678, -1 & (1 << 40)]
        for num_sets in (128, 20480):
            mask = set_mask(num_sets)
            batch = set_indices(lines, num_sets, mask)
            cache = Cache("L", num_sets * 12 * 64, 12)
            assert cache.num_sets == num_sets
            assert batch == [cache.set_index(line) for line in lines]

    def test_non_power_of_two_sets_all_engines(self):
        """A 20480-set cache exercises the modulo set-index path in the
        exact scalar loop and in the native core."""
        levels = [("L1", 4096, 4, "lru"), ("L3", 15 * 2**20, 12, "lru")]
        # Strides straddling many sets, including multiples of 20480*64
        # that alias to the same set only under the modulo rule.
        segments = [
            seg(0, 64, 4096),
            seg(20480 * 64, 64, 4096, write=True),
            seg(7, 20480 * 64, 30, ref=1),
            seg(12345, -64, 2000, write=True, ref=2),
        ]
        assert_engines_agree(run_all(segments, levels=levels))


# ---------------------------------------------------------------------------
# Figure-grid slice (satellite: end-to-end differential through simulate())
# ---------------------------------------------------------------------------

class TestFigureSliceDifferential:
    @pytest.mark.parametrize("variant", ["Naive", "Blocking"])
    def test_fig2_cell_engines_identical(self, variant):
        from repro.experiments.config import (
            CACHE_SCALE,
            TRANSPOSE_BLOCK,
            scaled_device,
        )
        from repro.kernels import transpose
        from repro.simulate import simulate

        device = scaled_device("mango_pi_d1", CACHE_SCALE)
        program = transpose.build(variant, 256, block=TRANSPOSE_BLOCK)
        exact = simulate(program, device, pmu=True, engine="exact")
        fast = simulate(program, device, pmu=True, engine="fast")
        assert exact.seconds == fast.seconds
        assert exact.snapshots == fast.snapshots
        assert len(exact.pmus) == len(fast.pmus)
        for a, b in zip(exact.pmus, fast.pmus):
            assert pmu_state(a) == pmu_state(b)
