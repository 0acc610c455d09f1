"""Trace-driven memory-hierarchy simulator.

* :mod:`repro.memsim.cache` — set-associative write-back caches;
* :mod:`repro.memsim.replacement` — LRU / random / tree-PLRU policies
  (the U74 documents random replacement, Section 3.1 of the paper);
* :mod:`repro.memsim.prefetch` — stride prefetcher models per device;
* :mod:`repro.memsim.tlb` — two-level Sv39-style TLBs;
* :mod:`repro.memsim.dram` — DRAM traffic counters;
* :mod:`repro.memsim.hierarchy` — the composed per-core hierarchy;
* :mod:`repro.memsim.native` — the runtime-compiled C replay core
  (``REPRO_ENGINE=fast``, the default), bit-identical to the exact
  per-reference loop;
* :mod:`repro.memsim.columnar` — replay-engine selection (exact or
  fast);
* :mod:`repro.memsim.stats` — snapshot/delta statistics;
* :mod:`repro.memsim.pmu` — the simulated PMU: 3C miss attribution,
  per-set conflict histograms and prefetch-accuracy counters.
"""

from repro.memsim.cache import Cache, CacheStats, set_indices, set_mask
from repro.memsim.columnar import (
    ENGINE_ENV,
    ENGINE_EXACT,
    ENGINE_FAST,
    FAST_POLICIES,
    resolve_engine,
    supports_fast,
)
from repro.memsim.dram import DramCounters
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import (
    A72_PREFETCH,
    C906_PREFETCH,
    NO_PREFETCH,
    PrefetcherSpec,
    StridePrefetcher,
    U74_PREFETCH,
    XEON_PREFETCH,
)
from repro.memsim.replacement import (
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePlruPolicy,
    make_policy,
)
from repro.memsim.pmu import MISS_CLASSES, LevelPmu, Pmu
from repro.memsim.stats import HierarchySnapshot, LevelSnapshot, add_counters, snapshot
from repro.memsim.tlb import PAGE_SIZE, Tlb, TlbSpec

__all__ = [
    "A72_PREFETCH",
    "C906_PREFETCH",
    "Cache",
    "CacheStats",
    "DramCounters",
    "ENGINE_ENV",
    "ENGINE_EXACT",
    "ENGINE_FAST",
    "FAST_POLICIES",
    "HierarchySnapshot",
    "LevelPmu",
    "LevelSnapshot",
    "LruPolicy",
    "MISS_CLASSES",
    "MemoryHierarchy",
    "NO_PREFETCH",
    "PAGE_SIZE",
    "Pmu",
    "PrefetcherSpec",
    "RandomPolicy",
    "ReplacementPolicy",
    "StridePrefetcher",
    "Tlb",
    "TlbSpec",
    "TreePlruPolicy",
    "U74_PREFETCH",
    "XEON_PREFETCH",
    "add_counters",
    "make_policy",
    "resolve_engine",
    "set_indices",
    "set_mask",
    "snapshot",
    "supports_fast",
]
