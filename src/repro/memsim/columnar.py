"""Replay-engine selection.

Two engines replay a trace through a device's memory hierarchy:

* ``exact`` — :class:`~repro.memsim.hierarchy.MemoryHierarchy`, the
  per-reference oracle loop;
* ``fast`` (the default) — :class:`~repro.memsim.native.NativeHierarchy`,
  the runtime-compiled C core, bit-identical to the oracle on every
  counter.

The engine is chosen by ``REPRO_ENGINE=exact|fast``, resolved by
:func:`resolve_engine` and threaded through ``simulate(engine=...)`` and
``DeviceSpec.build_hierarchies``.  A device with a replacement policy
outside :data:`FAST_POLICIES` (tree-PLRU ablations), or a host where the
C core cannot be built, gets exact hierarchies under ``fast`` too.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.errors import SimulationError

#: Environment variable selecting the replay engine.
ENGINE_ENV = "REPRO_ENGINE"
ENGINE_EXACT = "exact"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_EXACT, ENGINE_FAST)

#: Replacement policies the fast engine replays natively.  A device with
#: any other policy (``plru`` ablations) builds exact hierarchies even
#: under ``REPRO_ENGINE=fast``.
FAST_POLICIES = frozenset(("lru", "random"))


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the replay engine: explicit argument, else ``REPRO_ENGINE``,
    else the fast engine."""
    value = engine if engine is not None else os.environ.get(ENGINE_ENV, "")
    value = (value or "").strip().lower() or ENGINE_FAST
    if value not in ENGINES:
        raise SimulationError(
            f"unknown replay engine {value!r}; pick one of {', '.join(ENGINES)}"
        )
    return value


def supports_fast(policies: Sequence[str]) -> bool:
    """Can the fast engine replay a hierarchy with these policies?"""
    return all(policy in FAST_POLICIES for policy in policies)
