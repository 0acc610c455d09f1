"""OpenMetrics/Prometheus text export of PMU counters.

Renders perf cells (or raw counter dicts) in the OpenMetrics text
format — ``# TYPE`` metadata lines, ``name_total{label="..."} value``
samples, a terminating ``# EOF`` — so the simulated counters can be
scraped, pushed to a Pushgateway, or just diffed as CI artifacts.

Counter families:

* ``repro_cache_accesses_total{level,event}`` — hits / misses /
  writebacks per cache level;
* ``repro_cache_misses_3c_total{level,class}`` — the 3C split;
* ``repro_prefetch_lines_total{outcome}`` — issued / useful / late /
  polluting;
* ``repro_tlb_walks_total``, ``repro_dram_bytes_total{direction}``;
* ``repro_sim_seconds`` — simulated wall-clock (a gauge).

Every sample carries ``kernel``, ``variant`` and ``device`` labels.

The module also exposes the low-level building blocks —
:func:`format_labels`, :func:`format_sample` and
:func:`render_exposition` — so other exporters (the ``repro serve``
``/metrics`` endpoint) produce the same dialect without duplicating the
escaping and family-ordering rules.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memsim.pmu import MISS_CLASSES, PREFETCH_COUNTERS


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(pairs: Iterable[Tuple[str, str]]) -> str:
    """``{key="value",...}`` with OpenMetrics escaping applied."""
    body = ",".join(f'{key}="{_escape(str(value))}"' for key, value in pairs)
    return "{" + body + "}"


def format_sample(
    name: str,
    labels: Iterable[Tuple[str, str]],
    value,
    exemplar: Optional[Tuple[Iterable[Tuple[str, str]], float]] = None,
) -> str:
    """One exposition line: ``name{labels} value [# {exemplar} value]``.

    ``exemplar`` is an optional ``(label pairs, value)`` in OpenMetrics
    exemplar syntax — the serve histograms attach a ``trace_id`` label so
    a hot latency bucket links straight to a concrete traced request.
    """
    pairs = list(labels)
    rendered = format_labels(pairs) if pairs else ""
    line = f"{name}{rendered} {value}"
    if exemplar is not None:
        ex_labels, ex_value = exemplar
        line += f" # {format_labels(ex_labels)} {ex_value}"
    return line


def render_exposition(
    families: "Dict[str, Tuple[str, ...]]",
    samples: "Dict[str, List[str]]",
    terminate: bool = True,
) -> str:
    """Assemble ``# TYPE``/``# UNIT``/``# HELP`` headers plus samples.

    A family value is ``(type, help)`` or ``(type, help, unit)``; the
    unit, when present, is emitted as a ``# UNIT`` line between TYPE and
    HELP (the OpenMetrics metadata order).  Families with no samples are
    omitted; ``terminate`` appends the ``# EOF`` marker (leave it off
    when concatenating expositions).
    """
    out: List[str] = []
    for name, meta in families.items():
        if not samples.get(name):
            continue
        family_type, help_text = meta[0], meta[1]
        out.append(f"# TYPE {name} {family_type}")
        if len(meta) > 2 and meta[2]:
            out.append(f"# UNIT {name} {meta[2]}")
        out.append(f"# HELP {name} {help_text}")
        out.extend(samples[name])
    if terminate:
        out.append("# EOF")
    return "\n".join(out) + ("\n" if out else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?:\s+#\s+(?P<exemplar>.*))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")


def parse_exposition(text: str) -> List[Dict]:
    """Parse an OpenMetrics text exposition into sample dicts.

    Each dict has ``name``, ``labels`` (dict), ``value`` (float) and
    optionally ``exemplar`` (``{"labels": ..., "value": ...}``).
    Metadata (``# TYPE``/``# UNIT``/``# HELP``/``# EOF``) and malformed
    lines are skipped — this is the consumer used by ``repro top``, not
    a validator.
    """
    out: List[Dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        labels = {
            key: _unescape(raw)
            for key, raw in _LABEL_RE.findall(match.group("labels") or "")
        }
        sample: Dict = {"name": match.group("name"), "labels": labels, "value": value}
        exemplar = match.group("exemplar")
        if exemplar:
            ex_match = re.match(r"^\{(?P<labels>[^}]*)\}\s+(?P<value>\S+)", exemplar)
            if ex_match:
                try:
                    sample["exemplar"] = {
                        "labels": {
                            key: _unescape(raw)
                            for key, raw in _LABEL_RE.findall(ex_match.group("labels"))
                        },
                        "value": float(ex_match.group("value")),
                    }
                except ValueError:
                    pass
        out.append(sample)
    return out


_labels = format_labels  # historical internal spelling


def render_openmetrics(cells) -> str:
    """Render perf cells as one OpenMetrics exposition."""
    families: "Dict[str, Tuple[str, str]]" = {
        "repro_cache_accesses_total": ("counter", "Cache events per level."),
        "repro_cache_misses_3c_total": ("counter", "Misses split by 3C class."),
        "repro_cache_conflict_sets": ("gauge", "Distinct sets with conflict misses."),
        "repro_prefetch_lines_total": ("counter", "Prefetcher line outcomes."),
        "repro_tlb_walks_total": ("counter", "TLB walks."),
        "repro_dram_bytes_total": ("counter", "DRAM traffic in bytes."),
        "repro_sim_seconds": ("gauge", "Simulated wall-clock seconds."),
    }
    samples: Dict[str, List[str]] = {name: [] for name in families}

    for cell in cells:
        base = [
            ("kernel", cell.kernel),
            ("variant", cell.variant),
            ("device", cell.device_key),
        ]
        for lvl in cell.levels:
            level = [("level", lvl["name"])]
            for event in ("hits", "misses", "writebacks"):
                samples["repro_cache_accesses_total"].append(
                    f"repro_cache_accesses_total"
                    f"{_labels(base + level + [('event', event)])} {lvl[event]}"
                )
            for cls in MISS_CLASSES:
                samples["repro_cache_misses_3c_total"].append(
                    f"repro_cache_misses_3c_total"
                    f"{_labels(base + level + [('class', cls)])} {lvl[cls]}"
                )
            samples["repro_cache_conflict_sets"].append(
                f"repro_cache_conflict_sets{_labels(base + level)} {lvl['conflict_sets']}"
            )
        for outcome in PREFETCH_COUNTERS:
            value = cell.counters.get(f"pmu.prefetch.{outcome}", 0)
            samples["repro_prefetch_lines_total"].append(
                f"repro_prefetch_lines_total"
                f"{_labels(base + [('outcome', outcome)])} {value}"
            )
        samples["repro_tlb_walks_total"].append(
            f"repro_tlb_walks_total{_labels(base)} {cell.counters.get('tlb.walks', 0)}"
        )
        for direction, key in (("read", "dram.read_bytes"), ("write", "dram.written_bytes")):
            samples["repro_dram_bytes_total"].append(
                f"repro_dram_bytes_total"
                f"{_labels(base + [('direction', direction)])} {cell.counters.get(key, 0)}"
            )
        samples["repro_sim_seconds"].append(
            f"repro_sim_seconds{_labels(base)} {cell.seconds!r}"
        )

    return render_exposition(families, samples)


def render_trend_openmetrics(points) -> str:
    """Render bench trend points as an OpenMetrics exposition.

    Takes points as :meth:`repro.bench.trend.TrendStore.points` returns
    them (oldest-first) and exports the *latest* point per workload —
    the shape a scraper wants: current medians with CI context, labelled
    by commit and measuring host, so the commit-keyed history lands on
    the same dashboards as the serve tier's live metrics.
    """
    families: "Dict[str, Tuple[str, ...]]" = {
        "repro_bench_seconds": (
            "gauge", "Latest benchmarked median wall-clock per workload.",
            "seconds",
        ),
        "repro_bench_phase_seconds": (
            "gauge", "Latest per-phase median within each workload.",
            "seconds",
        ),
        "repro_bench_rel_ci": (
            "gauge",
            "Relative CI95 half-width of the latest median (dimensionless).",
        ),
        "repro_bench_ratio": (
            "gauge", "Latest derived dimensionless ratio (e.g. engine speedup).",
        ),
    }
    latest: Dict[str, Dict] = {}
    for point in points:
        workload = point.get("workload")
        if workload:
            latest[str(workload)] = point
    samples: Dict[str, List[str]] = {name: [] for name in families}
    for workload, point in sorted(latest.items()):
        base = [
            ("workload", workload),
            ("commit", str(point.get("commit", ""))),
            ("host", str(point.get("host", ""))),
        ]
        median = point.get("median")
        if median is None:
            continue
        if point.get("kind") == "derived-ratio":
            samples["repro_bench_ratio"].append(
                format_sample("repro_bench_ratio", base, repr(float(median)))
            )
        else:
            samples["repro_bench_seconds"].append(
                format_sample("repro_bench_seconds", base, repr(float(median)))
            )
            for phase, value in sorted((point.get("phases") or {}).items()):
                if value is None:
                    continue
                samples["repro_bench_phase_seconds"].append(
                    format_sample(
                        "repro_bench_phase_seconds",
                        base + [("phase", str(phase))],
                        repr(float(value)),
                    )
                )
        rel_ci = point.get("rel_ci")
        if rel_ci is not None:
            samples["repro_bench_rel_ci"].append(
                format_sample("repro_bench_rel_ci", base, repr(float(rel_ci)))
            )
    return render_exposition(families, samples)
