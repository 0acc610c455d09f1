"""Zero-dependency span tracer with Chrome trace-event export and
cross-process trace-context propagation.

The experiment pipeline (trace generation → memory simulation → timing →
figure harness → run cache / journal) is instrumented with *spans*:
named, nested wall-clock intervals.  A disabled tracer (the default)
costs one attribute load and a truth test per span, so instrumentation
stays in production code paths.

On top of the flat span log the module provides a W3C
``traceparent``-style :class:`TraceContext` (trace id, span id, sampling
flag).  When a context is *activated* on a thread
(:func:`activate`), every span recorded on that thread gets a fresh span
id and an explicit parent link — to the enclosing span, or to the
activated context's span id for root spans.  The context serializes to
a single ``00-<trace>-<span>-<flags>`` header line
(:meth:`TraceContext.to_header`), which is how the serve tier threads
one trace through HTTP admission → queue → work-pool worker →
supervised runner: the worker re-activates the parsed context, so its
spans re-root under the server's job span and the whole request becomes
one connected span tree across processes (:func:`assemble_tree`).

Export formats:

* **Chrome trace-event JSON** — a flat list of complete events
  (``{"name", "ph": "X", "ts", "dur", "pid", "tid"}``, microsecond
  timestamps) loadable by ``chrome://tracing`` and Perfetto;
* **plain-text tree** — nested spans with durations, for terminals.

Usage::

    from repro.profiling import tracer

    with tracer.install() as t:
        with tracer.span("simulate", program="transpose"):
            ...
    t.write_chrome_trace("trace.json")
    print(t.render_tree())
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Synthetic process id used for events of the local process; spans
#: absorbed from worker processes keep their own (real) pid.
TRACE_PID = 1

_HEX = set("0123456789abcdef")
_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16


def _is_hex(value: str) -> bool:
    """Lowercase-hex check (the W3C header is case-sensitive: lowercase)."""
    return bool(value) and all(ch in _HEX for ch in value)


def new_trace_id() -> str:
    """A random 128-bit lowercase-hex trace id (never all-zero)."""
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id != _ZERO_TRACE:
            return trace_id


def new_span_id() -> str:
    """A random 64-bit lowercase-hex span id (never all-zero)."""
    while True:
        span_id = os.urandom(8).hex()
        if span_id != _ZERO_SPAN:
            return span_id


@dataclass(frozen=True)
class TraceContext:
    """W3C ``traceparent``-style propagation context.

    ``trace_id`` identifies the whole request tree; ``span_id`` is the
    span new children should parent under; ``sampled`` gates whether
    spans record ids at all (an unsampled context still propagates, so a
    downstream hop can honour the caller's sampling decision).
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def mint(cls, sampled: bool = True) -> "TraceContext":
        """A brand-new root context (the serve tier mints one per job
        when the client did not send a ``traceparent`` header)."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id(), sampled=sampled)

    @classmethod
    def parse(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` on any violation.

        Accepted shape (strict, per the W3C trace-context spec basics):
        ``version "-" trace-id "-" parent-id "-" flags`` where version is
        2 lowercase hex digits (``ff`` reserved → rejected), trace-id is
        32 lowercase hex digits and not all-zero, parent-id is 16
        lowercase hex digits and not all-zero, flags is 2 lowercase hex
        digits.  Versions above 00 are tolerated only in exactly this
        4-field shape (forward compatibility without guessing).
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if len(version) != 2 or not _is_hex(version) or version == "ff":
            return None
        if len(trace_id) != 32 or not _is_hex(trace_id) or trace_id == _ZERO_TRACE:
            return None
        if len(span_id) != 16 or not _is_hex(span_id) or span_id == _ZERO_SPAN:
            return None
        if len(flags) != 2 or not _is_hex(flags):
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   sampled=bool(int(flags, 16) & 0x01))

    def to_header(self) -> str:
        """The ``traceparent`` wire form of this context."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — the context a sub-operation owns."""
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id(),
                            sampled=self.sampled)


# Thread-local activated context.  Lives at module level (not on one
# Tracer) so propagation works identically whether or not a tracer is
# installed — an unsampled or tracer-less context still flows through
# ``current_traceparent()`` to workers.
_ACTIVE = threading.local()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` the calling thread's trace context for the block.

    Spans recorded while a *sampled* context is active get span ids and
    parent links; root spans parent under ``ctx.span_id``.  ``None`` is
    accepted and is a no-op, so call sites can pass through an optional
    context unconditionally.
    """
    if ctx is None:
        yield None
        return
    previous = getattr(_ACTIVE, "ctx", None)
    _ACTIVE.ctx = ctx
    try:
        yield ctx
    finally:
        _ACTIVE.ctx = previous


def active_context() -> Optional[TraceContext]:
    """The context activated on this thread, or ``None``."""
    return getattr(_ACTIVE, "ctx", None)


def current_context() -> Optional[TraceContext]:
    """The context a *child* operation should parent under right now:
    the innermost open span when it carries an id, else the activated
    context.  This is what crosses process boundaries."""
    ctx = active_context()
    if ctx is None:
        return None
    tracer = _CURRENT
    if tracer is not None and ctx.sampled:
        stack = getattr(tracer._local, "stack", None)
        if stack and stack[-1][1]:
            return TraceContext(ctx.trace_id, stack[-1][1], ctx.sampled)
    return ctx


def current_traceparent() -> Optional[str]:
    """``traceparent`` header for the current propagation point."""
    ctx = current_context()
    return ctx.to_header() if ctx is not None else None


@dataclass
class Span:
    """One completed named interval."""

    name: str
    cat: str
    start_us: float           # relative to the tracer's epoch
    dur_us: float
    tid: int                  # dense thread id (main thread is 0)
    depth: int                # nesting depth within its thread
    seq: int                  # global start order, for stable sorting
    args: Dict[str, Any] = field(default_factory=dict)
    pid: int = TRACE_PID      # trace process id (worker spans differ)
    ph: str = "X"             # trace-event phase: "X" span, "C" counter
    trace_id: str = ""        # trace-context ids; empty outside a context
    span_id: str = ""
    parent_id: str = ""


class Tracer:
    """Collects spans; thread-safe, clock-monotonic, allocation-light."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        self.spans: List[Span] = []
        self._seq = 0
        # Worker-track bookkeeping for absorb(): (pid, epoch) -> display
        # pid, so respawned workers that reuse a pid get their own track.
        self._tracks: Dict[Tuple[int, int], int] = {}
        self._track_pids: set = {TRACE_PID}

    # -- recording ---------------------------------------------------------

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._tids:
                self._tids[ident] = len(self._tids)
            return self._tids[ident]

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (for explicit spans)."""
        return (time.perf_counter() - self._epoch) * 1e6

    def _ids_for_new_span(self, stack: List[Tuple[str, str]]) -> Tuple[str, str, str]:
        """(trace_id, span_id, parent_id) for a span opening now."""
        ctx = active_context()
        if ctx is None or not ctx.sampled:
            return "", "", ""
        parent = ""
        for _name, open_id in reversed(stack):
            if open_id:
                parent = open_id
                break
        return ctx.trace_id, new_span_id(), parent or ctx.span_id

    @contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        trace_id, span_id, parent_id = self._ids_for_new_span(stack)
        start = time.perf_counter()
        stack.append((name, span_id))
        depth = len(stack) - 1
        try:
            yield args  # the caller may add args while the span is open
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                seq = self._seq
                self._seq += 1
            self.spans.append(
                Span(
                    name=name,
                    cat=cat,
                    start_us=(start - self._epoch) * 1e6,
                    dur_us=(end - start) * 1e6,
                    tid=self._tid(),
                    depth=depth,
                    seq=seq,
                    args=dict(args) if args else {},
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_id=parent_id,
                )
            )

    def record_span(
        self,
        name: str,
        start_us: float,
        dur_us: float,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
        trace_id: str = "",
        span_id: str = "",
        parent_id: str = "",
        pid: int = TRACE_PID,
        tid: Optional[int] = None,
    ) -> None:
        """Append a completed span with explicit timestamps and ids.

        The serve tier records job-level spans this way: the queue wait
        and execution windows are known only at settle time, and asyncio
        interleaving makes ``with``-style spans on the event loop lie.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                start_us=start_us,
                dur_us=dur_us,
                tid=self._tid() if tid is None else tid,
                depth=0,
                seq=seq,
                args=dict(args) if args else {},
                pid=pid,
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
            )
        )

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """A zero-duration marker."""
        now = time.perf_counter()
        stack = getattr(self._local, "stack", None) or []
        with self._lock:
            seq = self._seq
            self._seq += 1
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                start_us=(now - self._epoch) * 1e6,
                dur_us=0.0,
                tid=self._tid(),
                depth=len(stack),
                seq=seq,
                args=dict(args) if args else {},
            )
        )

    def counter(self, name: str, values: Dict[str, Any], tid: Optional[int] = None) -> None:
        """A counter sample (Chrome trace 'C' phase).

        ``values`` maps series name -> numeric value; Perfetto renders each
        distinct ``name`` as its own stacked counter track sampled at this
        timestamp.  Pass ``tid`` to pin the sample to a logical track (the
        simulator uses per-core tracks); it defaults to the calling thread.
        """
        now = time.perf_counter()
        with self._lock:
            seq = self._seq
            self._seq += 1
        self.spans.append(
            Span(
                name=name,
                cat="counter",
                start_us=(now - self._epoch) * 1e6,
                dur_us=0.0,
                tid=self._tid() if tid is None else tid,
                depth=0,
                seq=seq,
                args=dict(values),
                ph="C",
            )
        )

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Complete ('ph: X') trace events, ready for ``chrome://tracing``.

        Every event carries the full required key set (``name, ph, ts,
        dur, pid, tid``); spans recorded with args keep them under
        ``args``, and spans recorded under a trace context expose their
        ids as ``args.trace_id`` / ``args.span_id`` / ``args.parent_id``.
        """
        return spans_to_chrome_events(
            sorted(self.spans, key=lambda s: (s.start_us, s.seq))
        )

    def write_chrome_trace(self, path: str) -> None:
        """Write the event list as a JSON array (the format both
        ``chrome://tracing`` and Perfetto accept directly)."""
        with open(path, "w") as fh:
            json.dump(self.chrome_events(), fh, indent=1)
            fh.write("\n")

    # -- cross-process merge -------------------------------------------------

    def span_dicts(self) -> List[Dict[str, Any]]:
        """Spans as plain dicts, picklable/JSON-able for worker → parent
        transfer (:class:`repro.runtime.workpool.WorkPool`)."""
        return [span_dict(s) for s in self.spans]

    def _display_pid(self, pid: int, epoch: int) -> int:
        """Track id for a worker process incarnation.

        Chrome traces key tracks by pid, but the OS reuses pids: spans
        from a respawned worker that inherited a dead worker's pid would
        interleave into one unreadable track.  Tracks are therefore keyed
        by ``(pid, epoch)`` — the first incarnation keeps the real pid,
        later incarnations get a fresh synthetic pid.
        """
        key = (int(pid), int(epoch))
        display = self._tracks.get(key)
        if display is None:
            if pid not in self._track_pids:
                display = int(pid)
            else:
                display = max(self._track_pids | {int(pid)}) + 1
            self._tracks[key] = display
            self._track_pids.add(display)
        return display

    def absorb(self, span_dicts: List[Dict[str, Any]], pid: int, epoch: int = 0) -> None:
        """Merge spans recorded by another process into this tracer.

        Worker epochs differ from ours, so absorbed spans keep their own
        relative timeline; ``pid`` separates them into their own track in
        the Chrome trace (the real worker pid is the natural choice), and
        ``epoch`` disambiguates respawned workers whose reused pid would
        otherwise collide onto one track.  Trace-context ids survive the
        merge untouched, so :func:`assemble_tree` can re-root worker
        spans under the parent's job span.
        """
        with self._lock:
            display_pid = self._display_pid(pid, epoch)
            for raw in span_dicts:
                seq = self._seq
                self._seq += 1
                self.spans.append(
                    Span(
                        name=str(raw.get("name", "")),
                        cat=str(raw.get("cat", "")),
                        start_us=float(raw.get("start_us", 0.0)),
                        dur_us=float(raw.get("dur_us", 0.0)),
                        tid=int(raw.get("tid", 0)),
                        depth=int(raw.get("depth", 0)),
                        seq=seq,
                        args=dict(raw.get("args") or {}),
                        pid=display_pid,
                        ph=str(raw.get("ph", "X")),
                        trace_id=str(raw.get("trace_id", "")),
                        span_id=str(raw.get("span_id", "")),
                        parent_id=str(raw.get("parent_id", "")),
                    )
                )

    # -- trace-tree queries --------------------------------------------------

    def trace_spans(self, trace_id: str) -> List[Dict[str, Any]]:
        """All spans of one trace, as plain dicts (start order)."""
        with self._lock:
            matched = [s for s in self.spans if s.trace_id == trace_id]
        matched.sort(key=lambda s: (s.start_us, s.seq))
        return [span_dict(s) for s in matched]

    def drop_trace(self, trace_id: str) -> int:
        """Forget one trace's spans (long-lived servers bound their
        memory by pruning traces of long-settled jobs).  Returns the
        number of spans dropped."""
        if not trace_id:
            return 0
        with self._lock:
            before = len(self.spans)
            self.spans = [s for s in self.spans if s.trace_id != trace_id]
            return before - len(self.spans)

    def render_tree(self, min_us: float = 0.0) -> str:
        """Plain-text tree of spans (per thread, nested by depth)."""
        lines: List[str] = []
        ordered = sorted(
            self.spans, key=lambda s: (s.pid, s.tid, s.start_us, s.seq, -s.dur_us)
        )
        threads = sorted({(s.pid, s.tid) for s in ordered})
        for pid, tid in threads:
            if len(threads) > 1:
                label = f"thread {tid}:" if pid == TRACE_PID else f"process {pid} thread {tid}:"
                lines.append(label)
            for span in ordered:
                if (span.pid, span.tid) != (pid, tid) or span.dur_us < min_us:
                    continue
                if span.ph != "X":
                    continue  # counter samples belong in the Chrome trace
                indent = "  " * span.depth
                extra = ""
                if span.args:
                    pairs = ", ".join(f"{k}={v}" for k, v in span.args.items())
                    extra = f"  [{pairs}]"
                lines.append(f"{indent}{span.name:<28s} {_fmt_us(span.dur_us):>10s}{extra}")
        return "\n".join(lines) if lines else "(no spans recorded)"


def span_dict(span: Span) -> Dict[str, Any]:
    """One span as a plain JSON-able dict (the wire/merge format)."""
    return {
        "name": span.name,
        "cat": span.cat,
        "start_us": span.start_us,
        "dur_us": span.dur_us,
        "tid": span.tid,
        "depth": span.depth,
        "seq": span.seq,
        "args": span.args,
        "pid": span.pid,
        "ph": span.ph,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
    }


def spans_to_chrome_events(spans) -> List[Dict[str, Any]]:
    """Chrome trace events from :class:`Span` objects or span dicts."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        raw = span if isinstance(span, dict) else span_dict(span)
        event: Dict[str, Any] = {
            "name": raw.get("name", ""),
            "ph": raw.get("ph", "X"),
            "ts": round(float(raw.get("start_us", 0.0)), 3),
            "pid": raw.get("pid", TRACE_PID),
            "tid": raw.get("tid", 0),
        }
        if event["ph"] == "X":
            event["dur"] = round(float(raw.get("dur_us", 0.0)), 3)
        if raw.get("cat"):
            event["cat"] = raw["cat"]
        args = dict(raw.get("args") or {})
        for id_key in ("trace_id", "span_id", "parent_id"):
            if raw.get(id_key):
                args[id_key] = raw[id_key]
        if args:
            event["args"] = args
        events.append(event)
    return events


def assemble_tree(span_dicts: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span dicts into parent→children trees.

    Returns the list of roots: spans whose ``parent_id`` is empty or
    refers to a span outside the set (e.g. a remote client's span).  A
    fully connected single-request trace assembles into exactly one
    root.  Children are ordered by start time; spans without ids are
    ignored (they cannot be attached anywhere).
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for raw in span_dicts:
        span_id = raw.get("span_id", "")
        if not span_id:
            continue
        node = dict(raw)
        node["children"] = []
        nodes[span_id] = node
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id", ""))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    order = lambda n: (float(n.get("start_us", 0.0)), int(n.get("seq", 0)))  # noqa: E731
    for node in nodes.values():
        node["children"].sort(key=order)
    roots.sort(key=order)
    return roots


def render_span_tree(roots: List[Dict[str, Any]], cross_process: bool = True) -> str:
    """Plain-text rendering of an assembled span tree."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        extra = ""
        args = node.get("args") or {}
        if args:
            pairs = ", ".join(f"{k}={v}" for k, v in args.items())
            extra = f"  [{pairs}]"
        origin = ""
        if cross_process and node.get("pid") not in (TRACE_PID, None):
            origin = f"  (pid {node['pid']})"
        lines.append(
            f"{indent}{node.get('name', '?'):<28s} "
            f"{_fmt_us(float(node.get('dur_us', 0.0))):>10s}{origin}{extra}"
        )
        for child in node.get("children", []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines) if lines else "(no spans in trace)"


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.0f}us"


# -- module-level current tracer -------------------------------------------
#
# Instrumented code calls ``tracer.span(...)``; when no tracer is installed
# this is a no-op context manager shared by all call sites.

_CURRENT: Optional[Tracer] = None


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def current() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _CURRENT


def span(name: str, cat: str = "", **args: Any):
    """Record a span on the installed tracer (no-op when tracing is off).

    ``with span(...) as args`` binds the span's args dict, which the body
    may extend, or ``None`` when tracing is off."""
    tracer = _CURRENT
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, **args)


def instant(name: str, cat: str = "", **args: Any) -> None:
    tracer = _CURRENT
    if tracer is not None:
        tracer.instant(name, cat, **args)


def counter(name: str, values: Dict[str, Any], tid: Optional[int] = None) -> None:
    """Record a counter sample (no-op when tracing is off)."""
    tracer = _CURRENT
    if tracer is not None:
        tracer.counter(name, values, tid=tid)


@contextmanager
def install(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) as the process-wide tracer for
    the duration of the ``with`` block, restoring the previous one after.
    """
    global _CURRENT
    if tracer is None:
        tracer = Tracer()
    previous = _CURRENT
    _CURRENT = tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous
