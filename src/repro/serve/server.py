"""The asyncio HTTP server behind ``repro serve``.

A deliberately small HTTP/1.1 implementation on
``asyncio.start_server`` (stdlib only, one short-lived connection per
request) in front of the admission pipeline:

``draining? → validate → coalesce → rate limit → queue room? → breaker``

* **validate** — bad payloads are 400 with a structured ``rejected``
  body, before they cost a queue slot;
* **coalesce** — a submission whose canonical ``v2:`` cache key matches
  a queued/running job attaches to it (one in-flight computation per
  key; the cross-process file locks in the runner extend the same
  guarantee across servers sharing a cache);
* **rate limit** — per-tenant token bucket, 429 + ``Retry-After``;
* **queue** — bounded; overflow is 429 with a ``Retry-After`` derived
  from observed job durations;
* **breaker** — repeated ``failed`` outcomes trip a circuit breaker
  that sheds load with 503s and half-opens on a probe job.

Endpoints: ``POST /jobs``, ``GET /jobs``, ``GET /jobs/<id>[?wait=s]``
(long-poll; running jobs include journal-derived progress),
``GET /jobs/<id>/events`` (SSE progress stream: queued → admitted →
attempt N → outcome, with heartbeats and ``Last-Event-ID`` resume),
``GET /jobs/<id>/trace`` (the job's assembled span tree),
``GET /healthz``, ``GET /readyz``, ``GET /metrics`` (OpenMetrics with
RED/SLO latency histograms whose bucket exemplars carry trace ids).

**Distributed tracing** — every admitted job gets a
:class:`~repro.profiling.tracer.TraceContext`: parsed from the client's
``traceparent`` header when present (the server's job span then parents
under the client's span), minted otherwise.  The context is threaded
through the executor and the work pool to the worker process, whose
spans ship back and re-root under the job's execute span — one
connected span tree per request across server and worker processes.
Tracing is **passive**: span recording happens at settle time from
timestamps the job already carries, and disabling it (``--no-trace``)
changes no outcome, record or journal-entry byte.

Every response a client can observe carries a JSON body with a terminal
``outcome`` (or the job's current state); an exception anywhere in
request handling degrades to a structured 500 body, never a bare socket
reset.  SIGTERM/SIGINT begin a graceful drain: admission stops
(``rejected``/``draining``), queued and running jobs get
``drain_timeout_s`` to finish, stragglers still queued are resolved as
``rejected``, and the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import itertools
import json
import logging
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.profiling import tracer
from repro.profiling.tracer import TraceContext, assemble_tree, new_span_id
from repro.runtime import Journal, default_journal_path, read_events, read_journal
from repro.serve.admission import RateLimiter, retry_after_for_queue
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.executor import JobExecutor
from repro.serve.jobs import (
    REJECT_BAD_REQUEST,
    REJECT_BREAKER_OPEN,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    Job,
    JobValidationError,
    resolve_spec,
)
from repro.serve.metrics import ServeMetrics

LOG = logging.getLogger("repro.serve")

JSON_TYPE = "application/json; charset=utf-8"
METRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: (status, extra headers, content type, body bytes)
Response = Tuple[int, List[Tuple[str, str]], str, bytes]


@dataclass
class ServeConfig:
    """Knobs of one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral; resolved port on the server
    jobs: int = 1                     # executor slots (worker processes when > 1)
    queue_max: int = 16               # bounded job queue
    rate: float = 0.0                 # per-tenant submissions/s; 0 disables
    burst: Optional[float] = None     # bucket size; default 2×rate
    breaker_threshold: int = 5        # consecutive failures that trip the breaker
    breaker_cooldown_s: float = 30.0
    drain_timeout_s: float = 10.0
    cache_path: Optional[str] = None  # None → REPRO_CACHE / repo default
    default_scale: int = 1
    wait_cap_s: float = 60.0          # max honoured ?wait= long-poll
    trace: bool = True                # distributed tracing (spans + /trace)
    sse_heartbeat_s: float = 10.0     # SSE comment-heartbeat interval
    trace_jobs_max: int = 256         # settled traces kept in memory


def _json(status: int, payload: Dict[str, Any],
          headers: Optional[List[Tuple[str, str]]] = None) -> Response:
    return status, headers or [], JSON_TYPE, json.dumps(payload).encode("utf-8")


class ReproServer:
    """One serve instance: admission, queue, workers, drain."""

    def __init__(self, config: Optional[ServeConfig] = None):
        from repro.experiments.runner import default_cache_path

        self.config = config or ServeConfig()
        self.cache_path = (
            self.config.cache_path
            if self.config.cache_path is not None
            else default_cache_path()
        )
        self.journal_path = (
            default_journal_path(self.cache_path) if self.cache_path else None
        )
        self.journal = Journal(self.journal_path)
        self.tracer: Optional[tracer.Tracer] = (
            tracer.Tracer() if self.config.trace else None
        )
        self._settled_traces: "collections.deque[str]" = collections.deque()
        self.metrics = ServeMetrics()
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self.executor = JobExecutor(self.config.jobs)
        self.draining = False
        self.port: Optional[int] = None
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}   # cache key -> queued/running job
        self._running = 0
        self._ids = itertools.count(1)
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._server: Optional[asyncio.Server] = None
        self._drain_started: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the worker tasks."""
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=max(1, self.config.queue_max))
        self._drain_started = asyncio.Event()
        self._stopped = asyncio.Event()
        self._workers = [
            loop.create_task(self._worker()) for _ in range(max(1, self.config.jobs))
        ]
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self, install_signals: bool = True,
                  ready: Optional[Callable[[], Any]] = None) -> None:
        """Start, serve until a drain is triggered, drain, return."""
        # The server's tracer is the process-wide one for its lifetime:
        # inline execution and the runner's instrumentation record onto
        # it directly, and work-pool workers merge their spans into it.
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(tracer.install(self.tracer))
            await self.start()
            if install_signals:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.begin_drain)
                    except (NotImplementedError, RuntimeError, ValueError):
                        pass  # non-main thread / unsupported platform
            LOG.info("repro serve listening on http://%s:%d (jobs=%d queue=%d)",
                     self.config.host, self.port, self.config.jobs,
                     self.config.queue_max)
            if ready is not None:
                ready()
            assert self._drain_started is not None
            await self._drain_started.wait()
            await self._drain()

    def begin_drain(self) -> None:
        """Stop admitting and let in-flight work finish (idempotent;
        safe from a signal handler on the server's loop)."""
        if self.draining:
            return
        self.draining = True
        self.metrics.draining = 1
        if self._drain_started is not None:
            self._drain_started.set()

    async def _quiesced(self) -> None:
        assert self._queue is not None
        while not (self._queue.empty() and self._running == 0):
            await asyncio.sleep(0.02)

    async def _drain(self) -> None:
        assert self._queue is not None and self._stopped is not None
        LOG.info("draining: %d queued, %d running (timeout %.1fs)",
                 self._queue.qsize(), self._running, self.config.drain_timeout_s)
        try:
            await asyncio.wait_for(self._quiesced(), self.config.drain_timeout_s)
        except asyncio.TimeoutError:
            LOG.warning("drain timeout: resolving still-queued jobs as rejected")
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not job.terminal:
                self._inflight.pop(job.key, None)
                job.finish("rejected", "drained before execution")
                self.metrics.record_outcome("rejected")
                self._record_job_trace(job)
            self._queue.task_done()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        # A job still executing past the drain timeout loses its worker
        # coroutine above; resolve it so no job ever ends non-terminal.
        for job in self._jobs.values():
            if not job.terminal:
                self._inflight.pop(job.key, None)
                job.finish("rejected", "drain timeout expired while running")
                self.metrics.record_outcome("rejected")
                self._record_job_trace(job)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.executor.close)
        self.metrics.queue_depth = 0
        LOG.info("drained; all jobs resolved")
        self._stopped.set()

    # -- submission pipeline -------------------------------------------------

    def _reject(self, status: int, reason: str,
                retry_after_s: Optional[float] = None,
                detail: str = "") -> Response:
        self.metrics.record_rejection(reason)
        headers: List[Tuple[str, str]] = []
        if retry_after_s is not None:
            headers.append(("Retry-After", str(max(1, int(round(retry_after_s))))))
        payload = {"outcome": "rejected", "reason": reason}
        if detail:
            payload["detail"] = detail
        if retry_after_s is not None:
            payload["retry_after_s"] = max(1, int(round(retry_after_s)))
        return _json(status, payload, headers)

    def _submit(self, body: bytes,
                headers: Optional[Dict[str, str]] = None) -> Response:
        assert self._queue is not None
        self.metrics.submissions += 1
        if self.draining:
            return self._reject(503, REJECT_DRAINING,
                                retry_after_s=self.config.drain_timeout_s,
                                detail="server is draining")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            spec = resolve_spec(payload, default_scale=self.config.default_scale)
        except (JobValidationError, UnicodeDecodeError, ValueError) as exc:
            return self._reject(400, REJECT_BAD_REQUEST, detail=str(exc))

        key = spec.cache_key()
        existing = self._inflight.get(key)
        if existing is not None and not existing.terminal:
            existing.submissions += 1
            self.metrics.coalesced += 1
            return _json(200, existing.as_dict())

        admitted, retry_after = self.limiter.admit(spec.tenant)
        if not admitted:
            return self._reject(429, REJECT_RATE_LIMITED, retry_after_s=retry_after,
                                detail=f"tenant {spec.tenant!r} over rate limit")
        if self._queue.full():
            return self._reject(
                429, REJECT_QUEUE_FULL,
                retry_after_s=retry_after_for_queue(
                    self._queue.qsize(), self.config.jobs,
                    self.metrics.avg_job_seconds(),
                ),
                detail="job queue is full",
            )
        allowed, retry_after = self.breaker.allow()
        self._sync_breaker_metrics()
        if not allowed:
            return self._reject(503, REJECT_BREAKER_OPEN, retry_after_s=retry_after,
                                detail="circuit breaker is open")

        job = Job(id=f"j{next(self._ids):06d}", spec=spec, key=key)
        if self.tracer is not None:
            # Continue the caller's trace when it sent a valid
            # traceparent header; mint a fresh root trace otherwise.
            incoming = TraceContext.parse((headers or {}).get("traceparent"))
            if incoming is not None:
                job.trace_id = incoming.trace_id
                job.parent_span = incoming.span_id
            else:
                job.trace_id = tracer.new_trace_id()
            job.root_span = new_span_id()
            job.exec_span = new_span_id()
            job.submitted_us = self.tracer.now_us()
        job.add_event("admitted", tenant=spec.tenant, key=key)
        job.add_event("queued", position=self._queue.qsize())
        self._jobs[job.id] = job
        self._inflight[key] = job
        # full() was checked above and nothing awaited since: cannot raise.
        self._queue.put_nowait(job)
        self.metrics.admitted += 1
        self.metrics.queue_depth = self._queue.qsize()
        return _json(202, job.as_dict())

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                if not job.terminal:
                    await self._run_job(loop, job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # belt and braces: workers must not die
                LOG.warning("serve worker error on %s: %r", job.id, exc)
                if not job.terminal:
                    self._settle(job, {
                        "outcome": "failed",
                        "reason": f"serve worker error: {exc!r}",
                    })
            finally:
                self._queue.task_done()
                self.metrics.queue_depth = self._queue.qsize()

    async def _run_job(self, loop: asyncio.AbstractEventLoop, job: Job) -> None:
        job.state = "running"
        job.started_ts = time.time()
        if self.tracer is not None:
            job.started_us = self.tracer.now_us()
        job.add_event("started")
        self._running += 1
        self.metrics.inflight = self._running
        self.metrics.queue_depth = self._queue.qsize() if self._queue else 0
        task = job.spec.task(self.cache_path)
        if self.tracer is not None and job.trace_id:
            # Everything the executor runs parents under the job's
            # execute span, recorded at settle time with this exact id.
            task["traceparent"] = TraceContext(
                job.trace_id, job.exec_span, True
            ).to_header()
        try:
            result = await loop.run_in_executor(
                self.executor.threads, self.executor.run, task,
            )
        finally:
            self._running -= 1
            self.metrics.inflight = self._running
        self._settle(job, result)

    def _settle(self, job: Job, result: Dict[str, Any]) -> None:
        self._inflight.pop(job.key, None)
        job.finish(
            result.get("outcome", "failed"),
            reason=result.get("reason", ""),
            record=result.get("record"),
            attempts=int(result.get("attempts", 0) or 0),
            duration_s=float(result.get("duration_s", 0.0) or 0.0),
            source=result.get("source", ""),
        )
        self.breaker.record(job.outcome)
        self._sync_breaker_metrics()
        self.metrics.record_outcome(job.outcome, job.duration_s)
        self._record_job_trace(job)
        if job.outcome != "completed":
            LOG.info("job %s %s: %s", job.id, job.outcome, job.reason)

    def _record_job_trace(self, job: Job) -> None:
        """Close the job's spans, observe phase histograms, journal the
        wide event, and prune old traces.  Purely observational."""
        if self.tracer is None or not job.trace_id:
            return
        finished_us = self.tracer.now_us()
        started_us = job.started_us
        queue_s = ((started_us if started_us is not None else finished_us)
                   - job.submitted_us) / 1e6
        exec_s = ((finished_us - started_us) / 1e6
                  if started_us is not None else 0.0)
        total_s = (finished_us - job.submitted_us) / 1e6
        args = {
            "job_id": job.id, "key": job.key, "outcome": job.outcome,
            "tenant": job.spec.tenant, "source": job.source,
        }
        self.tracer.record_span(
            "serve.job", job.submitted_us, finished_us - job.submitted_us,
            cat="serve", args=args, trace_id=job.trace_id,
            span_id=job.root_span, parent_id=job.parent_span,
        )
        self.tracer.record_span(
            "serve.queue_wait", job.submitted_us, queue_s * 1e6,
            cat="serve", trace_id=job.trace_id,
            span_id=new_span_id(), parent_id=job.root_span,
        )
        if started_us is not None:
            self.tracer.record_span(
                "serve.execute", started_us, exec_s * 1e6,
                cat="serve", args={"source": job.source},
                trace_id=job.trace_id,
                span_id=job.exec_span, parent_id=job.root_span,
            )
        self.metrics.record_job_phase("queue", job.outcome, queue_s, job.trace_id)
        if started_us is not None:
            self.metrics.record_job_phase("exec", job.outcome, exec_s, job.trace_id)
        self.metrics.record_job_phase("total", job.outcome, total_s, job.trace_id)
        # The span-close wide event: everything needed to reconstruct
        # the job post-hoc from rotated journal segments alone.
        wide = {
            "event": "span", "span": "serve.job", "trace": job.trace_id,
            "span_id": job.root_span, "parent_id": job.parent_span,
            "job_id": job.id, "key": job.key, "tenant": job.spec.tenant,
            "outcome": job.outcome, "source": job.source,
            "attempts": job.attempts, "queue_s": round(queue_s, 6),
            "exec_s": round(exec_s, 6), "total_s": round(total_s, 6),
        }
        try:
            loop = asyncio.get_running_loop()
            loop.run_in_executor(None, self.journal.event, wide)
        except RuntimeError:
            self.journal.event(wide)
        # Bound tracer memory: drop the spans of long-settled traces.
        self._settled_traces.append(job.trace_id)
        while len(self._settled_traces) > max(1, self.config.trace_jobs_max):
            self.tracer.drop_trace(self._settled_traces.popleft())

    def _sync_breaker_metrics(self) -> None:
        self.metrics.breaker_state = self.breaker.state
        self.metrics.breaker_transitions = self.breaker.transitions

    # -- status / introspection ----------------------------------------------

    def _journal_progress(self, key: str) -> Dict[str, Any]:
        """Attempt history for one key from the on-disk run journal."""
        if not self.journal_path:
            return {}
        entries = [e for e in read_journal(self.journal_path) if e.key == key]
        if not entries:
            return {"entries": 0}
        last = entries[-1]
        return {
            "entries": len(entries),
            "attempts": sum(e.attempts for e in entries),
            "last_outcome": last.outcome,
            "last_source": last.source,
        }

    async def _merge_attempt_events(self, job: Job) -> None:
        """Fold the runner's journalled per-attempt wide events into the
        job's event log (deduplicated by attempt number), so the SSE
        stream shows ``attempt N`` progress even though attempts happen
        in another process."""
        if not self.journal_path or not job.trace_id:
            return
        loop = asyncio.get_running_loop()
        try:
            events = await loop.run_in_executor(
                None, read_events, self.journal_path, job.trace_id
            )
        except OSError:
            return
        for raw in events:
            if raw.get("event") != "attempt":
                continue
            try:
                attempt = int(raw.get("attempt", 0))
            except (TypeError, ValueError):
                continue
            if attempt <= 0 or attempt in job.attempts_seen:
                continue
            job.attempts_seen.add(attempt)
            job.add_event("attempt", attempt=attempt,
                          worker=str(raw.get("worker", "")))

    def _job_trace(self, job_id: str) -> Response:
        """The job's assembled span tree (``GET /jobs/<id>/trace``)."""
        job = self._jobs.get(job_id)
        if job is None:
            return _json(404, {"outcome": "rejected", "reason": "unknown job id",
                               "job_id": job_id})
        if self.tracer is None or not job.trace_id:
            return _json(404, {"outcome": "rejected",
                               "reason": "tracing is disabled",
                               "job_id": job_id})
        spans = self.tracer.trace_spans(job.trace_id)
        tree = assemble_tree(spans)
        return _json(200, {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "complete": job.terminal,
            "roots": len(tree),
            "spans": spans,
            "tree": tree,
        })

    async def _job_status(self, job_id: str, query: Dict[str, List[str]]) -> Response:
        job = self._jobs.get(job_id)
        if job is None:
            return _json(404, {"outcome": "rejected", "reason": "unknown job id",
                               "job_id": job_id})
        wait = 0.0
        if query.get("wait"):
            try:
                wait = min(max(0.0, float(query["wait"][0])), self.config.wait_cap_s)
            except ValueError:
                return _json(400, {"outcome": "rejected",
                                   "reason": REJECT_BAD_REQUEST,
                                   "detail": "'wait' must be a number of seconds"})
        if wait > 0 and not job.terminal:
            try:
                await asyncio.wait_for(job.done.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass
        payload = job.as_dict()
        if not job.terminal and self.journal_path:
            loop = asyncio.get_running_loop()
            payload["progress"] = await loop.run_in_executor(
                None, self._journal_progress, job.key
            )
        return _json(200, payload)

    def _health(self) -> Response:
        return _json(200, {
            "status": "ok",
            "draining": self.draining,
            "breaker": self.breaker.as_dict(),
            "queued": self._queue.qsize() if self._queue else 0,
            "running": self._running,
        })

    def _ready(self) -> Response:
        ready = not self.draining and self.breaker.state != OPEN
        payload = {
            "ready": ready,
            "draining": self.draining,
            "breaker": self.breaker.state,
        }
        return _json(200 if ready else 503, payload)

    # -- HTTP plumbing -------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes,
                     headers: Optional[Dict[str, str]] = None) -> Response:
        split = urllib.parse.urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(split.query)
        if method == "POST" and path == "/jobs":
            return self._submit(body, headers)
        if method == "GET" and path == "/jobs":
            jobs = [job.as_dict() for job in self._jobs.values()]
            return _json(200, {"jobs": jobs, "count": len(jobs)})
        if method == "GET" and path.startswith("/jobs/") and path.endswith("/trace"):
            return self._job_trace(path[len("/jobs/"):-len("/trace")])
        if method == "GET" and path.startswith("/jobs/"):
            return await self._job_status(path[len("/jobs/"):], query)
        if method == "GET" and path == "/healthz":
            return self._health()
        if method == "GET" and path == "/readyz":
            return self._ready()
        if method == "GET" and path == "/metrics":
            return 200, [], METRICS_TYPE, self.metrics.render().encode("utf-8")
        return _json(404, {"outcome": "rejected",
                           "reason": f"no such endpoint: {method} {path}"})

    @staticmethod
    def _endpoint_of(path: str) -> str:
        """Normalize a path for the request-latency histogram labels
        (job ids collapse so cardinality stays bounded)."""
        if path in ("/jobs", "/healthz", "/readyz", "/metrics"):
            return path
        if path.startswith("/jobs/"):
            if path.endswith("/events"):
                return "/jobs/{id}/events"
            if path.endswith("/trace"):
                return "/jobs/{id}/trace"
            return "/jobs/{id}"
        return "other"

    @staticmethod
    def _sse_target(method: str, target: str) -> Optional[Tuple[str, Dict[str, List[str]]]]:
        """``(job_id, query)`` when the request is the SSE endpoint."""
        if method != "GET":
            return None
        split = urllib.parse.urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if not (path.startswith("/jobs/") and path.endswith("/events")):
            return None
        job_id = path[len("/jobs/"):-len("/events")]
        return job_id, urllib.parse.parse_qs(split.query)

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str,
                             query: Dict[str, List[str]],
                             headers: Dict[str, str]) -> None:
        """``GET /jobs/<id>/events`` — SSE progress stream.

        Frames are ``id:``/``event:``/``data: <json>``; idle periods
        emit ``: heartbeat`` comment lines so proxies and clients can
        tell a slow job from a dead connection.  ``Last-Event-ID`` (the
        header a reconnecting EventSource sends, or the
        ``last_event_id`` query parameter) resumes after the given
        event id.  The stream ends after the terminal ``outcome`` event.
        """
        job = self._jobs.get(job_id)
        if job is None:
            status, extra, ctype, payload = _json(
                404, {"outcome": "rejected", "reason": "unknown job id",
                      "job_id": job_id})
            self._write_response(writer, status, extra, ctype, payload)
            await writer.drain()
            return
        last_sent = 0
        raw_last = headers.get("last-event-id") or (
            query.get("last_event_id", [None])[0]
        )
        if raw_last:
            try:
                last_sent = max(0, int(raw_last))
            except ValueError:
                pass
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        heartbeat_s = max(0.2, self.config.sse_heartbeat_s)
        poll_s = 0.05
        idle = 0.0
        while True:
            if not job.terminal:
                await self._merge_attempt_events(job)
            fresh = [e for e in job.events if e["id"] > last_sent]
            if fresh:
                idle = 0.0
                for event in fresh:
                    frame = (
                        f"id: {event['id']}\n"
                        f"event: {event['event']}\n"
                        f"data: {json.dumps(event)}\n\n"
                    )
                    writer.write(frame.encode("utf-8"))
                    last_sent = event["id"]
                await writer.drain()
            if job.terminal and last_sent >= len(job.events):
                return
            await asyncio.sleep(poll_s)
            idle += poll_s
            if idle >= heartbeat_s:
                idle = 0.0
                writer.write(b": heartbeat\n\n")
                await writer.drain()

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        extra: List[Tuple[str, str]], ctype: str,
                        payload: bytes) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        started = time.monotonic()
        method = ""
        endpoint = "other"
        try:
            try:
                request = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if not request:
                    return
                parts = request.decode("latin-1").split()
                if len(parts) < 2:
                    raise ValueError(f"malformed request line: {request!r}")
                method, target = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length") or 0)
                body = await reader.readexactly(length) if length > 0 else b""
                endpoint = self._endpoint_of(
                    urllib.parse.urlsplit(target).path.rstrip("/") or "/"
                )
                sse = self._sse_target(method, target)
                if sse is not None:
                    # Streaming response: no Content-Length, incremental
                    # writes; a mid-stream disconnect lands in the
                    # ConnectionError arm below like any other reset.
                    await self._stream_events(writer, sse[0], sse[1], headers)
                    return
                status, extra, ctype, payload = await self._route(
                    method, target, body, headers
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # The no-bare-500 guarantee: even a handler bug yields a
                # structured outcome body.
                LOG.warning("request failed: %r", exc)
                status, extra, ctype, payload = _json(
                    500, {"outcome": "failed", "reason": f"server error: {exc!r}"}
                )
            self._write_response(writer, status, extra, ctype, payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if method:
                self.metrics.record_request(
                    endpoint, method, time.monotonic() - started,
                    trace_id=self._exemplar_trace(locals().get("payload")),
                )
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    def _exemplar_trace(payload: Optional[bytes]) -> str:
        """Extract a trace id from a JSON response body for histogram
        exemplars (best effort — absent ids just mean no exemplar)."""
        if not payload or b'"trace_id"' not in payload:
            return ""
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return ""
        if isinstance(parsed, dict):
            return str(parsed.get("trace_id") or "")
        return ""


class ServerHandle:
    """A :class:`ReproServer` on a background thread (tests, embedding).

    ``start()`` blocks until the socket is bound (``.port`` is then
    real); ``stop()`` triggers the same graceful drain SIGTERM would and
    joins the thread.  Usable as a context manager.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.server = ReproServer(config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("repro serve thread did not start in time")
        if self._error is not None:
            raise RuntimeError(f"repro serve failed to start: {self._error!r}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._error = exc
        finally:
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()

        def ready() -> None:
            self._started.set()

        await self.server.run(install_signals=False, ready=ready)

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.begin_drain)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def main(argv: Optional[List[str]] = None) -> int:
    """``repro serve`` CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve simulation jobs over HTTP/JSON with admission control, "
            "request coalescing, a circuit breaker and graceful drain."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: ephemeral; the bound port is printed)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="executor slots; >1 fans jobs across worker processes")
    parser.add_argument("--queue-max", type=int, default=16,
                        help="bounded queue size (overflow returns 429)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="per-tenant submissions/second (0 disables rate limiting)")
    parser.add_argument("--burst", type=float, default=None,
                        help="token bucket burst (default: 2x rate)")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        help="consecutive failed jobs that open the circuit breaker")
    parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                        help="seconds the breaker stays open before a probe job")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds SIGTERM waits for in-flight jobs before exiting")
    parser.add_argument("--cache", default=None,
                        help="run-cache path (default: REPRO_CACHE / repo cache)")
    parser.add_argument("--scale", type=int, default=1,
                        help="default device scale for jobs that omit one")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable distributed tracing (spans, /jobs/<id>/trace)")
    parser.add_argument("--sse-heartbeat", type=float, default=10.0,
                        help="seconds between SSE comment heartbeats on idle streams")
    args = parser.parse_args(argv)

    from repro.cli import configure_logging

    configure_logging()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=max(1, args.jobs),
        queue_max=max(1, args.queue_max),
        rate=args.rate,
        burst=args.burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        drain_timeout_s=args.drain_timeout,
        cache_path=args.cache,
        default_scale=max(1, args.scale),
        trace=not args.no_trace,
        sse_heartbeat_s=max(0.2, args.sse_heartbeat),
    )
    server = ReproServer(config)

    def ready() -> None:
        print(f"repro serve listening on http://{config.host}:{server.port}",
              flush=True)

    try:
        asyncio.run(server.run(ready=ready))
    except KeyboardInterrupt:
        pass
    return 0
