"""The ``serve_mix`` workload: a closed loop against ``repro serve``.

The server runs as a subprocess (``repro serve --jobs 1``) on loopback
with an empty run cache.  Two client threads share one job sequence over
40 small transpose cells (4 devices x 5 variants x n in {64, 128}) with
Zipf popularity, shuffled by the seed; each thread submits its next job
only after the previous one reached a terminal state.  A session sends a
fixed number of jobs.  Most jobs are cache hits or coalesce onto a
running job, so the serve tier and the run cache's reads and writes do
the work.

The exponent and the popularity ranking are chosen, not measured: there
is no trace of real serve traffic to fit them to.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.devices.catalog import DEVICE_KEYS
from repro.kernels import transpose
from repro.runtime import RunCache, canonical_key
from repro.serve.client import ServeClient

SIZES = (64, 128)
ZIPF_S = 1.1
#: Zipf-weighted jobs per round before rounding (every cell gets >= 1).
ROUND_WEIGHT = 60
CLIENT_THREADS = 2
#: Jobs a session issues per second of ``--seconds``: about the rate the
#: workload ran at on the host in README.md, so that a session lasts about
#: ``--seconds`` there and its length moves with the program's speed.
JOBS_PER_SECOND = 15


def cells() -> List[Dict]:
    """The 40 cells in popularity order (rank 0 is the most requested).

    Rank ``r`` takes variant ``r mod 5`` and device ``r mod 4`` (5 and 4
    are coprime, so the first 20 ranks hold every pair once) and n = 64
    for the first 20 ranks, 128 for the rest: no device's variants fill
    the top ranks only because of the order they are listed in."""
    variants, devices = transpose.VARIANT_ORDER, DEVICE_KEYS
    pairs = len(variants) * len(devices)
    return [
        {"kernel": "transpose", "variant": variants[rank % len(variants)],
         "device": devices[rank % len(devices)], "n": SIZES[rank // pairs]}
        for rank in range(pairs * len(SIZES))
    ]


def ref_key(spec: Dict) -> str:
    """The cell's entry in the reference outputs."""
    return f"serve/{spec['kernel']}/{spec['variant']}/{spec['device']}/{spec['n']}"


def cache_key(spec: Dict) -> str:
    """The cell's run-cache key, as the server's executor forms it."""
    return canonical_key(("serve", spec["kernel"], spec["variant"], spec["device"],
                          1, spec["n"], None, None))


def round_jobs() -> List[Dict]:
    """One round: each cell ``max(1, round(ROUND_WEIGHT * zipf_weight))`` times."""
    ranked = cells()
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    total = sum(weights)
    return [
        spec
        for spec, weight in zip(ranked, weights)
        for _ in range(max(1, round(ROUND_WEIGHT * weight / total)))
    ]


def session_rounds(seconds: float) -> int:
    """Rounds a session of ``--seconds`` issues."""
    return max(1, round(seconds * JOBS_PER_SECOND / len(round_jobs())))


def job_sequence(seed: int, rounds: int) -> List[Dict]:
    """The job specs a run sends, in order: rounds of the same Zipf mix,
    each shuffled by the seeded generator.  Every round holds the same
    jobs, so seeds change the order of the traffic but not its mix."""
    rng = random.Random(seed)
    base = round_jobs()
    sequence: List[Dict] = []
    for _ in range(rounds):
        order = [dict(spec) for spec in base]
        rng.shuffle(order)
        sequence += order
    return sequence


@dataclass
class Job:
    index: int
    spec: Dict
    latency_s: float = 0.0
    ok: bool = False
    source: str = ""
    record: Optional[Dict] = None


@dataclass
class Session:
    wall_s: float
    jobs: List[Job]
    metrics_text: str = ""
    server_hwm_kb: int = 0


class Server:
    """``repro serve --jobs 1`` in a subprocess; ``boot_s`` is the time from
    spawn until it answers ``/readyz``."""

    def __init__(self, root: str, env: Dict[str, str], cache_path: str):
        self._log = open(cache_path + ".serve.log", "w+", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--jobs", "1",
             "--port", "0", "--cache", cache_path, "--queue-max", "64"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServeClient(port=int(match.group(1)), timeout_s=120.0)
        while not self.client.readyz()[0]:
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - start

    def peak_rss_kb(self) -> int:
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def run_session(server: Server, sequence: List[Dict], rec) -> Session:
    """Closed loop over ``sequence``; ``wall_s`` runs from the first
    submit to the last job's terminal state."""
    client = server.client
    jobs: List[Job] = []
    lock = threading.Lock()
    errors: List[BaseException] = []

    def worker(client_index: int) -> None:
        try:
            with rec.span("client", op=f"client{client_index}"):
                client_loop()
        except BaseException as exc:  # noqa: B036 - reported by the caller
            errors.append(exc)

    def client_loop() -> None:
        while True:
            with lock:
                index = len(jobs)
                if index >= len(sequence):
                    return
                job = Job(index, sequence[index])
                jobs.append(job)
            op = f"job{index}"
            t0 = time.perf_counter()
            with rec.span("op", op=op):
                with rec.span("serve.submit"):
                    status, body = client.submit(job.spec)
                if status in (200, 202) and body.get("state") != "done":
                    with rec.span("serve.wait"):
                        body = client.wait(body["job_id"], timeout_s=120.0)
            job.latency_s = time.perf_counter() - t0
            job.ok = body.get("outcome") == "completed" and "record" in body
            job.source = body.get("source", "")
            job.record = body.get("record")

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(CLIENT_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return Session(wall, jobs, client.metrics(), server.peak_rss_kb())


def replay_cache_io(jobs: List[Job], cache_path: str, rec) -> None:
    """The run-cache traffic the server's runner made for ``jobs``, replayed
    in job order against a run cache of the benchmark's own: a lock, a
    reload and a put per fresh record, a get per hit."""
    cache = RunCache(cache_path)
    with rec.span("op", op="cache_io"):
        for job in jobs:
            if not job.ok:
                continue
            key = cache_key(job.spec)
            with rec.span("runtime.cache_io"):
                if job.source == "simulated":
                    lock = cache.key_lock(key)
                    lock.acquire()
                    try:
                        cache.reload(key)
                        cache.put(key, job.record)
                    finally:
                        lock.release()
                else:
                    cache.get(key)


_SAMPLE = re.compile(r'^(\w+)(?:\{([^}]*)\})?\s+(\S+)')


def parse_metrics(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    out = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        out.append((match.group(1), labels, float(match.group(3))))
    return out


def histogram_p50_ms(samples, name: str, phase: str) -> float:
    """Median of ``name`` for ``phase`` (all outcomes) from its cumulative
    buckets, interpolated linearly inside the bucket holding it."""
    buckets: Dict[float, float] = {}
    for metric, labels, value in samples:
        if metric == f"{name}_bucket" and labels.get("phase") == phase:
            bound = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            buckets[bound] = buckets.get(bound, 0.0) + value
    if not buckets:
        return 0.0
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    half = total / 2.0
    prev_bound, prev_count = 0.0, 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= half:
            if bound == float("inf"):
                return prev_bound * 1e3
            share = (half - prev_count) / (count - prev_count) if count > prev_count else 1.0
            return (prev_bound + share * (bound - prev_bound)) * 1e3
        prev_bound, prev_count = bound, count
    return 0.0


def counter_total(samples, name: str) -> float:
    return sum(value for metric, _labels, value in samples if metric == name)
