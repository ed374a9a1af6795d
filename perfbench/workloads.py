"""The benchmark's three workloads, their inputs and output checks.

Every input comes from the program's own seeded generator
(``SchemaGenerator.generate`` / ``.perturb``, which also yields the
gold mapping), seeded from the benchmark's ``--seed``; the program only
ever sees the generated schemas.

* ``match-large`` — one fresh ``CupidMatcher().match`` per op on a
  related 640-leaf pair: the cold ``repro match`` shape, where the
  auto store picks the blocked store and TreeMatch plus mapping do
  most of the work.
* ``batch-warm`` — one long-lived ``MatchSession`` holding
  ``MEDIATED_SCHEMAS`` duplicate-heavy 160-leaf mediated schemas, each
  matched in turn against a new perturbed candidate of itself per op;
  a latency sample is the mean per-target time of one round over all
  of them.
  The source tier and token memo are warm, the pair lsim cache always
  misses, and the store is flat.
* ``serve-mixed`` — the real HTTP daemon in its own process over a
  fresh 64-schema repository, driven in a closed loop by two client
  connections: distinct ``/search`` queries with one ``/ingest`` of a
  never-queried family member every ``INGEST_EVERY`` ops, sent while
  no search is in flight.
"""

from __future__ import annotations

import collections
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import CupidMatcher, MatchSession, SchemaRepository
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.eval.metrics import evaluate_mapping
from repro.io.json_io import schema_to_dict

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))

PERTURBATION = PerturbationConfig(
    abbreviate=0.3, synonym=0.25, prefix_suffix=0.1, retype=0.05
)

LARGE_LEAVES = 640
MEDIATED_LEAVES = 160
#: With this few distinct names one mediated schema's match cost varies
#: up to 2x from seed to seed; rotating over several keeps a run's
#: median a property of the program rather than of one draw.
MEDIATED_SCHEMAS = 4
PARITY_LEAVES = 40

#: serve-mixed corpus: FAMILIES × (base + VARIANTS siblings), plus
#: EXTRA_FAMILIES whose members are only ever ingested, never queried.
FAMILIES = 16
VARIANTS = 3
EXTRA_FAMILIES = 4
SEARCH_K = 4
SEARCH_CANDIDATES = 4
#: Every INGEST_EVERY-th op of the closed loop is an /ingest.
INGEST_EVERY = 10
CLIENTS = 2
DAEMON_SESSIONS = 2

#: The sessions of batch-warm and serve-mixed keep every schema they
#: have prepared (``max_prepared_schemas`` defaults to unbounded), so
#: their memory grows with the ops served. Peak RSS is read once this
#: many ops have been answered, so that it measures a fixed amount of
#: work rather than how many ops the host let a run finish; a run that
#: ends sooner reads it at its end.
RSS_AFTER_OPS = {"batch-warm": 64, "serve-mixed": 256}

#: Quality floors (F1 vs gold, or share of top-k hits from the query's
#: own family), set below every value measured over seeds 0-19 at the
#: commit that introduced the benchmark (lowest: match-large 0.970,
#: batch-warm 0.957, serve-mixed 0.977). A run below its floor fails.
QUALITY_FLOOR = {
    "match-large": 0.95,
    "batch-warm": 0.93,
    "serve-mixed": 0.95,
}

#: Bounds on waits that could otherwise hang a run.
CLIENT_TIMEOUT_S = 60.0
DAEMON_READY_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0
#: Non-2xx bodies (or exceptions) kept per run for the output.
KEPT_FAILURES = 5


def subseed(seed: int, stream: str, index: int = 0) -> int:
    """A generator seed for one input stream, derived from ``seed``."""
    digest = hashlib.sha256(f"{seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def related_pair(seed: int, stream: str, n_leaves: int, max_depth: int):
    """(source, perturbed target, gold) for one seeded pair."""
    source = SchemaGenerator(subseed(seed, stream + "-source")).generate(
        name=stream + "_source", n_leaves=n_leaves, max_depth=max_depth,
        name_repetition=0.4,
    )
    target, gold = SchemaGenerator(subseed(seed, stream + "-target")).perturb(
        source, PERTURBATION
    )
    target.name = stream + "_target"
    return source, target, gold


def large_pair(seed: int):
    return related_pair(seed, "large", LARGE_LEAVES, max_depth=4)


def mediated_schema(seed: int, index: int):
    return SchemaGenerator(subseed(seed, "mediated", index)).generate(
        name=f"mediated{index}", n_leaves=MEDIATED_LEAVES, max_depth=4,
        name_repetition=0.9,
    )


def candidate(seed: int, mediated, index: int):
    schema, gold = SchemaGenerator(subseed(seed, "candidate", index)).perturb(
        mediated, PERTURBATION
    )
    schema.name = f"candidate{index}"
    return schema, gold


def family_bases(seed: int, prefix: str, count: int):
    return [
        SchemaGenerator(subseed(seed, prefix, family)).generate(
            name=f"{prefix}{family:02d}",
            n_leaves=16 + (family % 4) * 6,
            max_depth=3,
            name_repetition=0.4,
        )
        for family in range(count)
    ]


def sibling(seed: int, base, stream: str, index: int, name: str):
    schema, _ = SchemaGenerator(subseed(seed, stream, index)).perturb(
        base, PERTURBATION
    )
    schema.name = name
    return schema


# ----------------------------------------------------------------------
# Run context: environment, scratch space, child processes
# ----------------------------------------------------------------------

class Context:
    """What a run owns: the checkout, a scratch directory inside it,
    the environment children get, and every child process still live.
    :meth:`close` stops and removes all of it, on every exit path."""

    def __init__(self, root: str, env: Dict[str, str]) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = env
        self.scratch = os.path.join(root, ".perfbench_tmp")
        self._dirs: List[str] = []
        self._procs: List[subprocess.Popen] = []
        self._lock = threading.Lock()

    def make_dir(self) -> str:
        os.makedirs(self.scratch, exist_ok=True)
        path = tempfile.mkdtemp(dir=self.scratch)
        with self._lock:
            self._dirs.append(path)
        return path

    def remove_dir(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)
        with self._lock:
            if path in self._dirs:
                self._dirs.remove(path)

    def spawn(self, argv: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, cwd=self.root, **kwargs)
        with self._lock:
            self._procs.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> None:
        with self._lock:
            if proc in self._procs:
                self._procs.remove(proc)

    def kill_all(self) -> None:
        """Kill every live child and wait for it (the emergency path)."""
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            self.reap(proc)

    def close(self) -> None:
        self.kill_all()
        with self._lock:
            dirs = list(self._dirs)
        for path in dirs:
            self.remove_dir(path)
        try:
            os.rmdir(self.scratch)
        except OSError:
            pass  # absent, or another run's directory is still in it


# ----------------------------------------------------------------------
# Outcome of one workload run
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    workload: str
    setup_s: List[float]
    latencies_ms: List[float]
    quality: float
    attempted: int
    failed: int
    peak_rss_mb: float
    named: Dict[str, Tuple[float, str]]
    failures: List[Dict[str, object]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.latencies_ms)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "latency_p50_ms": self.p50_ms,
            "quality": self.quality,
            "success_frac": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": self.peak_rss_mb,
        }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def _failure(kind: str, status, body: str) -> Dict[str, object]:
    return {"op": kind, "status": status, "body": body[:500]}


class CpuRotation:
    """Moves the calling thread to the next CPU of its affinity set.

    On a shared host each vCPU's speed drifts on its own (by up to 1.6x
    for tens of seconds on a 2-vCPU VM), so a single-threaded op reads the speed of
    whichever vCPU it happens to sit on. The daemon's threads hop
    between vCPUs and average them; rotating the in-process workload's
    matches over the vCPUs does the same for it. :meth:`restore` puts
    the original affinity back."""

    def __init__(self) -> None:
        self._home = (os.sched_getaffinity(0)
                      if hasattr(os, "sched_getaffinity") else set())
        self._cpus = sorted(self._home)
        self._turn = 0

    def advance(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
            self._turn += 1

    def restore(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, self._home)


def _check_quality(outcome: Outcome) -> None:
    floor = QUALITY_FLOOR[outcome.workload]
    if not outcome.quality >= floor:
        outcome.problems.append(
            f"quality {outcome.quality:.4f} below the floor {floor}"
        )


def _layers_in_process(recorder: layertrace.SpanRecorder) -> Dict[str, float]:
    snapshot = recorder.snapshot()
    layers = layertrace.layer_metrics(snapshot["spans"], snapshot["runs"])
    # No daemon, so nothing is rejected, timed out or served.
    layers.update({
        "serving.rejected": 0.0,
        "serving.timeouts": 0.0,
        "serving.errors": 0.0,
        "serving.prepare_hit_rate": 0.0,
    })
    return layers


# ----------------------------------------------------------------------
# Output check shared by every run
# ----------------------------------------------------------------------

def parity_problem(seed: int) -> Optional[str]:
    """Match a small seeded pair on the default and the reference
    engine; their leaf mappings must be bit-identical."""
    source, target, _ = related_pair(seed, "parity", PARITY_LEAVES, 3)

    def signature(config):
        result = CupidMatcher(config=config).match(source, target)
        return [(e.source_path, e.target_path, e.similarity)
                for e in result.leaf_mapping]

    default = signature(None)
    reference = signature(CupidConfig().replace(engine="reference"))
    if default != reference:
        return (
            f"default and reference engines disagree on the parity pair "
            f"({len(default)} vs {len(reference)} leaf mappings)"
        )
    return None


# ----------------------------------------------------------------------
# match-large
# ----------------------------------------------------------------------

_COLD_SETUP = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.large_pair(int(sys.argv[3]))"
)


def match_large(ctx: Context, seed: int, seconds: float, repeats: int,
                traced: bool) -> Outcome:
    # Set-up is the cold CLI's: a fresh interpreter importing the
    # program and building the pair.
    setup = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = ctx.spawn(
            [sys.executable, "-c", _COLD_SETUP, HERE, ctx.src, str(seed)],
            stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=120)
        finally:
            ctx.reap(proc)
        if code != 0:
            raise RuntimeError(f"cold set-up exited with code {code}")
        setup.append(time.monotonic() - start)
    source, target, gold = large_pair(seed)

    recorder = layertrace.SpanRecorder() if traced else None
    latencies, f1s, stores, failures = [], [], collections.Counter(), []
    attempted = 0
    if recorder:
        recorder.install()
    try:
        began = time.monotonic()
        while not attempted or time.monotonic() - began < seconds:
            attempted += 1
            start = time.perf_counter()
            try:
                matcher = CupidMatcher()
                result = matcher.match(source, target)
            except Exception as exc:  # counted, never retried
                failures.append(_failure("match", None, repr(exc)))
                continue
            latencies.append((time.perf_counter() - start) * 1000.0)
            f1s.append(evaluate_mapping(result.leaf_mapping, gold).f1)
            stores[matcher.run_stats(result)["store"]] += 1
            # Freed before the next match, so peak RSS holds one store.
            del result
    finally:
        if recorder:
            recorder.uninstall()
    if not latencies:
        raise RuntimeError("every op failed: " + repr(failures[:1]))

    outcome = Outcome(
        workload="match-large",
        setup_s=setup,
        latencies_ms=latencies,
        quality=statistics.fmean(f1s),
        attempted=attempted,
        failed=len(failures),
        peak_rss_mb=peak_rss_mb(),
        named={},
        failures=failures[:KEPT_FAILURES],
        info={"stores": dict(stores), "leaves": LARGE_LEAVES},
    )
    outcome.named = {
        "match_s": (statistics.median(latencies) / 1000.0, "s"),
        "match_f1": (outcome.quality, "ratio"),
    }
    _check_quality(outcome)
    if recorder:
        outcome.layers = _layers_in_process(recorder)
    return outcome


# ----------------------------------------------------------------------
# batch-warm
# ----------------------------------------------------------------------

def batch_warm(ctx: Context, seed: int, seconds: float, repeats: int,
               traced: bool) -> Outcome:
    recorder = layertrace.SpanRecorder() if traced else None
    sources = [mediated_schema(seed, k) for k in range(MEDIATED_SCHEMAS)]
    warm_targets = [candidate(seed, source, -1)[0] for source in sources]
    setup, latencies, f1s = [], [], []
    stores, failures = collections.Counter(), []
    attempted = 0
    rss: Optional[float] = None
    rotation = CpuRotation()
    if recorder:
        recorder.install()
    try:
        for _ in range(repeats):
            start = time.monotonic()
            session = MatchSession()
            for source, warm_target in zip(sources, warm_targets):
                rotation.advance()
                session.prepare(source).build_all()
                session.match(source, warm_target)
            setup.append(time.monotonic() - start)

        began = time.monotonic()
        index = 0
        while not attempted or time.monotonic() - began < seconds:
            # One round: a new candidate for every mediated schema. Their
            # costs differ by up to 1.5x, so single matches would give a
            # multimodal sample whose median jumps between modes.
            round_ms, round_failed = 0.0, False
            for source in sources:
                target, gold = candidate(seed, source, index)
                index += 1
                attempted += 1
                rotation.advance()
                start = time.perf_counter()
                try:
                    result = session.match(source, target)
                except Exception as exc:  # counted, never retried
                    failures.append(_failure("match", None, repr(exc)))
                    round_failed = True
                    continue
                round_ms += (time.perf_counter() - start) * 1000.0
                f1s.append(evaluate_mapping(result.leaf_mapping, gold).f1)
                stores[session.pipeline.run_stats(
                    result, include_memo=False)["store"]] += 1
                del result
                if attempted == RSS_AFTER_OPS["batch-warm"]:
                    rss = peak_rss_mb()
            if not round_failed:
                latencies.append(round_ms / MEDIATED_SCHEMAS)
        cache = session.cache_info()
        if rss is None:
            rss = peak_rss_mb()
    finally:
        rotation.restore()
        if recorder:
            recorder.uninstall()
    if not latencies:
        raise RuntimeError("every op failed: " + repr(failures[:1]))

    outcome = Outcome(
        workload="batch-warm",
        setup_s=setup,
        latencies_ms=latencies,
        quality=statistics.fmean(f1s),
        attempted=attempted,
        failed=len(failures),
        peak_rss_mb=rss,
        named={},
        failures=failures[:KEPT_FAILURES],
        info={
            "stores": dict(stores),
            "targets": len(latencies),
            "rss_after_ops": min(attempted, RSS_AFTER_OPS["batch-warm"]),
            "lsim_hits": cache["lsim_hits"],
            "lsim_misses": cache["lsim_misses"],
        },
    )
    outcome.named = {
        "batch_match_ms": (statistics.median(latencies), "ms"),
        "batch_f1": (outcome.quality, "ratio"),
    }
    _check_quality(outcome)
    if recorder:
        outcome.layers = _layers_in_process(recorder)
    return outcome


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

_SERVING_LINE = re.compile(r"serving .* on http://([^:/\s]+):(\d+)")


class Daemon:
    """``python -m repro serve`` (or the traced launcher) in a child
    process, on an ephemeral port read from its ``serving ...`` line."""

    def __init__(self, ctx: Context, repo_dir: str,
                 spans_path: Optional[str] = None) -> None:
        serve = ["serve", "--repo", repo_dir, "--port", "0",
                 "--sessions", str(DAEMON_SESSIONS)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    spans_path] + serve
        self._ctx = ctx
        self.stderr_tail: collections.deque = collections.deque(maxlen=40)
        self._address: Optional[Tuple[str, int]] = None
        self._announced = threading.Event()
        self.proc = ctx.spawn(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, errors="replace",
        )
        self._reader = threading.Thread(
            target=self._read_stderr, name="daemon-stderr", daemon=True
        )
        self._reader.start()

    def _read_stderr(self) -> None:
        # Drained until EOF so a chatty daemon never blocks on a full pipe.
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip())
            match = _SERVING_LINE.search(line)
            if match and self._address is None:
                self._address = (match.group(1), int(match.group(2)))
                self._announced.set()
        self._announced.set()

    @property
    def port(self) -> int:
        return self._address[1]

    def wait_ready(self) -> None:
        deadline = time.monotonic() + DAEMON_READY_TIMEOUT_S
        if not self._announced.wait(DAEMON_READY_TIMEOUT_S) or (
            self._address is None
        ):
            raise RuntimeError(
                "daemon did not announce its port: "
                + " | ".join(self.stderr_tail)
            )
        while time.monotonic() < deadline:
            try:
                if self.get_json("/health").get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        raise RuntimeError(
            "daemon never became healthy: " + " | ".join(self.stderr_tail)
        )

    def connection(self) -> http.client.HTTPConnection:
        host, port = self._address
        return http.client.HTTPConnection(host, port,
                                          timeout=CLIENT_TIMEOUT_S)

    def get_json(self, path: str) -> dict:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} returned {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful: the daemon drains and flushes), then wait;
        kill if it does not exit in time."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        finally:
            self._reader.join(timeout=10)
            self._ctx.reap(self.proc)


class _ClosedLoop:
    """CLIENTS connections, each sending its next request only after
    the previous reply: op ``i`` is an ingest when ``i % INGEST_EVERY
    == INGEST_EVERY - 1``, otherwise a search for a fresh sibling of
    family ``i % FAMILIES``.

    An ingest is sent only while no search is in flight, and no search
    is sent until it is answered. The daemon's ingest persists the
    similarity cache by iterating the shared name-similarity memo,
    which concurrent searches insert into; overlapping the two fails
    the ingest now and then (500 ``RuntimeError: dictionary changed
    size during iteration``), and a benchmark op must not fail at
    random. Searches still overlap each other on both connections.
    """

    def __init__(self, daemon: Daemon, seed: int, bases, extras,
                 seconds: float) -> None:
        self.daemon = daemon
        self.seed = seed
        self.bases = bases
        self.extras = extras
        self.seconds = seconds
        self._lock = threading.Lock()
        self._next_op = 0
        # Exclusive ingests: searches in flight, and whether an ingest
        # holds (or waits for) the daemon.
        self._gate = threading.Condition()
        self._searching = 0
        self._ingesting = False
        self.searches: List[Tuple[float, float]] = []  # (latency ms, recall)
        self.ingests: List[float] = []
        self.attempted = 0
        self.failures: List[Dict[str, object]] = []
        self.failed = 0
        self.problems: List[str] = []
        self.answered = 0
        self.rss_mb: Optional[float] = None

    def _request(self, op: int):
        if op % INGEST_EVERY == INGEST_EVERY - 1:
            number = op // INGEST_EVERY
            family = number % EXTRA_FAMILIES
            schema = sibling(self.seed, self.extras[family], "ingest",
                             number, f"extra{family:02d}m{number}")
            body = {"schemas": [{"schema": schema_to_dict(schema)}]}
            return "ingest", json.dumps(body), family
        family = op % FAMILIES
        query = sibling(self.seed, self.bases[family], "query", op,
                        f"query{op}")
        body = {"schema": schema_to_dict(query), "k": SEARCH_K,
                "candidates": SEARCH_CANDIDATES}
        return "search", json.dumps(body), family

    def _record(self, kind: str, family: int, status, raw: bytes,
                latency_ms: float) -> None:
        if status != 200:
            with self._lock:
                self.failed += 1
                if len(self.failures) < KEPT_FAILURES:
                    self.failures.append(_failure(
                        kind, status, raw.decode("utf-8", "replace")
                    ))
            return
        payload = json.loads(raw)
        if kind == "ingest":
            with self._lock:
                self.ingests.append(latency_ms)
            return
        matches = payload.get("matches", [])
        own = f"family{family:02d}"
        hits = sum(1 for m in matches
                   if m.get("target_schema", "").startswith(own))
        with self._lock:
            if len(matches) != SEARCH_K:
                self.problems.append(
                    f"search returned {len(matches)} matches, not {SEARCH_K}"
                )
            self.searches.append((latency_ms, hits / SEARCH_K))

    def _enter(self, kind: str) -> None:
        """Wait until ``kind`` may be sent (see the class docstring)."""
        with self._gate:
            while self._ingesting:
                self._gate.wait()
            if kind == "ingest":
                self._ingesting = True
                while self._searching:
                    self._gate.wait()
            else:
                self._searching += 1

    def _leave(self, kind: str) -> None:
        with self._gate:
            if kind == "ingest":
                self._ingesting = False
            else:
                self._searching -= 1
            self._gate.notify_all()

    def _client(self, stop_at: float) -> None:
        conn = self.daemon.connection()
        try:
            while time.monotonic() < stop_at:
                with self._lock:
                    op = self._next_op
                    self._next_op += 1
                    self.attempted += 1
                kind, body, family = self._request(op)
                self._enter(kind)
                start = time.monotonic()
                try:
                    conn.request("POST", "/" + kind, body=body, headers={
                        "Content-Type": "application/json"})
                    response = conn.getresponse()
                    raw, status = response.read(), response.status
                except (OSError, http.client.HTTPException) as exc:
                    raw, status = repr(exc).encode(), None
                    conn.close()
                    conn = self.daemon.connection()
                finally:
                    latency_ms = (time.monotonic() - start) * 1000.0
                    self._leave(kind)
                self._record(kind, family, status, raw, latency_ms)
                with self._lock:
                    self.answered += 1
                    if self.answered == RSS_AFTER_OPS["serve-mixed"]:
                        self.rss_mb = peak_rss_mb(self.daemon.proc.pid)
        except Exception as exc:
            with self._lock:
                self.problems.append(f"client crashed: {exc!r}")
        finally:
            conn.close()

    def run(self) -> Tuple[float, float]:
        """Drive traffic for ``seconds``; returns the (start, end)
        monotonic window."""
        began = time.monotonic()
        threads = [
            threading.Thread(target=self._client, args=(began + self.seconds,),
                             name=f"client-{i}", daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.seconds + CLIENT_TIMEOUT_S + 10)
            if thread.is_alive():
                raise RuntimeError("a client connection hung past its timeout")
        return began, time.monotonic()


def serve_mixed(ctx: Context, seed: int, seconds: float, repeats: int,
                traced: bool) -> Outcome:
    bases = family_bases(seed, "family", FAMILIES)
    extras = family_bases(seed, "extra", EXTRA_FAMILIES)
    corpus = []
    for family, base in enumerate(bases):
        corpus.append(base)
        corpus.extend(
            sibling(seed, base, "variant", family * VARIANTS + v,
                    f"family{family:02d}v{v}")
            for v in range(VARIANTS)
        )

    setup: List[float] = []
    daemon: Optional[Daemon] = None
    workdir: Optional[str] = None
    try:
        for _ in range(repeats):
            if daemon is not None:
                daemon.stop()
                ctx.remove_dir(workdir)
            start = time.monotonic()
            workdir = ctx.make_dir()
            repo_dir = os.path.join(workdir, "repo")
            with SchemaRepository(repo_dir) as repo:
                for schema in corpus:
                    repo.ingest(schema)
            spans_path = os.path.join(workdir, "spans.json") if traced else None
            daemon = Daemon(ctx, repo_dir, spans_path)
            daemon.wait_ready()
            setup.append(time.monotonic() - start)

        loop = _ClosedLoop(daemon, seed, bases, extras, seconds)
        began, ended = loop.run()
        rss = loop.rss_mb
        if rss is None:
            rss = peak_rss_mb(daemon.proc.pid)
        stats = daemon.get_json("/stats")
        daemon.stop()
        snapshot = layertrace.load_snapshot(spans_path) if traced else None
    finally:
        if daemon is not None:
            daemon.stop()
        if workdir is not None:
            ctx.remove_dir(workdir)

    if not loop.searches:
        raise RuntimeError("no search succeeded: " + repr(loop.failures))
    latencies = [latency for latency, _ in loop.searches]
    recall = statistics.fmean(r for _, r in loop.searches)
    outcome = Outcome(
        workload="serve-mixed",
        setup_s=setup,
        latencies_ms=latencies,
        quality=recall,
        attempted=loop.attempted,
        failed=loop.failed,
        peak_rss_mb=rss,
        named={},
        failures=loop.failures,
        problems=list(dict.fromkeys(loop.problems)),
        info={
            "searches": len(latencies),
            "ingests": len(loop.ingests),
            "rss_after_ops": min(loop.answered, RSS_AFTER_OPS["serve-mixed"]),
            "clients": CLIENTS,
            "daemon_sessions": DAEMON_SESSIONS,
        },
    )
    outcome.named = {
        "search_qps": (len(latencies) / (ended - began), "1/s"),
        "search_p50_ms": (outcome.p50_ms, "ms"),
        "search_p90_ms": (percentile(latencies, 0.9), "ms"),
        "ingest_p50_ms": (
            statistics.median(loop.ingests) if loop.ingests else 0.0, "ms"
        ),
        "search_recall": (recall, "ratio"),
    }
    _check_quality(outcome)

    if traced:
        spans = layertrace.window(snapshot, began, ended)
        runs = [run for run in snapshot["runs"] if began <= run["t"] <= ended]
        layers = layertrace.layer_metrics(
            spans, runs, client_search_ms=statistics.fmean(latencies)
        )
        outcome.info["stores"] = layertrace.stores_used(runs)
        endpoints = stats["endpoints"]
        pool = stats["session_pool"]
        layers.update({
            "serving.rejected": float(sum(
                e.get("rejected", 0) for e in endpoints.values())),
            "serving.timeouts": float(sum(
                e.get("timeouts", 0) for e in endpoints.values())),
            "serving.errors": float(sum(
                e.get("errors", 0) for e in endpoints.values())),
            "serving.prepare_hit_rate": layertrace.ratio(
                pool.get("prepare_hits", 0),
                pool.get("prepare_hits", 0) + pool.get("prepare_misses", 0),
            ),
        })
        outcome.layers = layers
    return outcome


WORKLOADS = {
    "match-large": match_large,
    "batch-warm": batch_warm,
    "serve-mixed": serve_mixed,
}
