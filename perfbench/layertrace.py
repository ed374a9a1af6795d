"""Layer spans recorded from outside the program.

The benchmark never arms the program's own tracer. Instead, a traced
run replaces a fixed set of public callables (one or more per layer)
with timing wrappers, runs the workload, and puts the originals back.
Each call becomes one span: ``[name, start, end, parent]``, where the
parent is the innermost wrapped call open on the same thread. A
layer's self time is its span's duration minus its children's.

Per-layer metrics are derived from the spans by :func:`layer_metrics`:

* a ``*_ms`` metric is the mean wall time of one call of its
  callable (outermost calls only, so a recursive or nested call of the
  same layer is not counted twice);
* ``pipeline.overhead_ms`` is, per match, the pipeline's wall time
  minus the time of the four stages inside it (its self time);
* ``repository.{index,load,candidate_match}_ms`` are the time spent in
  those callables inside one ``SchemaRepository.search``, per search.

Exact work counters come from the program's public
``MatchPipeline.run_stats`` on every pipeline result.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from typing import Dict, List, Optional

#: (module, class, method, span name). Two callables may share a span
#: name: both are the same layer's work.
LAYER_CALLABLES = (
    ("repro.pipeline.pipeline", "MatchPipeline", "run", "pipeline.run"),
    ("repro.pipeline.session", "MatchSession", "match",
     "pipeline.session_match"),
    ("repro.pipeline.prepared", "PreparedSchema", "build_all",
     "pipeline.prepare"),
    # The per-schema linguistic tier a cold match builds lazily: the
    # same preparation build_all forces eagerly.
    ("repro.linguistic.matcher", "LinguisticMatcher", "prepare",
     "pipeline.prepare"),
    ("repro.pipeline.stages", "LinguisticStage", "run", "linguistic.stage"),
    ("repro.pipeline.stages", "TreeBuildStage", "run", "tree.stage"),
    ("repro.pipeline.stages", "StructuralStage", "run",
     "structure.treematch"),
    ("repro.pipeline.stages", "MappingStage", "run", "mapping.stage"),
    ("repro.repository.store", "SchemaRepository", "search",
     "repository.search"),
    ("repro.repository.index", "VocabularyIndex", "score",
     "repository.index"),
    ("repro.repository.store", "SchemaRepository", "load",
     "repository.load"),
    ("repro.repository.store", "SchemaRepository", "ingest",
     "repository.ingest"),
    ("repro.repository.store", "SchemaRepository", "save",
     "repository.save"),
    ("repro.repository.store", "SchemaRepository", "compact",
     "repository.compact"),
    ("repro.linguistic.name_similarity", "NameSimilarityMemo",
     "export_cache", "repository.simcache_export"),
    ("repro.serving.service", "MatchService", "search", "serving.search"),
)

PIPELINE_ROOTS = ("pipeline.session_match", "pipeline.run")
STAGES = ("linguistic.stage", "tree.stage", "structure.treematch",
          "mapping.stage")

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "pipeline.prepare_ms": ("ms", "lower"),
    "pipeline.overhead_ms": ("ms", "lower"),
    "linguistic.stage_ms": ("ms", "lower"),
    "linguistic.memo_token_hit_rate": ("ratio", "higher"),
    "linguistic.kernel_hit_rate": ("ratio", "higher"),
    "linguistic.distinct_name_ratio": ("ratio", "lower"),
    "tree.stage_ms": ("ms", "lower"),
    "structure.treematch_ms": ("ms", "lower"),
    "structure.compared_pairs": ("count", "lower"),
    "structure.pruned_pairs": ("count", "higher"),
    "structure.scaled_pairs": ("count", "lower"),
    "structure.recompute_skip_ratio": ("ratio", "higher"),
    "structure.tiles_allocated_ratio": ("ratio", "lower"),
    "structure.store_bytes": ("bytes", "lower"),
    "mapping.stage_ms": ("ms", "lower"),
    "repository.search_ms": ("ms", "lower"),
    "repository.index_ms": ("ms", "lower"),
    "repository.load_ms": ("ms", "lower"),
    "repository.candidate_match_ms": ("ms", "lower"),
    "repository.ingest_ms": ("ms", "lower"),
    "repository.save_ms": ("ms", "lower"),
    "repository.simcache_export_ms": ("ms", "lower"),
    "repository.compactions": ("count", "lower"),
    "repository.compact_ms": ("ms", "lower"),
    "serving.http_edge_ms": ("ms", "lower"),
    "serving.queue_wait_ms": ("ms", "lower"),
    "serving.rejected": ("count", "lower"),
    "serving.timeouts": ("count", "lower"),
    "serving.errors": ("count", "lower"),
    "serving.prepare_hit_rate": ("ratio", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: run_stats keys summed over every pipeline run.
_RUN_COUNTERS = (
    "compared_pairs", "pruned_pairs", "scaled_pairs", "recompute_pairs",
    "recompute_skipped_pairs", "tiles_allocated", "tiles_total",
    "store_bytes", "kernel_element_pairs", "kernel_distinct_name_pairs",
    "vocab_source_names", "vocab_target_names", "vocab_source_elements",
    "vocab_target_elements",
)


class SpanRecorder:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.runs: List[Dict[str, object]] = []
        self._local = threading.local()
        self._originals: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, name: str):
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, time.monotonic(), None,
                      stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()

        return wrapper

    def _counted_run(self, timed_run):
        """MatchPipeline.run, plus its run_stats counters per result."""
        runs = self.runs

        @functools.wraps(timed_run)
        def wrapper(pipeline, *args, **kwargs):
            memo = pipeline.linguistic.memo
            before = (memo.token_hits, memo.token_misses) if memo else (0, 0)
            result = timed_run(pipeline, *args, **kwargs)
            stats = pipeline.run_stats(result, include_memo=False)
            counters = {key: stats.get(key, 0) for key in _RUN_COUNTERS}
            counters["store"] = stats.get("store", "none")
            counters["t"] = time.monotonic()
            if counters["store"] == "flat":
                # The flat store allocates the whole plane: one "tile".
                counters["tiles_allocated"] = counters["tiles_total"] = 1
            if memo is not None:
                counters["token_hits"] = memo.token_hits - before[0]
                counters["token_misses"] = memo.token_misses - before[1]
            runs.append(counters)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, class_name, method, span_name in LAYER_CALLABLES:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            wrapped = self._timed(original, span_name)
            if (class_name, method) == ("MatchPipeline", "run"):
                wrapped = self._counted_run(wrapped)
            self._originals.append((cls, method, original))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def snapshot(self) -> Dict[str, object]:
        """Spans as ``[name, start, end, parent index]`` plus run
        counters: the JSON-safe form a traced daemon writes out."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return {
            "spans": [
                [name, start, end,
                 None if parent is None else index[id(parent)]]
                for name, start, end, parent in self.spans
            ],
            "runs": list(self.runs),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _SpanTree:
    """Finished spans as a forest, for the per-layer derivations."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.children: Dict[int, List[int]] = {}
        for i, (_, _, end, parent) in enumerate(spans):
            if end is not None and parent is not None:
                self.children.setdefault(parent, []).append(i)

    def duration_ms(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) * 1000.0

    def outermost(self, names, within: Optional[int] = None) -> List[int]:
        """Spans named in ``names`` with no ancestor (below ``within``)
        also named in ``names``."""
        found: List[int] = []
        if within is None:
            roots = [i for i, span in enumerate(self.spans)
                     if span[2] is not None and span[3] is None]
        else:
            roots = list(self.children.get(within, ()))
        pending = roots
        while pending:
            i = pending.pop()
            if self.spans[i][0] in names:
                found.append(i)
            else:
                pending.extend(self.children.get(i, ()))
        return found

    def mean_call_ms(self, names) -> float:
        return _mean(self.duration_ms(i) for i in self.outermost(names))

    def mean_within_ms(self, roots, names) -> float:
        """Per outermost ``roots`` span, the time in ``names`` inside it."""
        return _mean(
            sum(self.duration_ms(j) for j in self.outermost(names, within=i))
            for i in self.outermost(roots)
        )

    def count(self, names) -> int:
        return len(self.outermost(names))


def window(snapshot: Dict[str, object], start: float, end: float) -> list:
    """Finished spans that lie wholly inside ``[start, end]``, with
    parent links re-indexed (a parent outside the window is dropped)."""
    spans = snapshot["spans"]
    keep = [i for i, (_, s, e, _) in enumerate(spans)
            if e is not None and s >= start and e <= end]
    new_index = {old: new for new, old in enumerate(keep)}
    return [
        [spans[i][0], spans[i][1], spans[i][2], new_index.get(spans[i][3])]
        for i in keep
    ]


def layer_metrics(
    spans: list,
    runs: List[Dict[str, object]],
    client_search_ms: Optional[float] = None,
) -> Dict[str, float]:
    """Every per-layer metric except those read from the daemon's
    ``/stats`` and ``trace_overhead_frac``. ``client_search_ms`` is the
    mean client-side search latency, when a client measured one."""
    tree = _SpanTree(spans)
    total = {key: sum(run.get(key, 0) for run in runs)
             for key in _RUN_COUNTERS + ("token_hits", "token_misses")}
    n_runs = len(runs)
    service_ms = tree.mean_call_ms(("serving.search",))
    search_ms = tree.mean_call_ms(("repository.search",))
    return {
        "pipeline.prepare_ms": tree.mean_call_ms(("pipeline.prepare",)),
        # The pipeline's self time: its wall minus the stages in it.
        "pipeline.overhead_ms": (
            tree.mean_call_ms(PIPELINE_ROOTS)
            - tree.mean_within_ms(PIPELINE_ROOTS, STAGES)
        ),
        "linguistic.stage_ms": tree.mean_call_ms(("linguistic.stage",)),
        "linguistic.memo_token_hit_rate": ratio(
            total["token_hits"], total["token_hits"] + total["token_misses"]
        ),
        "linguistic.kernel_hit_rate": 1.0 - ratio(
            total["kernel_distinct_name_pairs"],
            total["kernel_element_pairs"],
        ) if total["kernel_element_pairs"] else 0.0,
        "linguistic.distinct_name_ratio": ratio(
            total["vocab_source_names"] + total["vocab_target_names"],
            total["vocab_source_elements"] + total["vocab_target_elements"],
        ),
        "tree.stage_ms": tree.mean_call_ms(("tree.stage",)),
        "structure.treematch_ms": tree.mean_call_ms(("structure.treematch",)),
        "structure.compared_pairs": ratio(total["compared_pairs"], n_runs),
        "structure.pruned_pairs": ratio(total["pruned_pairs"], n_runs),
        "structure.scaled_pairs": ratio(total["scaled_pairs"], n_runs),
        "structure.recompute_skip_ratio": ratio(
            total["recompute_skipped_pairs"], total["recompute_pairs"]
        ),
        "structure.tiles_allocated_ratio": ratio(
            total["tiles_allocated"], total["tiles_total"]
        ),
        "structure.store_bytes": ratio(total["store_bytes"], n_runs),
        "mapping.stage_ms": tree.mean_call_ms(("mapping.stage",)),
        "repository.search_ms": search_ms,
        "repository.index_ms": tree.mean_within_ms(
            ("repository.search",), ("repository.index",)
        ),
        "repository.load_ms": tree.mean_within_ms(
            ("repository.search",), ("repository.load",)
        ),
        "repository.candidate_match_ms": tree.mean_within_ms(
            ("repository.search",), ("pipeline.session_match",)
        ),
        "repository.ingest_ms": tree.mean_call_ms(("repository.ingest",)),
        "repository.save_ms": tree.mean_call_ms(("repository.save",)),
        "repository.simcache_export_ms": tree.mean_call_ms(
            ("repository.simcache_export",)
        ),
        "repository.compactions": float(tree.count(("repository.compact",))),
        "repository.compact_ms": tree.mean_call_ms(("repository.compact",)),
        "serving.http_edge_ms": (
            client_search_ms - service_ms if client_search_ms else 0.0
        ),
        "serving.queue_wait_ms": (
            service_ms - search_ms if tree.count(("serving.search",)) else 0.0
        ),
    }


def stores_used(runs: List[Dict[str, object]]) -> Dict[str, int]:
    used: Dict[str, int] = {}
    for run in runs:
        used[run["store"]] = used.get(run["store"], 0) + 1
    return used
