"""Per-layer probes and the small statistics the benchmark reports.

The benchmark measures each layer from outside the program: a
:class:`Probes` object replaces a public function or method with a
wrapper that records the wall time of every call (or only counts the
calls), and puts the original back on :meth:`Probes.restore`.  Nothing
under ``src/`` knows about it.

A probe records into a plain list or integer without a lock.  That is
safe because every workload answers on one thread at a time: ``answer_many``
runs with ``workers=1`` and the server is driven over one connection.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the program in the checkout it runs from;
    it never falls back to an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no program source at {SRC}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values: list[float]) -> float:
    """The median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100), or 0.0 for none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Probes:
    """Timing and counting wrappers installed around public calls.

    ``samples[name]`` holds one wall duration (seconds) per call of a
    timed target; ``counts[name]`` the number of calls of a counted
    one.  :meth:`mark` starts a new phase: :meth:`since_mark` and
    :meth:`count_since_mark` then see only what came after it.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self._marks: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _install(self, owner: object, attr: str, wrapper: object,
                 original: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def time(self, owner: object, attr: str, name: str) -> None:
        """Record the wall time of every call of ``owner.attr``."""
        original = getattr(owner, attr)
        samples = self.samples.setdefault(name, [])

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

        self._install(owner, attr, timed, original)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr``."""
        original = getattr(owner, attr)
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, counted, original)

    def mark(self) -> None:
        """Start a new phase for :meth:`since_mark`."""
        for name, values in self.samples.items():
            self._marks[name] = len(values)
        for name, value in self.counts.items():
            self._marks["#" + name] = value

    def since_mark(self, name: str) -> list[float]:
        """The samples of ``name`` recorded after the last :meth:`mark`."""
        values = self.samples.get(name, [])
        return values[self._marks.get(name, 0):]

    def count_since_mark(self, name: str) -> int:
        """The calls of ``name`` counted after the last :meth:`mark`."""
        return self.counts.get(name, 0) - self._marks.get("#" + name, 0)

    def total(self, name: str) -> float:
        """Sum of every sample of ``name`` (seconds)."""
        return sum(self.samples.get(name, []))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_layer_probes(probes: Probes) -> None:
    """Wrap the public calls of every layer the benchmark reports.

    The module-level functions are wrapped where their callers look
    them up: ``repro.core.pipeline`` imports ``generate_query_graph``
    and ``schedule_queries`` by name, ``repro.dataset.mvqa`` looks up
    its helpers as module globals, and ``categories_for_word`` is
    counted in both dataset modules that call it, the question
    generator (which imports it by name) and the ground-truth index.
    """
    import repro.core.pipeline as pipeline
    import repro.dataset.groundtruth as groundtruth
    import repro.dataset.mvqa as mvqa
    import repro.dataset.questions as questions
    from repro.core.aggregator import DataAggregator
    from repro.core.batch import BatchExecutor
    from repro.core.executor import QueryGraphExecutor
    from repro.graph.model import Graph
    from repro.synth.generator import SceneGenerator
    from repro.vision.scene_graph import SGGPipeline

    probes.time(mvqa, "build_mvqa", "dataset")
    probes.time(SceneGenerator, "generate_pool", "scene_pool")
    probes.time(mvqa, "GroundTruthIndex", "ground_truth")
    for module in (questions, groundtruth):
        probes.count(module, "categories_for_word", "categories_for_word")
    probes.time(SGGPipeline, "run_many", "sgg")
    probes.time(DataAggregator, "merge", "merge")
    probes.time(pipeline, "generate_query_graph", "parse")
    probes.time(pipeline, "schedule_queries", "schedule")
    probes.time(BatchExecutor, "run", "batch")
    probes.time(QueryGraphExecutor, "execute", "execute")
    probes.count(Graph, "out_edges", "out_edges")


def layer_metrics(probes: Probes) -> dict[str, float]:
    """The per-layer figures every probed process can report.

    Build-time layers (dataset, SGG, merge) are totals over the whole
    process; answer-time layers (parse, schedule, batch, executor,
    ``Graph.out_edges``) cover the phase after the last :meth:`mark`.
    """
    scene_pool = probes.total("scene_pool")
    ground_truth = probes.total("ground_truth")
    parse = probes.since_mark("parse")
    execute = probes.since_mark("execute")
    batch = probes.since_mark("batch")
    return {
        "synth.scene_pool_s": scene_pool,
        "dataset.ground_truth_s": ground_truth,
        # what build_mvqa spends beyond the pool and the index is the
        # question generator (the KG build and re-numbering are ~ms)
        "dataset.questions_s": probes.total("dataset") - scene_pool
        - ground_truth,
        "dataset.categories_for_word_calls":
            probes.counts.get("categories_for_word", 0),
        "vision.sgg_s": probes.total("sgg"),
        "aggregator.merge_s": probes.total("merge"),
        "parse.calls": len(parse),
        "parse.ms_p50": median(parse) * 1e3,
        "scheduler.ms": sum(probes.since_mark("schedule")) * 1e3,
        "executor.calls": len(execute),
        "executor.ms_p50": median(execute) * 1e3,
        "executor.ms_p90": percentile(execute, 90) * 1e3,
        "executor.s_total": sum(execute),
        "batch.overhead_ms": (sum(batch) - sum(execute)) * 1e3,
        "graph.out_edges_calls": probes.count_since_mark("out_edges"),
    }


def engine_state(svqa: object) -> dict[str, float]:
    """Cache counters and SimClock charges of one pipeline, right now."""
    report = svqa.cache_report()
    clock = svqa.clock
    return {
        "cache.scope_hits": report.scope_hits,
        "cache.scope_misses": report.scope_misses,
        "cache.path_hits": report.path_hits,
        "cache.path_misses": report.path_misses,
        "sim.elapsed_s": clock.elapsed,
        **{f"sim.{op}_count": clock.counts.get(op, 0)
           for op in ("edge_scan", "vertex_match", "embed_score")},
    }


def engine_metrics(before: dict[str, float],
                   after: dict[str, float]) -> dict[str, float]:
    """What the cache and the SimClock recorded between two states.

    The simulated figures sit beside the wall-clock probes of the same
    phase: the two-ledger comparison.
    """
    return {name: after[name] - before[name] for name in after}


def serve_metrics(client_s: list[float], request_s: list[float],
                  answer_many_s: list[float]) -> dict[str, float]:
    """Split per-request time into transport, serving and answering.

    The three lists are aligned per ``/ask`` request: the client's
    send-to-last-byte time, ``QAService.__call__`` and the
    ``SVQA.answer_many`` call inside it (the inline bridge makes one
    per request).
    """
    return {
        "serve.request_ms_p50": median(request_s) * 1e3,
        "serve.answer_many_ms_p50": median(answer_many_s) * 1e3,
        "serve.overhead_ms_p50": median(
            [r - a for r, a in zip(request_s, answer_many_s)]) * 1e3,
        "serve.transport_ms_p50": median(
            [c - r for c, r in zip(client_s, request_s)]) * 1e3,
    }


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
