"""The cold reference for ``ask_http_zipf``, in its own process.

Run by ``run.py``, never by hand::

    python3 wallbench/ask_reference.py --store DIR --trace 0|1

It builds the pipeline exactly as ``repro serve --scenario mvqa``
does (``build_svqa``), writes the durable snapshot the server will
warm-start from, answers every distinct question once in the warm-up
order through ``answer_many`` (one question per call, as the server's
inline bridge does), runs the gold-perception oracle on the same
dataset, and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import layers
import oracle
from layers import Probes


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    layers.require_source()
    import repro.dataset.mvqa as mvqa
    from repro.graph.durable import DurableStore
    from repro.serve.app import ServeConfig, build_svqa

    probes = Probes()
    if args.trace:
        layers.install_layer_probes(probes)
    # the served dataset is built inside build_svqa; keep a handle on
    # it for the questions and the oracle
    built: list = []
    build_mvqa = mvqa.build_mvqa

    def capture(*call_args, **kwargs):
        built.append(build_mvqa(*call_args, **kwargs))
        return built[-1]

    mvqa.build_mvqa = capture
    try:
        svqa = build_svqa(ServeConfig(scenario="mvqa"))
    finally:
        mvqa.build_mvqa = build_mvqa
    if len(built) != 1:
        raise SystemExit("build_svqa did not build the MVQA dataset once")
    dataset = built[0]
    merged = svqa.merged

    store = DurableStore(args.store, clock=svqa.clock)
    start = time.perf_counter()
    store.snapshot(merged.graph, merged_meta=merged.meta_dict())
    snapshot_s = time.perf_counter() - start
    store.close()

    answers = [svqa.answer_many([q.text])[0] for q in dataset.questions]
    result: dict[str, object] = {
        "questions": [
            {"text": q.text, "type": q.question_type.value,
             "exotic": q.exotic, "answer": q.answer}
            for q in dataset.questions
        ],
        "answers": [answer.to_dict() for answer in answers],
        "graph_vertices": merged.graph.vertex_count,
    }
    if args.trace:
        # read the build-side totals before the oracle's own merge
        probes.restore()
        result["layers"] = {
            "vision.sgg_s": probes.total("sgg"),
            "aggregator.merge_s": probes.total("merge"),
            "graph.vertices": merged.graph.vertex_count,
            "graph.edges": merged.graph.edge_count,
            "store.snapshot_s": snapshot_s,
            "store.snapshot_bytes": layers.tree_bytes(Path(args.store)),
        }
    result["gold"] = oracle.check_gold(dataset)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
