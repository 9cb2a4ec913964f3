"""``repro serve`` with the benchmark's layer probes installed.

Run by ``run.py`` for the traced ``ask_http_zipf`` run::

    python3 wallbench/traced_server.py --out FILE --warmup N -- serve ...

Everything after ``--`` goes to the program's own CLI unchanged.  The
first ``N`` ``/ask`` requests are the client's warm-up; the answer-time
probes and the cache and SimClock deltas start after them.  When the
server stops (SIGINT), the figures are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import layers
from layers import Probes


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--warmup", type=int, required=True)
    args = parser.parse_args(sys.argv[1:split])

    start = time.perf_counter()
    layers.require_source()
    import repro  # noqa: F401 - timed: the package import itself
    import_s = time.perf_counter() - start

    from repro.cli import main as cli_main
    from repro.core.pipeline import SVQA
    from repro.graph.durable import DurableStore
    from repro.serve.app import QAService

    probes = Probes()
    layers.install_layer_probes(probes)
    probes.time(DurableStore, "recover", "store_recover")
    probes.time(SVQA, "answer_many", "answer_many")
    services: list[QAService] = []
    init = QAService.__init__
    call = QAService.__call__
    requests: list[float] = []
    before: dict[str, float] = {}

    def capture(self, *call_args, **kwargs):
        init(self, *call_args, **kwargs)
        services.append(self)

    def timed_call(self, environ, start_response):
        begin = time.perf_counter()
        body = call(self, environ, start_response)
        if environ.get("PATH_INFO") == "/ask":
            requests.append(time.perf_counter() - begin)
            if len(requests) == args.warmup:
                probes.mark()
                before.update(layers.engine_state(self.svqa))
        return body

    QAService.__init__ = capture
    QAService.__call__ = timed_call
    code = cli_main(sys.argv[split + 1:])
    if len(services) != 1 or not before:
        raise SystemExit("traced server saw no warm-up boundary")
    svqa = services[0].svqa
    metrics = layers.layer_metrics(probes)
    metrics.update(layers.engine_metrics(before, layers.engine_state(svqa)))
    metrics["import.repro_s"] = import_s
    metrics["serve.dataset_s"] = probes.total("dataset")
    metrics["store.recover_s"] = probes.total("store_recover")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "layers": metrics,
            "request_s": requests[args.warmup:],
            "answer_many_s": probes.since_mark("answer_many"),
        }, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
