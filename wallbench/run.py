"""Wall-clock benchmark of the SVQA reproduction, end to end and per layer.

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload mvqa_paper_cold|ask_http_zipf \\
        --seed N --seconds S --trace 0|1

Every measured process is a fresh one started here.  The last line of
standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The two lines before it record
the checks that were made and the state of the machine during the run.
See ``wallbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracle
from layers import ROOT, SRC, median, percentile

HERE = Path(__file__).resolve().parent
PYTHON = sys.executable
#: a child must finish well inside the 180 s a whole run may take
CHILD_TIMEOUT_S = 170

#: ``mvqa_paper_cold``: one answer round per this many seconds of
#: ``--seconds`` (a round takes 3-5 s); the reported figures are
#: medians over the rounds
COLD_ROUND_SECONDS = 5
#: ``ask_http_zipf``: requests in the timed sequence per second of
#: ``--seconds`` (about the closed-loop rate of one connection, so the
#: loop lasts about ``--seconds``); the count is fixed by the
#: arguments, never by how fast the machine is
REQUESTS_PER_SECOND = 250
#: the timed sequence is measured in chunks of at least this many
#: requests and each metric is the median over chunks, so a burst of
#: CPU steal that slows one chunk does not move it; 1,000 leaves 10
#: samples beyond each chunk's 99th percentile
CHUNK = 1000
#: the skew of the request mix over the 100 fast-suite questions
ZIPF_EXPONENT = 1.0
#: the popularity ranking of the questions is the same in every run;
#: the workload seed draws the sequence from it.  (A seeded ranking
#: made the mix itself differ between seeds: whether a question that
#: stays slow with warm caches ranks high moved p99 by half.)
RANKING_SEED = 0
#: warm starts per run; ``setup_s`` is their median
BOOTS = 3
#: admission limits that admit the whole sequence: the default bucket
#: (rate 10, burst 20) refills per *simulated* second, and cache-served
#: answers charge so little simulated time that it refuses most of a
#: back-to-back sequence
ADMISSION_FLAGS = ["--rate", "1000000", "--burst", "1000000"]


class RunFailed(Exception):
    """A measured process did not do what the run needs."""


# ----------------------------------------------------------------------
# machine state
# ----------------------------------------------------------------------
def _steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop (~0.1 s)."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_500_000):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return median(timings)


def machine_state() -> dict[str, float]:
    """What the machine was doing: steal ticks, load, loop speed."""
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"steal_ticks": _steal_ticks(), "loadavg_1m": load[0],
            "loadavg_5m": load[1], "calibration_s": _calibration_s()}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _last_json(text: str, what: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RunFailed(f"{what} printed no result")
    return json.loads(lines[-1])


def _finish(proc: subprocess.Popen, what: str) -> str:
    """Wait for ``proc`` and return its remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{what} timed out") from None
    if proc.returncode != 0:
        raise RunFailed(f"{what} exited with {proc.returncode}")
    return out


def cold_worker(seed: int, rounds: int, trace: int, tmp: Path) -> dict:
    """One ``mvqa_paper_cold`` process; adds ``setup_s`` to its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [PYTHON, str(HERE / "cold_worker.py"), "--seed", str(seed),
         "--rounds", str(rounds), "--trace", str(trace), "--tmp", str(tmp)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RunFailed("cold worker did not get ready")
        result = _last_json(_finish(proc, "cold worker"), "cold worker")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result["setup_s"] = setup_s
    return result


def ask_reference(store: Path, trace: int) -> dict:
    proc = subprocess.Popen(
        [PYTHON, str(HERE / "ask_reference.py"), "--store", str(store),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return _last_json(_finish(proc, "ask reference"), "ask reference")


class Server:
    """A ``repro serve --scenario mvqa`` process warm-started from a
    private copy of the pristine snapshot."""

    def __init__(self, pristine: Path, workdir: Path,
                 trace_out: Path | None, warmup: int) -> None:
        store = workdir / "store"
        shutil.copytree(pristine, store)
        serve = ["serve", "--scenario", "mvqa", "--snapshot", str(store),
                 "--port", "0", *ADMISSION_FLAGS]
        if trace_out is None:
            argv = [PYTHON, "-m", "repro", *serve]
        else:
            argv = [PYTHON, str(HERE / "traced_server.py"),
                    "--out", str(trace_out), "--warmup", str(warmup),
                    "--", *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=env)
        try:
            banner = self.proc.stdout.readline()
            found = re.search(r"http://([\d.]+):(\d+)", banner)
            if found is None:
                raise RunFailed(f"server did not start: {banner!r}")
            self.host, self.port = found.group(1), int(found.group(2))
            status, body = self.request("GET", "/healthz")
            self.setup_s = time.perf_counter() - start
            if status != 200:
                raise RunFailed(f"/healthz answered {status}")
            self.store_source = json.loads(body)["store"]["source"]
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RunFailed("no VmHWM for the server")

    def stop(self) -> None:
        """Stop the server (SIGINT, as an operator would) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode not in (0, -signal.SIGKILL):
            raise RunFailed(f"server exited with {self.proc.returncode}")


def stop_all(servers: list[Server | None]) -> None:
    """Stop every server, even when stopping one of them fails."""
    problem = None
    for server in servers:
        if server is not None:
            try:
                server.stop()
            except RunFailed as exc:
                problem = exc
    if problem is not None:
        raise problem


# ----------------------------------------------------------------------
# mvqa_paper_cold
# ----------------------------------------------------------------------
def run_cold(args: argparse.Namespace, tmp: Path) -> dict:
    rounds = max(1, args.seconds // COLD_ROUND_SECONDS)
    if args.trace:
        # a traced run needs an untraced round to compare against
        rounds = max(2, rounds)
    worker = cold_worker(args.seed, rounds, args.trace, tmp)
    if args.trace:
        metrics = worker["layers"]
        metrics["import.repro_s"] = worker["import_s"]
        metrics["trace.overhead_pct"] = \
            (worker["round_s"][0] / median(worker["round_s"][1:]) - 1) * 100
    else:
        batch_s = median(worker["round_s"])
        metrics = {
            "setup_s": worker["setup_s"],
            "questions_per_s": worker["questions"] / batch_s,
            # answer_many returns every answer together, so each
            # question's latency is the batch's wall time
            "latency_p50_ms": batch_s * 1e3,
            "latency_p99_ms": batch_s * 1e3,
            "accuracy": worker["accuracy"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    return {"ok": worker["checks"]["ok"],
            "checks": {**worker["checks"], "round_s": worker["round_s"]},
            "attempted": worker["attempted"], "failed": worker["failed"],
            "metrics": metrics}


# ----------------------------------------------------------------------
# ask_http_zipf
# ----------------------------------------------------------------------
def zipf_sequence(seed: int, distinct: int, length: int) -> list[int]:
    """``length`` question indices drawn with Zipf weights over the
    fixed popularity ranking."""
    ranking = list(range(distinct))
    random.Random(RANKING_SEED).shuffle(ranking)
    weights = [1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(distinct)]
    draws = random.Random(seed).choices(range(distinct), weights, k=length)
    return [ranking[rank] for rank in draws]


def _answer_key(payload: dict) -> str:
    """What a repeat must share with the first answer to its question
    (not ``meta.latency``: simulated time, which cache hits lower)."""
    meta = payload["meta"]
    return json.dumps([payload["answer"], payload["question_type"],
                       payload["sources"], meta["degraded"],
                       meta["confidence"], meta["fault_events"]],
                      sort_keys=True)


_ASK_KEYS = {"answer", "question_type", "sources", "meta"}
_META_KEYS = {"latency", "degraded", "confidence", "fault_events",
              "deadline_s"}


def _contract_error(status: int, body: bytes) -> str | None:
    if status != 200:
        return f"status {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return "body is not JSON"
    if not isinstance(payload, dict) or set(payload) != _ASK_KEYS or \
            not isinstance(payload["meta"], dict) or \
            not _META_KEYS <= set(payload["meta"]):
        return "body does not have the /ask contract shape"
    return None


def chunk_bounds(total: int) -> list[tuple[int, int]]:
    """Split ``total`` requests into chunks of at least ``CHUNK``."""
    count = max(1, total // CHUNK)
    return [(i * total // count, (i + 1) * total // count)
            for i in range(count)]


def warm_up(server: Server, bodies: list[bytes]) -> list[dict | None]:
    """One untimed pass over every distinct question, in order."""
    payloads: list[dict | None] = []
    for body in bodies:
        status, raw = server.request("POST", "/ask", body)
        payloads.append(None if _contract_error(status, raw)
                        else json.loads(raw))
    return payloads


def send(server: Server, bodies: list[bytes], indices: list[int]) -> dict:
    """Send the requests one connection at a time, each timed from
    before connect to the last byte read.  Returns the payloads
    (``None`` for a failed request), latencies, finish times and the
    start of the loop."""
    replies: list[tuple[int, bytes] | None] = []
    latencies: list[float] = []
    finished: list[float] = []
    loop_start = time.perf_counter()
    for index in indices:
        start = time.perf_counter()
        try:
            reply = server.request("POST", "/ask", bodies[index])
        except OSError:
            reply = None
        finished.append(time.perf_counter())
        latencies.append(finished[-1] - start)
        replies.append(reply)
    payloads = [None if reply is None or _contract_error(*reply)
                else json.loads(reply[1]) for reply in replies]
    return {"timed": payloads, "latencies": latencies,
            "finished": finished, "loop_start": loop_start,
            "wall_s": finished[-1] - loop_start}


def chunked_metrics(loop: dict) -> dict[str, float]:
    """Rate and latency percentiles per chunk of the timed sequence,
    each reported as its median over the chunks."""
    latencies, finished = loop["latencies"], loop["finished"]
    rates, p50s, p99s = [], [], []
    for begin, end in chunk_bounds(len(latencies)):
        started = finished[begin - 1] if begin else loop["loop_start"]
        rates.append((end - begin) / (finished[end - 1] - started))
        p50s.append(median(latencies[begin:end]))
        p99s.append(percentile(latencies[begin:end], 99))
    return {"questions_per_s": median(rates),
            "latency_p50_ms": median(p50s) * 1e3,
            "latency_p99_ms": median(p99s) * 1e3}


def interleave(plain: Server, traced: Server, bodies: list[bytes],
               sequence: list[int]) -> tuple[dict, dict, float]:
    """Send each chunk of the sequence to the untraced server, then to
    the traced one, so machine drift hits both alike.  Returns both
    loops and the median per-chunk ratio of traced to untraced wall
    time, minus one."""
    loops: dict[str, dict] = {
        "plain": {"warmup": warm_up(plain, bodies), "timed": [],
                  "latencies": []},
        "traced": {"warmup": warm_up(traced, bodies), "timed": [],
                   "latencies": []},
    }
    ratios = []
    for begin, end in chunk_bounds(len(sequence)):
        walls = {}
        for name, server in (("plain", plain), ("traced", traced)):
            chunk = send(server, bodies, sequence[begin:end])
            loops[name]["timed"] += chunk["timed"]
            loops[name]["latencies"] += chunk["latencies"]
            walls[name] = chunk["wall_s"]
        ratios.append(walls["traced"] / walls["plain"])
    return loops["plain"], loops["traced"], median(ratios) - 1


def check_ask(reference: dict, loop: dict, sequence: list[int]) -> list[str]:
    """Every property the served answers must have; returns failures."""
    failures: list[str] = []
    questions = reference["questions"]
    for q, cold, warm in zip(questions, reference["answers"],
                             loop["warmup"]):
        if warm is None:
            failures.append(f"warm-up {q['text']!r}: not a 200 contract "
                            "reply")
            continue
        served = {**warm, "meta": {k: v for k, v in warm["meta"].items()
                                   if k != "deadline_s"}}
        if served != cold:
            failures.append(f"{q['text']!r}: warm-started answer differs "
                            "from the cold-built pipeline's")
        error = oracle.form_error(q["type"], q["exotic"],
                                  warm["answer"], warm["question_type"])
        if error is not None and not (q["exotic"]
                                      and warm["meta"]["degraded"]):
            failures.append(f"{q['text']!r}: {error}")
    first = [None if w is None else _answer_key(w) for w in loop["warmup"]]
    for index, payload in zip(sequence, loop["timed"]):
        if payload is not None and _answer_key(payload) != first[index]:
            failures.append(f"{questions[index]['text']!r}: a repeat "
                            "differs from the first answer")
    return failures


def run_ask(args: argparse.Namespace, tmp: Path) -> dict:
    pristine = tmp / "pristine"
    reference = ask_reference(pristine, args.trace)
    texts = [q["text"] for q in reference["questions"]]
    sequence = zipf_sequence(args.seed, len(texts),
                             args.seconds * REQUESTS_PER_SECOND)
    failures: list[str] = []
    if not reference["gold"]["ok"]:
        failures.append(f"gold oracle: {reference['gold']}")

    bodies = [json.dumps({"question": text}).encode() for text in texts]
    setups: list[float] = []
    server = traced_server = None
    trace_out = tmp / "trace.json"
    try:
        for boot in range(BOOTS):
            server = Server(pristine, tmp / f"boot{boot}", None, 0)
            setups.append(server.setup_s)
            if server.store_source != "snapshot":
                failures.append(f"boot {boot} did not warm-start")
            if boot < BOOTS - 1:
                server.stop()
        if args.trace:
            traced_server = Server(pristine, tmp / "traced", trace_out,
                                   len(texts))
            loop, traced_loop, overhead = interleave(
                server, traced_server, bodies, sequence)
        else:
            loop = {"warmup": warm_up(server, bodies),
                    **send(server, bodies, sequence)}
        rss_mb = server.peak_rss_mb()
    finally:
        stop_all([server, traced_server])
    loops = [loop] if not args.trace else [loop, traced_loop]
    for each in loops:
        failures += check_ask(reference, each, sequence)
    failed = sum(p is None for each in loops for p in each["timed"])
    attempted = len(sequence) * len(loops)

    if args.trace:
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        # the server warm-starts, so the build-side layers (SGG, merge,
        # snapshot) come from the reference's cold build
        metrics = {**trace["layers"], **reference["layers"]}
        metrics.update(layers.serve_metrics(
            traced_loop["latencies"], trace["request_s"],
            trace["answer_many_s"]))
        metrics["resilience.degraded_answers"] = sum(
            payload["meta"]["degraded"]
            for payload in traced_loop["timed"] if payload is not None)
        metrics["trace.overhead_pct"] = overhead * 100
    else:
        accuracy = oracle.answer_accuracy(
            [(q["answer"], q["type"]) for q in reference["questions"]],
            [None if warm is None else warm["answer"]
             for warm in loop["warmup"]])
        metrics = {
            "setup_s": median(setups),
            **chunked_metrics(loop),
            "accuracy": accuracy,
            "peak_rss_mb": rss_mb,
        }
    return {"ok": not failures,
            "checks": {"failures": failures[:20],
                       "failure_count": len(failures),
                       "gold": reference["gold"],
                       "boot_setup_s": setups,
                       "requests": len(sequence)},
            "attempted": attempted, "failed": failed, "metrics": metrics}


WORKLOADS = {"mvqa_paper_cold": run_cold, "ask_http_zipf": run_ask}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    layers.require_source()
    # the build: byte-compile the program so no run pays for it
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("wallbench: the program does not compile", file=sys.stderr)
        return 2

    # every process of the run shares one CPU (children inherit the
    # mask): no workload runs two of them at once, and on a VM a wakeup
    # across vCPUs waits for the other vCPU to be scheduled, which set
    # the tail of the /ask latency (p99 11.6 against 7.1 ms, same seed)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = ROOT / ".wallbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    before = machine_state()
    try:
        outcome = WORKLOADS[args.workload](args, tmp)
    except RunFailed as exc:
        print(f"wallbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = machine_state()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"wallbench: not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("machine: " + json.dumps({
        "steal_ticks": after["steal_ticks"] - before["steal_ticks"],
        "loadavg_1m": before["loadavg_1m"],
        "loadavg_5m": before["loadavg_5m"],
        "calibration_s_before": before["calibration_s"],
        "calibration_s_after": after["calibration_s"],
    }))
    print("checks: " + json.dumps(outcome["checks"]))
    print(json.dumps({"correct": outcome["ok"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
