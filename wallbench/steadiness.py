"""Steadiness check: two alternating sets of runs of the same code.

Usage, from the root of a checkout::

    python3 wallbench/steadiness.py [--runs 10]

For every workload of ``BENCHMARK.json`` it makes ``--runs`` pairs of
untraced runs of ``run_seconds`` each, set A and set B, alternating
which set goes first, each run with a seed of its own.  Per end-to-end
metric and set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (the distance
between the quartiles as a share of the median), then the shift of B's
median from A's in the metric's worse direction, all against the
metric's bound in ``BENCHMARK.json``; ``setup_s`` is judged like every
other metric.  It also prints the share of failed operations per set,
and how each metric tracks the machine: the correlation of its values
with the calibration-loop time and the steal ticks each run recorded.  A metric that tracks the
calibration loop is set by machine drift, not by the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; its result line plus its machine record."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "wallbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance as a
    share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def correlation(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation, 0.0 when either side is constant."""
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return 0.0


def report(workload: str, runs: dict[str, list[dict]],
           spec: dict) -> list[str]:
    """Print one workload's table; return the metrics out of bounds."""
    out_of_bounds: list[str] = []
    every = runs["A"] + runs["B"]
    calibration = [r["machine"]["calibration_s_before"] for r in every]
    steal = [r["machine"]["steal_ticks"] for r in every]
    print(f"\n== {workload}: {len(runs['A'])} runs per set")
    print(f"{'metric':<16} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for label in ("A", "B"):
            values = [r["metrics"][name]["value"] for r in runs[label]]
            med, q1, q3, share = spread(values)
            medians[label] = med
            flag = ""
            if share > bound:
                flag = "  OUT"
                out_of_bounds.append(f"{name} spread {label}")
            elif share > bound / 3:
                flag = "  > bound/3"
            print(f"{name:<16} {label:<3} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {share:>7.3f} {bound:>6.2f}{flag}")
        worse = (medians["B"] - medians["A"]) / medians["A"] \
            if medians["A"] else 0.0
        if metric["better"] == "higher":
            worse = -worse
        flag = "  OUT" if worse > bound else ""
        if flag:
            out_of_bounds.append(f"{name} shift")
        values = [r["metrics"][name]["value"] for r in every]
        print(f"{'':<16} B vs A worse by {worse:+.3f}; "
              f"corr with calibration {correlation(values, calibration):+.2f}"
              f", with steal {correlation(values, steal):+.2f}{flag}")
    for label in ("A", "B"):
        attempted = sum(r["attempted"] for r in runs[label])
        failed = sum(r["failed"] for r in runs[label])
        correct = all(r["correct"] for r in runs[label])
        print(f"set {label}: failed {failed}/{attempted}, all correct: "
              f"{correct}, calibration median "
              f"{statistics.median(r['machine']['calibration_s_before'] for r in runs[label]):.4f} s"
              f", steal ticks {sum(r['machine']['steal_ticks'] for r in runs[label])}")
    shares = {label: [r["failed"] / r["attempted"] for r in runs[label]]
              for label in ("A", "B")}
    if len(set(shares["A"] + shares["B"])) > 1:
        out_of_bounds.append("failed share differs between runs")
    return out_of_bounds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = (1000 if label == "A" else 2000) + i
                runs[label].append(run_once(workload, seed,
                                            spec["run_seconds"]))
                print(f"{workload} set {label} seed {seed} done",
                      file=sys.stderr, flush=True)
        problems += [f"{workload}: {p}" for p in report(workload, runs,
                                                         spec)]
    print("\nout of bounds: " + ("; ".join(problems) or "none"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
