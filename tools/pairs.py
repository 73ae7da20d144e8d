"""Benchmark a parent and a changed checkout in alternating pairs, and write
the runs and their summary to a JSON file.

    python3 tools/pairs.py PARENT CHANGE --workload mask-sweep --seed 1 2 \\
        --pairs 10 --seconds 30 --out BENCH.json

For every workload and seed, each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in both
checkouts back to back, each from its own directory and with its own
`perfbench/`; the parent runs first in even pairs and the change in odd
ones, so a drift of the machine during a session falls on both sides.
After the pairs, each side makes one run with `--trace 1`, whose result
line carries the per-layer split and work counts (matvecs, calls) of one
traced pass; it is stored beside the summary and enters no statistic.
Numbers from different sessions do not compare, so a claim is a ratio
against a parent measured in the same session.

The output records the machine and the commit of each side (`git rev-parse
HEAD`, or null for a checkout that is not a git work tree), and keeps every
result line (the JSON line `run.py` prints last), `failed`/`attempted` per
side, and per end-to-end metric of `BENCHMARK.json`: each side's median and
quartiles, the pairs each side won by that metric's `better` (ties count
for neither), the gap between the medians, positive when the change is
better, the parent's interquartile range, the change's median over the
parent's, and `gain`, which holds when the change won at least 9 in 10 of
all pairs run, the median gap exceeds the parent's interquartile range and
no larger share of the change's operations failed. A run that exits
non-zero or prints no result line within 300 s is kept with its exit code
and stderr tail, and counts as a run with no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIMEOUT_S = 300.0  # run.py ends itself within 180 s


def result_line(stdout: str) -> dict | None:
    """The last line of `stdout` that is a JSON result, or None."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(result, dict) and "metrics" in result:
                return result
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"result": None, "exit": None, "stderr": f"no result within {TIMEOUT_S} s"}
    result = result_line(done.stdout) if done.returncode == 0 else None
    if result is None:
        return {"result": None, "exit": done.returncode, "stderr": done.stderr[-2000:]}
    return {"result": result}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list, metrics: list) -> dict:
    """Summarize `runs`, records with `pair`, `side` and `result` (a result
    line or None), over `metrics`, BENCHMARK.json's `end_to_end` entries."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    summary = {
        "failed": {side: 0 for side in SIDES},
        "attempted": {side: 0 for side in SIDES},
        "missing_runs": {side: 0 for side in SIDES},
        "metrics": {},
    }
    for run in runs:
        if run["result"] is None:
            summary["missing_runs"][run["side"]] += 1
        else:
            summary["failed"][run["side"]] += run["result"]["failed"]
            summary["attempted"][run["side"]] += run["result"]["attempted"]
    # a gain does not count when a larger share of operations fails
    fail_share = {side: summary["failed"][side] / max(summary["attempted"][side], 1)
                  for side in SIDES}
    fails_no_more = fail_share["change"] <= fail_share["parent"]

    def value(result, name):
        metric = (result or {}).get("metrics", {}).get(name)
        return None if metric is None else metric["value"]

    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        pairs = [(value(p.get("parent"), name), value(p.get("change"), name))
                 for p in by_pair.values()]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        parent, change = [a for a, _ in pairs], [b for _, b in pairs]
        wins = sum(sign * (a - b) > 0 for a, b in pairs)
        losses = sum(sign * (a - b) < 0 for a, b in pairs)
        p1, p3 = _quartiles(parent)
        c1, c3 = _quartiles(change)
        pm, cm = statistics.median(parent), statistics.median(change)
        gap = sign * (pm - cm)
        summary["metrics"][name] = {
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "pairs": len(pairs),
            "change_wins": wins,
            "parent_wins": losses,
            "ties": len(pairs) - wins - losses,
            "median_gap": gap,
            "parent_iqr": p3 - p1,
            "change_over_parent": cm / pm if pm else None,
            # every pair run counts, one with a missing result as a loss
            "gain": wins >= 0.9 * len(by_pair) and gap > p3 - p1 and fails_no_more,
        }
    return summary


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            names = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,  # perfbench/run.py sets one BLAS thread per worker
    }


def commit(checkout: Path) -> str | None:
    """The commit checked out at `checkout` (`git rev-parse HEAD`), or None
    when `checkout` is not the top of a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    entries = []
    for workload in args.workload:
        for seed in args.seed:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = run_once(checkouts[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "side": side, "runs_first": position == 0, **run})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{'no result' if run['result'] is None else 'done'}", file=sys.stderr)
            traced = {side: run_once(checkouts[side], workload, seed, args.seconds, trace=1)
                      for side in SIDES}
            entries.append({"workload": workload, "seed": seed, "pairs": args.pairs,
                            **summarize(runs, metrics), "runs": runs, "traced": traced})
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "traced_command": "python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {args.seconds} --trace 1",
        "method": "pairs alternate which side runs first; wins count pairs where the change "
                  "reads better by the metric's `better`, ties count for neither",
        "machine": machine(),
        "commits": {side: commit(path) for side, path in checkouts.items()},
        "workloads": entries,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
