"""Benchmark of specbound: end-to-end `certify` time and accuracy, and a
traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop, through `specbound.cli.main(argv)`):

    solve-2d    certify the unit disk and the L-shape at h = 1/16 ... 1/128
    solve-3d    certify the unit 3-ball (h = 1/4 ... 1/32) and the unit cube
                (h = 1/8 ... 1/64)
    mask-sweep  `sweep --family mask-batch` over 32 masks generated from --seed

`--workload all` runs the three in turn, each ending in its own result
line.  With --trace 0 a result line carries the end-to-end metrics; with
--trace 1 it carries the per-layer split of one traced pass, checked to
leave every artifact byte-identical.  `--smoke` shrinks every case for the
benchmark's own tests.  The lines before a result line give medians,
quartiles, sample counts, fail_share and per-case accuracy for people.

Exit status 0 means a result was printed (its `correct` field says whether
every output checked out); any other status means no result: the library
sources are missing, or the worker crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s
# interpreters spawned per run for setup_s, spread over the run by the worker
SETUP_SAMPLES = 24
# one BLAS thread on both sides of a comparison: on 2 cores it was faster
# and steadier than two, and it fixes the order of BLAS reductions
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_worker(plan: dict, workdir: Path, env: dict, timeout: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _case_lines(cases: list) -> list:
    lines = []
    for o in cases:
        if o["exact"] is None or o["lambda1"] is None:
            continue
        err = abs(o["lambda1"] - o["exact"])
        lines.append(
            f"  case {o['case']:<10} lambda1={o['lambda1']:.12g} exact={o['exact']:.12g} "
            f"rel_err={err / o['exact']:.3e} coverage={err / o['lambda1_error']:.3f} "
            f"band={o['band']:.3e}"
        )
    return lines


def end_to_end(result: dict) -> tuple:
    """Metrics for --trace 0 and the lines that explain them."""
    walls, setup = result["walls"], result["setup"]
    accuracy = workloads.accuracy(result["cases"])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "lambda1_rel_err": (accuracy.get("lambda1_rel_err"), "ratio"),
        "err_coverage": (accuracy.get("err_coverage"), "ratio"),
        "band_rel": (accuracy.get("band_rel"), "ratio"),
    }
    lines = []
    for name, samples in (("wall_s", walls), ("setup_s", setup)):
        q1, q3 = _quartiles(samples)
        lines.append(
            f"  {name:<16}median {metrics[name][0]:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n={len(samples)}"
        )
    for name in ("peak_rss_mb", "lambda1_rel_err", "err_coverage", "band_rel"):
        value, unit = metrics[name]
        lines.append(f"  {name:<16}{value if value is None else format(value, '.6g')} {unit}")
    return metrics, lines + _case_lines(result["cases"])


def run(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> int:
    """One run of one workload; prints its report and result line."""
    started = time.perf_counter()
    env = _child_env()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build_plan(workload, seed, workdir, smoke)
        plan = {
            "root": str(ROOT),
            "workdir": str(workdir),
            "ops": ops,
            "seconds": seconds,
            "trace": trace,
            "setup_samples": 1 if smoke else SETUP_SAMPLES,
            "spans_path": str(ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.jsonl"),
        }
        result = run_worker(plan, workdir, env, DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = result["attempted"], result["failures"]
    trace_errors = result.get("trace_errors", [])
    print(
        f"perfbench {workload} seed={seed} trace={trace}: "
        f"{attempted} operations, {len(failures)} failed"
    )
    print(f"  {'fail_share':<16}{len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    blobs = [o["bracket_miss"] for o in result["cases"] if "bracket_miss" in o]
    if blobs:
        print(f"  {'bracket_misses':<16}{sum(blobs)} of {len(blobs)} blob masks outside their brackets")
    if trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
        metrics["convergence.bracket_misses"] = (sum(blobs), "count")
        lines = [f"  {k:<34}{v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines += _case_lines(result["cases"])
    else:
        metrics, lines = end_to_end(result)
    for line in lines + [f"  failed: {f}" for f in failures] + [f"  trace check: {e}" for e in trace_errors]:
        print(line)
    print(
        json.dumps(
            {
                "correct": not failures and not trace_errors,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny cases, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specbound" / "cli.py").is_file():
        print(f"error: no specbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run(name, args.seed, args.seconds, args.trace, args.smoke)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
