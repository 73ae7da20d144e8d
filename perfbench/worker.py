"""Benchmark worker: runs one workload's passes in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

`run.py` writes the plan (the operations of one pass, the run length and
the trace flag) and reads the result.  A fresh process per run makes the
peak resident set after the first pass that of "a fresh process that ran
one pass".  Between its passes the worker also spawns the interpreters
that time set-up.  Every CLI call goes through `specbound.cli.main(argv)`
with its output captured, so the worker's own stdout stays clean.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_CODE = (
    "import time, specbound.cli as c; c.build_parser(); print(repr(time.time()))"
)


def _setup_s(root: Path) -> float:
    """Seconds from spawning an interpreter to `specbound.cli` imported and
    its parser built."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=root, check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.split()[-1]) - start


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Runner:
    def __init__(self, cli, workloads, ops, workdir: Path):
        self.cli = cli
        self.workloads = workloads
        self.ops = ops
        self.workdir = workdir
        self.reference = None  # artifacts of the first pass
        self.first_outcomes = None

    def _call(self, argv, tracer):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("cli.main", self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not a dead benchmark
                code = None
                traceback.print_exc(file=buffer)
        return code, buffer.getvalue()

    def run_pass(self, tracer=None):
        """One pass over the operations; returns (seconds inside cli.main,
        outcomes, artifacts)."""
        wall = 0.0
        outcomes, artifacts = [], []
        for index, op in enumerate(self.ops):
            suffix = "csv" if op["kind"] == "sweep" else "json"
            out = self.workdir / f"artifact-{index}.{suffix}"
            out.unlink(missing_ok=True)
            argv = self.workloads.argv_for(op, str(out))
            start = time.perf_counter()
            code, messages = self._call(argv, tracer)
            wall += time.perf_counter() - start
            artifact = out.read_text(encoding="utf-8") if out.exists() else None
            results = self.workloads.check(op, code, messages, artifact)
            if self.reference is not None and artifact != self.reference[index]:
                for o in results:
                    o["failure"] = o["failure"] or "artifact differs from the first pass"
            outcomes.extend(results)
            artifacts.append(artifact)
        if self.reference is None:
            self.reference, self.first_outcomes = artifacts, outcomes
        return wall, outcomes, artifacts


def _proxy_errors(proxy) -> list:
    """The matrix proxy must forward attributes and give identical products."""
    import numpy as np

    if proxy is None:
        return ["no matrix was assembled under tracing"]
    matrix = proxy._matrix
    x = np.linspace(-1.0, 1.0, matrix.shape[0])
    errors = []
    if not np.array_equal(proxy.diagonal(), matrix.diagonal()):
        errors.append("proxy.diagonal() differs from the matrix")
    if proxy.shape != matrix.shape or proxy.nnz != matrix.nnz:
        errors.append("proxy shape or nnz differs from the matrix")
    if not np.array_equal(proxy @ x, matrix @ x):
        errors.append("proxy @ x differs from matrix @ x")
    return errors


def _trace_run(runner, spans, result, spans_path: Path):
    untraced = [runner.run_pass()]
    outcomes = list(untraced[0][1])
    tracer = spans.Tracer()
    tracer.pass_id = 1
    installation = spans.install(tracer)
    try:
        traced = runner.run_pass(tracer)
    finally:
        installation.remove()
    errors = [f"wrapper left in place: {name}" for name in installation.leftovers()]
    layers = spans.layer_metrics(tracer.spans)
    tracer.pass_id = 2  # the self-check's own product, outside the pass
    errors += _proxy_errors(installation.last_proxy)
    untraced.append(runner.run_pass())
    outcomes += traced[1] + untraced[1][1]
    # artifacts carry lambda1, lambda1_error and the margins; tracing must
    # not change a byte of them
    if traced[2] != untraced[0][2] or untraced[1][2] != untraced[0][2]:
        errors.append("traced and untraced artifacts differ")
    base = statistics.median(w for w, _, _ in untraced)
    layers["trace.pass_s"] = (traced[0], "s")
    layers["trace.untraced_pass_s"] = (base, "s")
    layers["trace.overhead_s"] = (traced[0] - base, "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as sink:
        for s in tracer.spans:
            sink.write(json.dumps([s.name, s.start, s.end, s.parent, s.pass_id, s.info]) + "\n")
    result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result["trace_errors"] = errors
    return outcomes


def _timed_run(runner, plan: dict, result):
    # every pass is timed, the first one too: a CLI user pays its cold
    # start on each invocation, and the median shrugs off one slow sample.
    # Set-up samples are taken between passes, in step with the pass time,
    # so that each run's median meets the machine's slow and fast spells
    # alike; the worker's own import has already filled the bytecode cache
    seconds, samples, root = plan["seconds"], plan["setup_samples"], Path(plan["root"])
    walls, setup, outcomes = [], [], []
    while True:
        wall, more, _ = runner.run_pass()
        if not walls:
            result["peak_rss_mb"] = _peak_rss_mb()
        walls.append(wall)
        outcomes += more
        while len(setup) < min(samples, samples * sum(walls) / seconds):
            setup.append(_setup_s(root))
        # start another pass only if it should end inside the run length
        if sum(walls) + wall > seconds:
            break
    while len(setup) < samples:
        setup.append(_setup_s(root))
    result["walls"], result["setup"] = walls, setup
    return outcomes


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    root = Path(plan["root"])
    sys.path.insert(0, str(root / "src"))
    import specbound

    where = Path(specbound.__file__).resolve()
    if root / "src" not in where.parents:
        print(f"specbound imported from {where}, not from {root / 'src'}", file=sys.stderr)
        return 2
    import specbound.cli as cli

    import spans
    import workloads

    runner = Runner(cli, workloads, plan["ops"], Path(plan["workdir"]))
    result = {}
    if plan["trace"]:
        outcomes = _trace_run(runner, spans, result, Path(plan["spans_path"]))
    else:
        outcomes = _timed_run(runner, plan, result)
    result["attempted"] = len(outcomes)
    result["failures"] = [f"{o['case']}: {o['failure']}" for o in outcomes if o["failure"]]
    result["cases"] = runner.first_outcomes
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
