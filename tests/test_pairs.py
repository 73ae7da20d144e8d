"""`tools/pairs.py`: the alternating-pairs benchmark protocol and its summary."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
METRICS = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def line(wall, rss, failed=0, attempted=10):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MiB"}},
    })


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import pairs

    return pairs


def test_result_line_is_the_last_json_result(pairs):
    stdout = "perfbench mask-sweep seed=1\n  wall_s median 0.3 s\n" + line(0.3, 50) + "\n"
    assert pairs.result_line(stdout)["metrics"]["wall_s"]["value"] == 0.3
    assert pairs.result_line("perfbench\n{not json\n") is None
    assert pairs.result_line('{"correct": true}\n') is None


def canned_runs(parent, change, failed=()):
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        runs.append({"pair": pair, "side": "parent", "result": json.loads(line(a, 50.0))})
        result = None if b is None else json.loads(line(b, 51.0, failed=pair in failed))
        runs.append({"pair": pair, "side": "change", "result": result})
    return runs


PARENT = [0.40, 0.38, 0.41, 0.39, 0.42, 0.40, 0.37, 0.43, 0.40, 0.39]
CHANGE = [0.30, 0.31, 0.29, 0.30, 0.32, 0.31, 0.30, 0.29, 0.30, 0.45]


def test_summary_on_canned_lines(pairs):
    # wall_s: the change wins 9 of 10 pairs; peak_rss_mb: lower is better, so
    # a change that reads higher loses every pair
    summary = pairs.summarize(canned_runs(PARENT, CHANGE), METRICS)
    assert summary["missing_runs"] == {"parent": 0, "change": 0}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 100, "change": 100}
    wall = summary["metrics"]["wall_s"]
    assert (wall["pairs"], wall["change_wins"], wall["parent_wins"], wall["ties"]) == (10, 9, 1, 0)
    assert wall["parent"]["median"] == pytest.approx(0.40)
    assert wall["change"]["median"] == pytest.approx(0.30)
    assert wall["median_gap"] == pytest.approx(0.10)
    assert wall["change_over_parent"] == pytest.approx(0.75)
    assert wall["gain"]
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == (0, 10)
    assert rss["median_gap"] == pytest.approx(-1.0)
    assert not rss["gain"]
    # metrics that no result line carries are left out
    assert set(summary["metrics"]) == {"wall_s", "peak_rss_mb"}


def test_missing_runs_and_failures_void_a_gain(pairs):
    # an eleventh pair whose change printed no result counts against the
    # 9-in-10 rule; a failed operation that the parent did not have voids it
    summary = pairs.summarize(canned_runs(PARENT + [0.41], CHANGE + [None]), METRICS)
    assert summary["missing_runs"] == {"parent": 0, "change": 1}
    wall = summary["metrics"]["wall_s"]
    assert (wall["pairs"], wall["change_wins"]) == (10, 9)
    assert not wall["gain"]
    summary = pairs.summarize(canned_runs(PARENT, CHANGE, failed={0}), METRICS)
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert not summary["metrics"]["wall_s"]["gain"]


def test_ties_count_for_neither_and_higher_is_better_flips(pairs):
    runs = [{"pair": p, "side": s, "result": json.loads(line(1.0, 2.0))}
            for p in range(3) for s in ("parent", "change")]
    wall = pairs.summarize(runs, METRICS)["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["parent_wins"], wall["ties"]) == (0, 0, 3)
    assert not wall["gain"]
    runs[1]["result"]["metrics"]["wall_s"]["value"] = 0.5
    higher = [{"name": "wall_s", "better": "higher"}]
    wall = pairs.summarize(runs, higher)["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["parent_wins"]) == (0, 1)


def traced_line(matvecs):
    return json.dumps({
        "correct": True, "attempted": 2, "failed": 0,
        "metrics": {"eigensolve.matvecs": {"value": matvecs, "unit": "count"}},
    })


def test_main_alternates_sides_and_keeps_failed_runs(pairs, tmp_path):
    # each fake checkout's run.py prints its own wall time, or with
    # --trace 1 its own matvec count; the change's fails on its second call
    for side, wall, matvecs in (("parent", 0.4, 878), ("change", 0.3, 877)):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(
            "import pathlib, sys\n"
            "count = pathlib.Path('calls')\n"
            "n = int(count.read_text()) if count.exists() else 0\n"
            "count.write_text(str(n + 1))\n"
            f"if {side == 'change'} and n == 1:\n"
            "    sys.exit(1)\n"
            "traced = sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
            "print('perfbench')\n"
            f"print({traced_line(matvecs)!r} if traced else {line(wall, 50.0)!r})\n",
            encoding="utf-8",
        )
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "mask-sweep",
            "--seed", "1", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert pairs.main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["machine"]["nproc"] >= 1
    assert report["commits"] == {"parent": None, "change": None}
    (entry,) = report["workloads"]
    order = [(r["pair"], r["side"], r["runs_first"]) for r in entry["runs"]]
    assert order == [
        (0, "parent", True), (0, "change", False),
        (1, "change", True), (1, "parent", False),
        (2, "parent", True), (2, "change", False),
    ]
    failed = [r for r in entry["runs"] if r["result"] is None]
    assert [(r["pair"], r["side"], r["exit"]) for r in failed] == [(1, "change", 1)]
    assert entry["missing_runs"] == {"parent": 0, "change": 1}
    wall = entry["metrics"]["wall_s"]
    assert (wall["pairs"], wall["change_wins"]) == (2, 2)
    # one traced run per side after the pairs, outside every statistic
    assert set(entry["metrics"]) == {"wall_s", "peak_rss_mb"}
    for side, matvecs in (("parent", 878), ("change", 877)):
        assert (tmp_path / side / "calls").read_text() == "4"
        traced = entry["traced"][side]["result"]
        assert traced["metrics"]["eigensolve.matvecs"]["value"] == matvecs
    assert report["traced_command"].endswith("--trace 1")


def test_commit_is_the_checked_out_head_or_none(pairs, tmp_path):
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    plain.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "run.py").write_text("print()\n", encoding="utf-8")
    subprocess.run(git + ["add", "run.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True)
    assert pairs.commit(repo) == head.stdout.strip()
    assert pairs.commit(plain) is None
    # a directory inside a work tree is not a checkout of it
    (repo / "sub").mkdir()
    assert pairs.commit(repo / "sub") is None
