"""`tools/snapshot.py --compare`, the artifact gate for changes that may
move the last digits of a result."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

CAPTURE = {
    "certify": {
        "exit": "0\n",
        "stdout": '{"lambda1": 5.78318596295, "margins": {"eq7": -1.11022302463e-16}, "eq7": true}\n',
        "stderr": "spectral bound  PASS  margin=-1.11022302463e-16 [equality]\n",
    },
    "nonconvergence": {
        "exit": "3\n",
        "stdout": "",
        "stderr": "did not reach residual 5.725e-13 within 804 iterations (804 matvecs, best 5.681e-13)\n",
    },
}


def write(root: Path, capture: dict) -> Path:
    for case, files in capture.items():
        (root / case).mkdir(parents=True)
        for name, text in files.items():
            (root / case / name).write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "case, name, old, new, passes",
    [
        ("certify", "stdout", "5.78318596295", "5.78318596301", True),
        ("certify", "stdout", "-1.11022302463e-16", "0", True),
        ("nonconvergence", "stderr", "804 iterations (804 matvecs, best 5.681e-13)",
         "23 iterations (23 matvecs, best 1.115e-13)", True),
        ("certify", "stdout", "5.78318596295", "5.78318696295", False),
        ("certify", "stdout", '"eq7": true', '"eq7": false', False),
        ("certify", "stderr", "PASS", "FAIL", False),
        ("certify", "stderr", " [equality]", "", False),
        ("certify", "exit", "0", "3", False),
        ("nonconvergence", "stderr", "did not reach", "reached", False),
    ],
    ids=["digits", "roundoff-zero", "solver-counts", "drift", "flag", "verdict",
         "equality-mark", "exit", "message"],
)
def test_compare(monkeypatch, tmp_path, case, name, old, new, passes):
    monkeypatch.syspath_prepend(str(TOOLS))
    import snapshot

    changed = {c: dict(files) for c, files in CAPTURE.items()}
    assert old in changed[case][name]
    changed[case][name] = changed[case][name].replace(old, new)
    a = write(tmp_path / "a", CAPTURE)
    b = write(tmp_path / "b", changed)
    problems = snapshot.compare(a, b)
    assert (problems == []) == passes
    assert all(found == case for found, _ in problems)
    assert snapshot.main(["--compare", str(a), str(b)]) == (0 if passes else 1)


def test_compare_reports_a_missing_case(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    import snapshot

    a = write(tmp_path / "a", CAPTURE)
    b = write(tmp_path / "b", {"certify": CAPTURE["certify"]})
    assert snapshot.compare(a, b) == [("nonconvergence", f"only in {a}")]
