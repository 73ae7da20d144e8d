"""The benchmark's tracer wraps library names it resolves at call time
(see perfbench/spans.py); a rename or deletion here must fail this test,
not only the traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_removes_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    installation = spans.install(spans.Tracer())
    installation.remove()
    assert installation.originals
    assert installation.leftovers() == []
