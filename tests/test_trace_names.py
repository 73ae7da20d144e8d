"""The benchmark's tracer wraps library names it resolves at call time
(see perfbench/spans.py); a rename or deletion here must fail this test,
not only the traced benchmark run."""

import itertools
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_removes_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    installation = spans.install(spans.Tracer())
    installation.remove()
    assert installation.originals
    assert installation.leftovers() == []


def test_tracer_records_every_level_solve(monkeypatch, tmp_path):
    # the tracer binds each solve's arguments to the solver's signature to
    # read `tol`; a signature it cannot bind must fail here too.  The
    # per-layer discretize split needs one traced build per level, each
    # the size of that level's window
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from specbound import Interval, cli
    from specbound.discretize import _nested_windows

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        code = cli.main([
            "lambda1",
            "--domain", '{"kind":"interval","dim":1,"params":{"a":0,"b":1}}',
            "--h-start", "0.125",
            "--levels", "3",
            "--out", str(tmp_path / "out.json"),
        ])
    finally:
        installation.remove()
    assert code == 0
    solves = [span for span in tracer.spans if span.name == spans.EIGENSOLVE]
    assert len(solves) == 3
    for span in solves:
        assert 0 < span.info["residual_ratio"] <= 1
    windows = itertools.islice(_nested_windows(Interval(0.0, 1.0), 0.125), 3)
    builds = [span.info["lattice"] for span in tracer.spans if span.name == "discretize.build_grid"]
    assert builds == [math.prod(len(r) for r in window) for _, window in windows] == [9, 17, 33]


def test_tracer_spans_every_domain_kind(monkeypatch):
    # a kind that inherits `metrics` (Interval from Box) is timed through
    # its base class's wrapper, and `membership` through Domain's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    import spans

    from specbound import Ball, Box, Ellipse, Interval, Polygon, RasterMask

    domains = [
        Interval(0.0, 1.0),
        Box([[0.0, 2.0], [0.0, 1.0]]),
        Ball([0.0, 0.0, 0.0], 1.0),
        Ellipse([0.0, 0.0], [1.0, 0.5]),
        Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]),
        RasterMask([[1, 1], [1, 0]], 0.5),
    ]
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        for domain in domains:
            start = len(tracer.spans)
            domain.metrics()
            domain.membership(np.zeros((3, domain.dim)))
            names = [span.name for span in tracer.spans[start:]]
            assert names == ["geometry.metrics", "geometry.membership"], domain
            assert tracer.spans[-1].info == {"points": 3}
    finally:
        installation.remove()
    assert installation.leftovers() == []
