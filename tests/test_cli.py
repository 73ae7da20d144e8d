import json
import math

import pytest

from specbound.cli import main

INTERVAL = '{"kind":"interval","dim":1,"params":{"a":0,"b":1}}'
DISK = '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":1}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLambda1:
    def test_interval_json_artifact(self, capsys):
        code, out, err = run(capsys, "lambda1", "--domain", INTERVAL)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] == pytest.approx(math.pi**2, rel=1e-4)
        assert payload["observed_order"] == pytest.approx(2.0, abs=0.1)
        assert "lambda1" in err

    def test_csv_artifact(self, capsys, tmp_path):
        target = tmp_path / "study.csv"
        code, out, err = run(
            capsys,
            "lambda1",
            "--domain",
            INTERVAL,
            "--levels",
            "3",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "h,lambda1,diff,extrapolant"
        assert len(lines) == 4

    def test_domain_file_input(self, capsys, tmp_path):
        spec = tmp_path / "interval.json"
        spec.write_text(INTERVAL)
        code, out, _ = run(capsys, "lambda1", "--domain", str(spec), "--levels", "3")
        assert code == 0

    def test_malformed_json_is_input_error(self, capsys):
        code, out, err = run(capsys, "lambda1", "--domain", '{"kind":')
        assert code == 2
        assert "JSON" in err

    def test_missing_field_named_in_diagnostic(self, capsys):
        code, out, err = run(capsys, "lambda1", "--domain", '{"dim":1,"params":{}}')
        assert code == 2
        assert "kind" in err

    def test_unknown_kind_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "lambda1", "--domain", '{"kind":"torus","dim":2,"params":{}}'
        )
        assert code == 2
        assert "torus" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "lambda1", "--domain", "no-such-file.json")
        assert code == 2

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "lambda1",
            "--domain",
            INTERVAL,
            "--h-start",
            "0.125",
            "--levels",
            "3",
            "--tol",
            "1e-30",
        )
        assert code == 3
        assert "converge" in err.lower()


class TestCertify:
    def test_interval_passes_all_bounds(self, capsys):
        code, out, err = run(
            capsys, "certify", "--domain", INTERVAL, "--levels", "4"
        )
        assert code == 0
        report = json.loads(out)
        for key in (
            "lambda1",
            "lambda1_error",
            "sigma_p",
            "sigma_x",
            "krahn_ratio",
            "diameter_product",
            "margins",
            "equality_flags",
        ):
            assert key in report
        assert report["diameter_product"] == pytest.approx(math.pi, rel=1e-3)
        assert err.count("  PASS  ") == 4
        assert "certification PASSED" in err

    def test_csv_report(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, err = run(
            capsys,
            "certify",
            "--domain",
            INTERVAL,
            "--levels",
            "3",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0].startswith("domain_kind,n,hbar,lambda1")
        assert len(lines) == 2

    def test_hbar_scales_sigma_p(self, capsys):
        _, out1, _ = run(capsys, "certify", "--domain", INTERVAL, "--levels", "3")
        _, out2, _ = run(
            capsys, "certify", "--domain", INTERVAL, "--levels", "3", "--hbar", "2"
        )
        # artifact floats are rounded to 12 significant digits
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r2["sigma_p"] == pytest.approx(2.0 * r1["sigma_p"], rel=1e-10)
        assert r2["margins"] == r1["margins"]

    # (forced key, value as a function of slack = max(band, 1e-8), passes)
    @pytest.mark.parametrize(
        "key, forced, passes",
        [
            ("eq10", lambda slack: -0.5, False),
            ("eq7", lambda slack: -1e-6, False),
            ("eq7", lambda slack: -1e-9, True),
            ("eq10", lambda slack: -slack / 2, True),
            ("eq10", lambda slack: -2 * slack, False),
            ("krahn", lambda slack: 1.0 - slack / 2, True),
            ("krahn", lambda slack: 1.0 - 2 * slack, False),
        ],
        ids=[
            "eq10-half",
            "eq7-1e-6",
            "eq7-1e-9",
            "eq10-half-slack",
            "eq10-twice-slack",
            "krahn-half-slack",
            "krahn-twice-slack",
        ],
    )
    def test_bound_violation_exit_code(self, capsys, monkeypatch, key, forced, passes):
        # honest runs cannot violate the bounds, so force a bad report
        # through the pipeline seam to pin the exit-code contract: every
        # printed PASS/FAIL word, the checks() table and the exit code agree
        import specbound.cli as cli_module

        real_pipeline = cli_module.certify_pipeline
        reports = []

        def broken_pipeline(*args, **kwargs):
            study, report = real_pipeline(*args, **kwargs)
            value = forced(max(report.tolerance_band, 1e-8))
            if key == "krahn":
                object.__setattr__(report, "krahn_ratio", value)
            else:
                object.__setattr__(report, "margins", {**report.margins, key: value})
            reports.append(report)
            return study, report

        monkeypatch.setattr(cli_module, "certify_pipeline", broken_pipeline)
        code, _, err = run(capsys, "certify", "--domain", INTERVAL, "--levels", "3")
        checks = reports[0].checks()
        # only the forced bound can fail, and it fails exactly when expected
        assert [c.passed for c in checks] == [passes or c.key != key for c in checks]
        printed = [w for line in err.splitlines() for w in line.split() if w in ("PASS", "FAIL")]
        assert printed == ["PASS" if c.passed else "FAIL" for c in checks]
        assert code == (0 if all(c.passed for c in checks) else 1)
        assert ("certification PASSED" in err) == passes

    def test_invalid_levels_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "certify", "--domain", INTERVAL, "--levels", "2"
        )
        assert code == 2
        assert "levels" in err

    def test_byte_identical_artifacts_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "certify",
                "--domain",
                DISK,
                "--h-start",
                "0.25",
                "--levels",
                "3",
                "--out",
                str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBesselZeros:
    def test_table_values(self, capsys):
        code, out, err = run(capsys, "bessel-zeros")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [1, 2, 3]
        two = [r["two_zero"] for r in rows]
        assert two[0] == pytest.approx(math.pi, abs=1e-11)
        assert two[1] == pytest.approx(4.80965111539, abs=1e-9)
        assert two[1] >= 4.8
        assert two[2] == pytest.approx(2.0 * math.pi, abs=1e-11)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bessel-zeros", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,order,zero,two_zero,residual"
        assert len(lines) == 4


class TestDumpSpec:
    def test_round_trip_is_identity(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        code, _, _ = run(capsys, "dump-spec", "--domain", DISK, "--out", str(first))
        assert code == 0
        code, _, _ = run(
            capsys, "dump-spec", "--domain", str(first), "--out", str(second)
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_normalizes_inline_spec(self, capsys):
        code, out, _ = run(capsys, "dump-spec", "--domain", INTERVAL)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "interval"
        assert payload["params"] == {"a": 0.0, "b": 1.0}


class TestSweep:
    def test_rectangle_aspects_monotone_krahn(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "rectangle-aspect",
            "--values",
            "1,1.5,2",
            "--h-start",
            "0.125",
            "--levels",
            "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("family,param,kind")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        assert all(row[-1] == "ok" for row in rows)
        ratio_col = lines[0].split(",").index("krahn_ratio")
        ratios = [float(row[ratio_col]) for row in rows]
        assert ratios == sorted(ratios)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_ellipse_aspect_one_is_circle(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "ellipse-aspect",
            "--values",
            "1",
            "--h-start",
            "0.125",
            "--levels",
            "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        row = lines[1].split(",")
        ratio = float(row[lines[0].split(",").index("krahn_ratio")])
        assert ratio == pytest.approx(1.0, abs=2e-2)

    def test_empty_mask_batch(self, capsys, tmp_path):
        empty = tmp_path / "masks"
        empty.mkdir()
        code, out, _ = run(
            capsys, "sweep", "--family", "mask-batch", "--mask-dir", str(empty)
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("family,param,kind")

    def test_mask_batch_records_per_shape_errors(self, capsys, tmp_path):
        masks = tmp_path / "masks"
        masks.mkdir()
        good = {
            "kind": "raster-mask",
            "dim": 2,
            "params": {"mask": [[1] * 8] * 8, "cell_size": 0.25},
        }
        (masks / "a_good.json").write_text(json.dumps(good))
        (masks / "b_bad.json").write_text('{"kind":"raster-mask","params":{}}')
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "mask-batch",
            "--mask-dir",
            str(masks),
            "--h-start",
            "0.25",
            "--levels",
            "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[-1] == "ok"
        assert lines[2].split(",")[-1].startswith("error:")
        assert len(lines[2].split(",")) == len(lines[0].split(","))

    def test_shared_columns_match_report_csv(self, capsys):
        flags = ("--h-start", "0.25", "--levels", "3")
        code, out, _ = run(
            capsys, "sweep", "--family", "rectangle-aspect", "--values", "2", *flags
        )
        assert code == 0
        sweep = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        rect = '{"kind":"box","dim":2,"params":{"bounds":[[0,2],[0,1]]}}'
        code, out, _ = run(capsys, "certify", "--domain", rect, "--format", "csv", *flags)
        assert code == 0
        report = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        report["kind"] = report.pop("domain_kind")
        shared = [c for c in sweep if c in report]  # kind ... margin_kennard
        assert len(shared) == 12
        assert {c: sweep[c] for c in shared} == {c: report[c] for c in shared}

    def test_sweep_to_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            "--family",
            "rectangle-aspect",
            "--values",
            "1",
            "--h-start",
            "0.25",
            "--levels",
            "3",
            "--out",
            str(target),
        )
        assert code == 0
        assert target.read_text().startswith("family,param,kind")
