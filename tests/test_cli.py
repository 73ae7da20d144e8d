import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specbound._format import format_float
from specbound.cli import main

INTERVAL = '{"kind":"interval","dim":1,"params":{"a":0,"b":1}}'
DISK = '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":1}}'
# a center nested 100,000 lists deep, past what the JSON parser can recurse
DEEP = '{"kind":"ball","dim":2,"params":{"center":%s,"radius":1}}' % (
    "[" * 100_000 + "0" + "]" * 100_000
)
# a mask whose levels at h = 0.55 ... 0.06875 read 6.61, 12.80, 16.10 and
# 11.56, so that the extrapolated lambda1 is negative, -15.59
NEGATIVE_EXTRAPOLANT = '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,0,0],[1,0,1]],"cell_size":1}}'


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

    def test_over_cap_lattice_count_is_bounded(self, capsys):
        # about 4e600 lattice points: named by their digits, not printed
        code, out, err = run(capsys, "lambda1", "--domain", DISK, "--h-start", "1e-300")
        assert code == 2 and out == ""
        assert "level h=1e-300 has over 10^600 lattice points, above the cap 20000000" in err
        assert len(err) < 200

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
        # through the certification seam to pin the exit-code contract: every
        # printed PASS/FAIL word, the checks() table and the exit code agree
        import specbound.cli as cli_module

        real_certify = cli_module.certify_bounds
        reports = []

        def broken_certify(*args, **kwargs):
            report = real_certify(*args, **kwargs)
            value = forced(max(report.tolerance_band, 1e-8))
            if key == "krahn":
                object.__setattr__(report, "krahn_ratio", value)
            else:
                object.__setattr__(report, "margins", {**report.margins, key: value})
            reports.append(report)
            return report

        monkeypatch.setattr(cli_module, "certify_bounds", broken_certify)
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
        assert err == "error: levels must be an integer of at least 3, got 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--domain", DISK, "--hbar", "inf"],
            ["certify", "--domain", DISK, "--hbar", "nan"],
            ["certify", "--domain", DISK, "--tol", "inf"],
            ["certify", "--domain", DISK, "--tol", "1"],
            ["lambda1", "--domain", DISK, "--tol", "nan"],
            ["certify", "--domain", DISK, "--levels", "1100"],
            ["certify", "--domain", DISK, "--h-start", "1e-30"],
            ["sweep", "--family", "rectangle-aspect", "--hbar", "inf"],
        ],
        ids=[
            "hbar-inf", "hbar-nan", "tol-inf", "tol-1", "tol-nan", "levels-1100", "h-start-1e-30",
            "sweep-hbar-inf",
        ],
    )
    def test_vacuous_or_nonfinite_flags_fail_before_any_level(self, capsys, monkeypatch, argv):
        # an infinite hbar, or a tol that certifies nothing, must not run a
        # study; --levels 1100 stops at the first level over the lattice cap,
        # and --h-start 1e-30 at its first, whose 2e30 + 1 points per axis
        # are past what a C ssize_t counts
        from specbound import convergence

        def forbidden(*args):
            raise AssertionError(f"build_grid called at {args[1:]}")

        monkeypatch.setattr(convergence, "build_grid", forbidden)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--family", "rectangle-aspect", "--values", "1", "--format", "json"],
            ["lambda1", "--domain", INTERVAL, "--hbar", "2"],
        ],
        ids=["sweep-format", "lambda1-hbar"],
    )
    def test_flag_the_handler_does_not_read_is_rejected(self, capsys, argv):
        # sweep always writes CSV and lambda1 has no hbar, so argparse
        # refuses the flag instead of ignoring it
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {argv[-2]}" in captured.err

    def test_oversized_study_fails_before_allocating(self, capsys):
        # level 0 alone would be a 200001 x 200001 lattice
        code, out, err = run(capsys, "certify", "--domain", DISK, "--h-start", "1e-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cap" in err

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
        assert lines[0] == "n,order,zero,two_zero"
        assert [line.split(",") for line in lines[1:]] == [
            ["1", "-0.5", "1.57079632679", "3.14159265359"],
            ["2", "0", "2.4048255577", "4.80965111539"],
            ["3", "0.5", "3.14159265359", "6.28318530718"],
        ]


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

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"interval","dim":1,"params":{"a":null,"b":1}}',
            '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":"1"}}',
            '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,1],[1,0]],"cell_size":"x"}}',
            '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,1],[1]],"cell_size":0.5}}',
            '{"kind":"box","dim":"x","params":{"bounds":[[0,1],[0,1]]}}',
            '{"kind":["ball"],"dim":2,"params":{"center":[0,0],"radius":1}}',
            '{"kind":"raster-mask","dim":2,"params":{"mask":[["0","0"],["1","0"]],"cell_size":0.5}}',
            '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":true}}',
            '{"kind":"raster-mask","dim":2,"params":{"mask":[[true,false],[2,0]],"cell_size":0.5}}',
            '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,2],[1,0]],"cell_size":0.5}}',
            '{"kind":"interval","dim":1,"params":{"a":"9","b":"10"}}',
            '{"kind":"ball","dim":"2","params":{"center":[0,0],"radius":1}}',
            '{"kind":"interval","dim":true,"params":{"a":0,"b":1}}',
        ],
        ids=[
            "null-endpoint", "string-radius", "string-cell-size", "ragged-mask", "string-dim",
            "list-kind", "string-mask", "bool-radius", "bool-mask", "two-in-mask",
            "string-endpoints", "numeric-string-dim", "bool-dim",
        ],
    )
    def test_malformed_values_are_input_errors(self, capsys, spec):
        code, out, err = run(capsys, "dump-spec", "--domain", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


    def test_deep_nesting_is_input_error(self, capsys):
        code, out, err = run(capsys, "dump-spec", "--domain", DEEP)
        assert code == 2
        assert out == ""
        assert err == "error: invalid domain JSON: nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,1],[1,0]],"cell_size":0.5,"orgin":[3,4]}}',
                "raster-mask params have unknown key 'orgin' (expected mask, cell_size, origin)",
            ),
            (
                '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":1,"spin":2,"axis":[0,1]}}',
                "ball params have unknown key 'axis' (expected center, radius)",
            ),
            (
                '{"kind":"ball","dims":3,"params":{"center":[0,0,0],"radius":1,"spin":2}}',
                "domain spec has unknown key 'dims' (expected kind, dim, params)",
            ),
        ],
        ids=["misspelt-origin", "extra-ball-param", "extra-top-level-key"],
    )
    def test_unknown_key_is_input_error_naming_it(self, capsys, spec, message):
        # the first unknown key in sorted order, top-level keys before params
        code, out, err = run(capsys, "dump-spec", "--domain", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


# (argv, the start of stderr) for input checks that exit 2; they run in a
# directory holding `list.json`, a spec file whose JSON is a list, and `adir`
INPUT_ERRORS = {
    "infinite-bound": (
        ["dump-spec", "--domain", '{"kind":"box","dim":2,"params":{"bounds":[[0,Infinity],[0,1]]}}'],
        "error: bounding box must be finite\n",
    ),
    "flat-bounds": (
        ["dump-spec", "--domain", '{"kind":"box","dim":1,"params":{"bounds":[0,1]}}'],
        "error: bounds must be (dim, 2), got (2,)\n",
    ),
    "ellipse-lengths": (
        ["dump-spec", "--domain", '{"kind":"ellipse","dim":2,"params":{"center":[0,0],"semi_axes":[1]}}'],
        "error: center and semi_axes must have the same length\n",
    ),
    "ellipse-zero-axis": (
        ["dump-spec", "--domain", '{"kind":"ellipse","dim":2,"params":{"center":[0,0],"semi_axes":[1,0]}}'],
        "error: semi-axes must be positive\n",
    ),
    "two-vertices": (
        ["dump-spec", "--domain", '{"kind":"polygon","dim":2,"params":{"vertices":[[0,0],[1,0]]}}'],
        "error: vertices must be an (m >= 3, 2) array\n",
    ),
    "flat-mask": (
        ["dump-spec", "--domain", '{"kind":"raster-mask","dim":1,"params":{"mask":[1,1],"cell_size":0.5}}'],
        "error: mask must be a 2-D or 3-D array\n",
    ),
    "zero-cell-size": (
        ["dump-spec", "--domain", '{"kind":"raster-mask","dim":2,"params":{"mask":[[1]],"cell_size":0}}'],
        "error: cell_size must be positive, got 0\n",
    ),
    "spec-file-list": (["dump-spec", "--domain", "list.json"], "error: domain spec must be a JSON object\n"),
    "missing-params": (
        ["dump-spec", "--domain", '{"kind":"ball","dim":2}'],
        "error: domain spec is missing the 'params' object\n",
    ),
    "mask-dir-missing": (["sweep", "--family", "mask-batch"], "error: family mask-batch requires --mask-dir\n"),
    "mask-dir-file": (
        ["sweep", "--family", "mask-batch", "--mask-dir", "list.json"],
        "error: --mask-dir is not a directory: list.json\n",
    ),
    "values-text": (
        ["sweep", "--family", "rectangle-aspect", "--values", "a,b"],
        "error: cannot parse --values list: 'a,b'\n",
    ),
    "values-empty": (["sweep", "--family", "rectangle-aspect", "--values", ","], "error: --values is empty\n"),
    "out-is-directory": (["bessel-zeros", "--out", "adir"], "i/o error: "),
    # refused by name before any square root of it
    "negative-lambda1": (
        ["certify", "--domain", NEGATIVE_EXTRAPOLANT, "--h-start", "0.55", "--levels", "4"],
        "error: lambda1 must be positive, got -15.59",
    ),
}


@pytest.mark.parametrize("argv, expected", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_input_error_exits_2_with_its_message(capsys, monkeypatch, tmp_path, argv, expected):
    (tmp_path / "list.json").write_text("[1]", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(expected)
    assert err.count("\n") == 1


def test_holes_note_for_multiply_connected_mask(capsys):
    ring = '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,1,1],[1,0,1],[1,1,1]],"cell_size":0.25}}'
    code, _, err = run(capsys, "certify", "--domain", ring, "--levels", "3")
    assert code == 0
    assert err.startswith(
        "note: mask has interior holes (multiply connected); the sharp "
        "constants still bound it but equality cases do not apply\n"
    )


def test_non_monotone_note(capsys):
    # the README's 2x2 mask at the default spacings
    mask = '{"kind":"raster-mask","dim":2,"params":{"mask":[[1,1],[1,0]],"cell_size":0.5}}'
    code, _, err = run(capsys, "lambda1", "--domain", mask)
    assert code == 0
    assert err.startswith("note: lambda1 sequence is not monotone across levels\n")


@pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_format_float_writes_nonfinite_values_as_python_does(value, text):
    assert format_float(value) == text


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

    def test_default_values(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "rectangle-aspect", "--h-start", "0.25", "--levels", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[header.index("param")]) for row in rows] == [1.0, 1.5, 2.0, 4.0]
        assert all(row[-1] == "ok" for row in rows)

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

    @pytest.mark.parametrize("family", ["rectangle-aspect", "ellipse-aspect"])
    def test_nonpositive_or_nonfinite_values_are_input_errors(self, capsys, family):
        for values in ("-1", "0", "nan", "inf", "1,-2"):
            code, out, err = run(capsys, "sweep", "--family", family, f"--values={values}")
            assert code == 2
            assert out == ""
            assert err.startswith("error: --values")

    @pytest.mark.parametrize(
        "family, flag, reader",
        [
            ("rectangle-aspect", ["--values", "1", "--mask-dir", "no-such-dir"], "mask-batch"),
            ("ellipse-aspect", ["--mask-dir", "."], "mask-batch"),
            ("mask-batch", ["--mask-dir", ".", "--values", "1"], "rectangle-aspect"),
        ],
    )
    def test_flag_of_another_family_is_input_error(self, capsys, family, flag, reader):
        code, out, err = run(capsys, "sweep", "--family", family, *flag)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag[-2]} is read only by ")
        assert reader in err

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
        bad_cell = dict(good, params=dict(good["params"], cell_size="x"))
        (masks / "c_bad_cell.json").write_text(json.dumps(bad_cell))
        ragged = dict(good, params=dict(good["params"], mask=[[1, 1], [1]]))
        (masks / "d_ragged.json").write_text(json.dumps(ragged))
        (masks / "e_good.json").write_text(json.dumps(good))
        (masks / "f_undecodable.json").write_bytes(b"\xff\xfe{")
        (masks / "g_directory.json").mkdir()
        (masks / "h_list_kind.json").write_text(json.dumps(dict(good, kind=["raster-mask"])))
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
        header, *lines = csv.reader(io.StringIO(out))
        assert len(lines) == 8
        rows = {row[1]: row for row in lines}
        assert rows["a_good"][-1] == rows["e_good"][-1] == "ok"
        for name in (
            "b_bad", "c_bad_cell", "d_ragged", "f_undecodable", "g_directory", "h_list_kind",
        ):
            assert rows[name][-1].startswith("error:")
            assert len(rows[name]) == len(header)
        # the exception text is kept as it is, commas included
        assert "(2,)" in rows["d_ragged"][-1]
        # an unreadable file's row names the file
        for name in ("f_undecodable", "g_directory"):
            assert f"{name}.json" in rows[name][-1]

    def test_deeply_nested_mask_file_is_error_row(self, capsys, tmp_path):
        spec = {"kind": "raster-mask", "dim": 2, "params": {"mask": [[1] * 4] * 4, "cell_size": 0.25}}
        (tmp_path / "a_good.json").write_text(json.dumps(spec))
        (tmp_path / "b_deep.json").write_text(DEEP)
        code, out, _ = run(
            capsys, "sweep", "--family", "mask-batch", "--mask-dir", str(tmp_path),
            "--h-start", "0.125", "--levels", "3",
        )
        assert code == 0
        header, good, deep = csv.reader(io.StringIO(out))
        assert good[1] == "a_good" and good[-1] == "ok"
        assert deep[1] == "b_deep" and len(deep) == len(header)
        assert deep[-1] == "error: invalid domain JSON: nested too deeply to parse"

    def test_negative_lambda1_is_error_row(self, capsys, tmp_path):
        (tmp_path / "negative.json").write_text(NEGATIVE_EXTRAPOLANT)
        code, out, _ = run(
            capsys, "sweep", "--family", "mask-batch", "--mask-dir", str(tmp_path),
            "--h-start", "0.55", "--levels", "4",
        )
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert row[1] == "negative" and len(row) == len(header)
        assert row[-1].startswith("error: lambda1 must be positive, got -15.59")

    def test_comma_in_mask_file_name_keeps_columns(self, capsys, tmp_path):
        spec = {"kind": "raster-mask", "dim": 2, "params": {"mask": [[1] * 4] * 4, "cell_size": 0.25}}
        (tmp_path / "sq,1.json").write_text(json.dumps(spec))
        code, out, _ = run(
            capsys, "sweep", "--family", "mask-batch", "--mask-dir", str(tmp_path),
            "--h-start", "0.125", "--levels", "3",
        )
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 16
        assert dict(zip(header, row))["param"] == "sq,1"
        assert row[-1] == "ok"

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


def test_cli_import_leaves_out_scipy_solvers_and_special_functions():
    # the library keeps scipy to sparse storage; these modules are test-side
    # oracles, and scipy.ndimage alone would add about 0.2 s to every start
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (
        "import sys, specbound.cli; "
        "print(' '.join(m for m in ('scipy.special', 'scipy.sparse.linalg', "
        "'scipy.linalg', 'scipy.ndimage') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""
