import csv
import io
import json
import math
import re

import numpy as np
import pytest

from tailsum import ParseError, Pareto, TailWindow, log_transform, sample_iid, sum_product_ladder
from tailsum.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_PARSE,
    EXIT_RUNTIME,
    _write_report,
    main,
    read_observations,
)

C = math.log(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


@pytest.fixture
def datafile(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("2\n4\n8\n16\n32\n")
    return str(path)


class TestEstimate:
    def test_fixture_values(self, capsys, datafile):
        code, out, _ = run_cli(
            capsys, "estimate", "--input", datafile, "--k", "3", "--pmax", "2"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        results = payload["results"]
        assert results[0]["statistic"] == pytest.approx(2 * C, rel=1e-14)
        assert results[1]["statistic"] == pytest.approx(7 * C * C / 3, rel=1e-14)
        assert payload["manifest"]["command"] == "estimate"
        assert payload["manifest"]["parameters"]["k"] == 3

    def test_order_one_matches_hand_hill(self, capsys, datafile):
        code, out, _ = run_cli(
            capsys, "estimate", "--input", datafile, "--k", "3", "--pmax", "1"
        )
        payload = json.loads(out)
        # (1/3)(1+2+3) log 2
        assert payload["results"][0]["statistic"] == pytest.approx(2 * C, rel=1e-14)

    def test_window_too_large(self, capsys, datafile):
        code, _, err = run_cli(capsys, "estimate", "--input", datafile, "--k", "9")
        assert code == EXIT_PARAMS
        assert "window" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "nope.txt"), "--k", "3"
        )
        assert code == EXIT_IO

    def test_malformed_row(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nnot-a-number\n2.5\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--k", "2")
        assert code == EXIT_PARSE
        assert "not-a-number" in err

    def test_header_and_commas_tolerated(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("value\n2.0, 4.0\n8.0\n16\n32\n")
        assert read_observations(str(path)) == [2.0, 4.0, 8.0, 16.0, 32.0]

    def test_undecodable_input(self, capsys, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1\x00\n\x002\x00\n\x00")
        with pytest.raises(ParseError, match="utf16.txt"):
            read_observations(str(path))
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--k", "1")
        assert code == EXIT_PARSE
        assert str(path) in err
        assert out == ""

    def test_non_positive_observation(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1.0\n-3.0\n2.0\n")
        code, _, _ = run_cli(capsys, "estimate", "--input", str(path), "--k", "2")
        assert code == EXIT_PARSE

    def test_unrepresentable_index_is_null(self, capsys, datafile, monkeypatch):
        # parsed log spacings are never this small, so the ladder is stubbed
        import tailsum.cli as cli_mod

        monkeypatch.setattr(cli_mod, "sum_product_ladder", lambda *args: [5e-321, 0.0])
        code, out, _ = run_cli(
            capsys, "estimate", "--input", datafile, "--k", "3", "--pmax", "2"
        )
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert [entry["index_estimate"] for entry in results] == [None, None]
        assert results[0]["statistic"] == 5e-321

    def test_order_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("".join(f"{2.0 + i}\n" for i in range(150)))
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(path), "--k", "100", "--pmax", "170"
        )
        assert code == EXIT_PARAMS
        assert "pmax" in err

    def test_csv_format(self, capsys, datafile):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--input", datafile, "--k", "3", "--pmax", "2", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out.split("# manifest:")[0])))
        assert rows[0] == ["p", "statistic", "index_estimate", "lil_envelope"]
        assert float(rows[1][1]) == pytest.approx(2 * C, rel=1e-14)

    def test_round_trip_with_sampler(self, capsys, tmp_path):
        sample = sample_iid(Pareto(1.0), 2024, 200)
        raw = np.exp(sample.values)
        path = tmp_path / "sampled.txt"
        path.write_text("".join(repr(float(x)) + "\n" for x in raw))
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--k", "40", "--pmax", "3"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        resampled = log_transform([float(line) for line in path.read_text().split()])
        expected = sum_product_ladder(resampled, TailWindow(200, 40, 0), 3)
        for p in (1, 2, 3):
            assert payload["results"][p - 1]["statistic"] == expected[p - 1]


def table_rows(out):
    return list(csv.reader(io.StringIO(out.split("# manifest:")[0])))


class TestTables:
    def test_type_i_table(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--family", "type1", "--vmax", "3", "--dmax", "4")
        assert code == EXIT_OK
        rows = table_rows(out)
        assert rows[0] == ["v\\r", "1", "2", "3", "4"]
        assert rows[1][1:] == ["1", "1", "1", "2"]
        assert rows[4][1:] == ["1", "1", "4", "14"]
        assert "# manifest:" in out

    def test_family_aliases(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "tables", "--family", "beta", "--vmax", "2", "--dmax", "3")
        code_b, out_b, _ = run_cli(capsys, "tables", "--family", "type_i", "--vmax", "2", "--dmax", "3")
        assert code_a == code_b == EXIT_OK
        assert strip_timestamp(out_a) == strip_timestamp(out_b)

    def test_type_ii_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--family", "mu0", "--tau", "2", "--vmax", "5", "--dmax", "2"
        )
        rows = table_rows(out)
        col1 = [row[1] for row in rows[1:]]
        col2 = [row[2] for row in rows[1:]]
        assert col1 == ["1", "2", "3", "4", "5", "6"]
        assert col2 == ["1"] * 6

    def test_type_iii_first_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--family", "mu1", "--tau", "1", "--vmax", "1", "--dmax", "5"
        )
        rows = table_rows(out)
        assert rows[1][1:] == ["1", "1", "2", "5", "14"]

    def test_tau_required(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--family", "mu0", "--vmax", "3")
        assert code == EXIT_PARAMS


class TestCovariance:
    def test_frechet_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "covariance", "--domain", "frechet", "--pmax", "4"
        )
        payload = json.loads(out)
        diag = [payload["matrix"][i][i] for i in range(4)]
        assert diag == [2.0, 6.0, 20.0, 70.0]

    def test_frechet_reduced(self, capsys):
        code, out, _ = run_cli(
            capsys, "covariance", "--domain", "frechet", "--pmax", "3", "--reduced"
        )
        payload = json.loads(out)
        diag = [payload["matrix"][i][i] for i in range(3)]
        assert diag == [1.0, 5.0, 19.0]
        assert payload["matrix"][0][1] == 2.0

    def test_weibull_scalar(self, capsys):
        code, out, _ = run_cli(
            capsys, "covariance", "--domain", "weibull", "--gamma", "1", "--pmax", "1"
        )
        payload = json.loads(out)
        assert payload["matrix"][0][0] == pytest.approx(4 / 3, rel=1e-14)

    def test_invalid_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "covariance", "--domain", "weibull", "--gamma", "-2", "--pmax", "2"
        )
        assert code == EXIT_PARAMS
        code, _, err = run_cli(capsys, "covariance", "--domain", "weibull", "--pmax", "2")
        assert code == EXIT_PARAMS


class TestMonteCarloCommand:
    ARGS = [
        "mc", "--dist", "pareto", "--gamma", "1.0", "--n", "1500", "--k", "80",
        "--pmax", "2", "--reps", "32", "--seed", "7", "--reduced",
    ]

    def test_report_and_manifest(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["manifest"]["seed"] == 7
        assert payload["manifest"]["parameters"]["reps"] == 32
        assert payload["report"]["centering"] == "fixed"
        assert len(payload["report"]["comparisons"]) == 2 + 1 + 2

    def test_byte_identical_apart_from_timestamp(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_workers_do_not_change_bytes(self, capsys):
        outputs = []
        for workers in ("1", "2", "8"):
            _, out, _ = run_cli(capsys, *self.ARGS, "--workers", workers)
            outputs.append(strip_timestamp(out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS, "--workers", "0")
        assert code == EXIT_PARAMS
        assert "workers" in err

    def test_rerun_from_manifest(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        manifest = json.loads(out)["manifest"]
        params = manifest["parameters"]
        args = [
            "mc",
            "--dist", params["dist"],
            "--n", str(params["n"]),
            "--k", str(params["k"]),
            "--l", str(params["l"]),
            "--pmax", str(params["pmax"]),
            "--reps", str(params["reps"]),
            "--seed", str(manifest["seed"]),
            "--x0", str(params["x0"]),
        ]
        if params["gamma"] is not None:
            args += ["--gamma", str(params["gamma"])]
        if params["reduced"]:
            args.append("--reduced")
        _, out2, _ = run_cli(capsys, *args)
        assert strip_timestamp(out2) == strip_timestamp(out)

    def test_order_beyond_float_range(self, capsys):
        # the bound is checked before centering, which overflows first for
        # the families centered numerically
        for dist in ("pareto", "stretched", "power"):
            code, _, err = run_cli(
                capsys,
                "mc", "--dist", dist, "--n", "400", "--k", "100", "--pmax", "200",
                "--reps", "2", "--seed", "3",
            )
            assert code == EXIT_PARAMS, dist
            assert "pmax" in err

    def test_centering_beyond_float_range(self, capsys):
        code, out, err = run_cli(
            capsys,
            "mc", "--dist", "pareto", "--gamma", "1e-300", "--n", "100", "--k", "10",
            "--reps", "4", "--seed", "1", "--pmax", "2",
        )
        assert code == EXIT_PARAMS
        assert "gamma" in err
        assert out == ""

    def test_predicted_values_agree_within_report(self, capsys):
        # weibull domain, deterministic centering: each comparison's target
        # is the matching cell of the reported predicted matrix, bit for bit
        code, out, _ = run_cli(
            capsys,
            "mc", "--dist", "power", "--gamma", "1.5", "--n", "500", "--k", "40",
            "--pmax", "4", "--reps", "8", "--seed", "3", "--reduced",
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        checked = 0
        for entry in report["comparisons"]:
            if entry["quantity"] in ("variance", "covariance"):
                r, rho = entry["orders"]
                assert entry["predicted"] == report["predicted_covariance"][r - 1][rho - 1]
                checked += 1
        assert checked == 4 + 6

    def test_invalid_window(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "mc", "--dist", "pareto", "--n", "100", "--k", "100",
            "--reps", "8", "--seed", "1",
        )
        assert code == EXIT_PARAMS

    def test_runtime_failures_exit_five(self, capsys, monkeypatch):
        import tailsum.cli as cli_mod

        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        code, _, err = run_cli(capsys, *self.ARGS)
        assert code == EXIT_RUNTIME
        assert "synthetic" in err


class TestOracleCommand:
    def test_value_and_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "2", "3", "--grid", "256")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(10.0, abs=1e-3)
        assert abs(payload["convergence"]["refinement_difference"]) < 1e-3

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "2", "3", "--grid", "10")
        assert code == EXIT_PARAMS

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "oracle.json"
        code, out, _ = run_cli(
            capsys, "oracle", "1", "1", "--grid", "512", "--output", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["value"] == pytest.approx(2.0, abs=1e-4)
        assert payload["manifest"]["parameters"]["grid"] == 512


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_PARAMS

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--k", "3")
        assert code == EXIT_PARAMS


def report_manifest(text):
    if "# manifest: " in text:
        return json.loads(text.split("# manifest: ")[1])
    return json.loads(text)["manifest"]


class TestManifest:
    """Each command's parameters, in order, as its report recorded them
    when they were listed by hand; --output and --workers never appear."""

    def manifest(self, capsys, tmp_path, *argv):
        path = tmp_path / "report"
        code, out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        manifest = report_manifest(path.read_text())
        assert list(manifest) == ["command", "parameters", "seed", "version", "timestamp"]
        assert manifest["command"] == argv[0]
        return manifest

    def test_estimate(self, capsys, tmp_path, datafile):
        manifest = self.manifest(
            capsys, tmp_path,
            "estimate", "--input", datafile, "--k", "3", "--l", "1", "--pmax", "2",
            "--domain", "weibull", "--gamma", "1.5", "--format", "csv",
        )
        assert list(manifest["parameters"].items()) == [
            ("input", datafile), ("k", 3), ("l", 1), ("pmax", 2),
            ("domain", "weibull"), ("gamma", 1.5), ("format", "csv"),
        ]
        assert manifest["seed"] is None

    def test_tables_records_resolved_family(self, capsys, tmp_path):
        manifest = self.manifest(capsys, tmp_path, "tables", "--family", "mu1", "--tau", "2")
        assert list(manifest["parameters"].items()) == [
            ("family", "type_iii"), ("tau", 2), ("vmax", 10), ("dmax", 10),
        ]
        assert manifest["seed"] is None

    def test_covariance(self, capsys, tmp_path):
        manifest = self.manifest(
            capsys, tmp_path, "covariance", "--domain", "gumbel", "--pmax", "2", "--reduced"
        )
        assert list(manifest["parameters"].items()) == [
            ("domain", "gumbel"), ("gamma", None), ("pmax", 2), ("reduced", True),
            ("format", "json"),
        ]
        assert manifest["seed"] is None

    def test_mc(self, capsys, tmp_path):
        manifest = self.manifest(
            capsys, tmp_path, *TestMonteCarloCommand.ARGS, "--workers", "2"
        )
        assert list(manifest["parameters"].items()) == [
            ("dist", "pareto"), ("gamma", 1.0), ("x0", 2.0), ("n", 1500), ("k", 80),
            ("l", 0), ("pmax", 2), ("reps", 32), ("reduced", True),
        ]
        assert manifest["seed"] == 7

    def test_oracle(self, capsys, tmp_path):
        manifest = self.manifest(
            capsys, tmp_path, "oracle", "2", "3", "--grid", "64", "--truncation", "45"
        )
        assert list(manifest["parameters"].items()) == [
            ("r", 2), ("rho", 3), ("grid", 64), ("truncation", 45.0),
        ]
        assert manifest["seed"] is None


# numpy overflows on the way to these results; its warning is let through so
# that the report check, not the warning filter, is what stops them
_NUMPY_OVERFLOW = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestNonFiniteReports:
    def test_truncation_must_be_finite(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run_cli(capsys, "oracle", "1", "1", "--truncation", value)
            assert code == EXIT_PARAMS
            assert "truncation" in err
            assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["oracle", "1", "1", "--truncation", "1e300"], marks=_NUMPY_OVERFLOW),
            pytest.param(
                ["covariance", "--domain", "weibull", "--gamma", "1e-300", "--pmax", "3",
                 "--reduced"],
                marks=_NUMPY_OVERFLOW,
            ),
            pytest.param(
                ["covariance", "--domain", "weibull", "--gamma", "1e-300", "--pmax", "3",
                 "--reduced", "--format", "csv"],
                marks=_NUMPY_OVERFLOW,
            ),
            ["estimate", "--k", "3", "--domain", "weibull", "--gamma", "1e-300"],
            pytest.param(
                ["mc", "--dist", "pareto", "--gamma", "1e300", "--n", "100", "--k", "10",
                 "--reps", "4", "--seed", "1", "--pmax", "2"],
                marks=_NUMPY_OVERFLOW,
            ),
        ],
        ids=["oracle", "covariance-json", "covariance-csv", "estimate", "mc"],
    )
    def test_non_finite_result_exits_five(self, capsys, tmp_path, datafile, argv):
        if argv[0] == "estimate":
            argv = [*argv, "--input", datafile]
        path = tmp_path / "report"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == EXIT_RUNTIME
        assert err.count("error:") == 1
        assert "JSON" in err
        assert out == ""
        assert not path.exists()

    def test_writer_rejects_nan_before_writing(self, tmp_path):
        path = tmp_path / "report"
        for fmt in ("json", "csv"):
            with pytest.raises(ValueError):
                _write_report(str(path), fmt, {"seed": None}, {"value": math.nan}, [["nan"]])
            assert not path.exists()
