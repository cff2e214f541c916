import csv
import io
import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailsum.cli as cli_mod
import tailsum.combinatorics as combinatorics_mod
import tailsum.montecarlo as montecarlo_mod
from tailsum import (
    CovarianceModel,
    DomainKind,
    NonFiniteReportError,
    ParseError,
    Pareto,
    TailWindow,
    log_transform,
    sample_iid,
    sum_product_ladder,
)
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
        values = read_observations(str(path))
        assert isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype == np.float64
        assert values.tolist() == [2.0, 4.0, 8.0, 16.0, 32.0]

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

    @pytest.mark.parametrize(
        "domain_args,domain",
        [
            ([], DomainKind.frechet()),
            (["--domain", "weibull", "--gamma", "1.5"], DomainKind.weibull(1.5)),
        ],
        ids=["frechet", "weibull"],
    )
    def test_envelopes_from_one_pass(self, capsys, tmp_path, monkeypatch, domain_args, domain):
        path = tmp_path / "sampled.txt"
        raw = np.exp(sample_iid(Pareto(1.0), 7, 200).values)
        path.write_text("".join(f"{x!r}\n" for x in raw.tolist()))
        builds = []

        def counted(domain, pmax, _build=CovarianceModel.build):
            builds.append(pmax)
            return _build(domain, pmax)

        monkeypatch.setattr(CovarianceModel, "build", counted)
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--k", "20", "--pmax", "170", *domain_args
        )
        # about 13 s when each order made its own pass
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_OK
        assert builds == [170]
        envelopes = [entry["lil_envelope"] for entry in json.loads(out)["results"]]
        # each envelope from its own cell: the reduced variance is the
        # weibull factor prod_{j=1..p} (g+j)/(g+p+j) times C(2p, p), minus
        # 2e plus e^2 with e = (g+p)/g (factor and e are 1 for frechet)
        scale = math.sqrt(2 * math.log(math.log(200)) / 20)
        for p in (1, 2, 3, 85, 170):
            factor, e = 1.0, 1.0
            if domain.uses_shape:
                g = domain.gamma
                factor = math.prod((g + j) / (g + p + j) for j in range(1, p + 1))
                e = (g + p) / g
            variance = factor * math.comb(2 * p, p) - (e + e) + e * e
            assert envelopes[p - 1] == math.sqrt(variance) * scale

    def test_csv_format(self, capsys, datafile):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--input", datafile, "--k", "3", "--pmax", "2", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out.split("# manifest:")[0])))
        assert rows[0] == ["p", "statistic", "index_estimate", "lil_envelope"]
        assert float(rows[1][1]) == pytest.approx(2 * C, rel=1e-14)

    @pytest.mark.parametrize(
        "lines,window,degenerate",
        [
            ("1 2 3 7 7 7 7", ["--k", "3"], True),
            ("1 2 3 7 7 7 7", ["--k", "3", "--l", "1"], True),
            ("1 2 3 7 7 7 7", ["--k", "5", "--l", "3"], False),
            # the ties sit below the window
            ("1 1 1 2 3 4 5", ["--k", "5"], False),
        ],
    )
    def test_degenerate_window(self, capsys, tmp_path, lines, window, degenerate):
        path = tmp_path / "tied.txt"
        path.write_text("".join(f"{x}\n" for x in lines.split()))
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), *window)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["degenerate_window"] is degenerate
        if degenerate:
            for entry in payload["results"]:
                assert entry["statistic"] == 0.0
                assert entry["index_estimate"] is None

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


def _read_observations_per_line(path):
    """The per-line parser that block conversion replaced, kept verbatim as
    the oracle for ``read_observations``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.replace(",", " ").strip()
        if not text:
            continue
        fields = text.split()
        row = []
        for tok in fields:
            try:
                row.append(float(tok))
            except ValueError:
                if lineno == 1 and not values:
                    row = None  # header line
                    break
                raise ParseError(f"{path}:{lineno}: cannot parse {tok!r} as a number")
        if row:
            values.extend(row)
    if len(values) < 2:
        raise ParseError(f"{path}: need at least two observations")
    return values


def _outcome(parse, path):
    """The parsed values as reprs (so NaNs compare equal), or the error text."""
    try:
        return [repr(float(x)) for x in parse(path)]
    except ParseError as exc:
        return str(exc)


_NUMBERS = ["1", "-2.5", "3e-7", "+0", "-0.0", "nan", "-inf", "Infinity", "1_000", "١٢",
            "1e400", "4e-330", ".5"]
_NOT_NUMBERS = ["value", "abc", "1..2", "0x10", "1e", "_1", "1,5e"]
_SEPARATORS = [" ", ",", ", ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0"]
_NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def _data_texts(draw):
    """Lines of numbers and separators with up to two bad tokens, an optional
    header and an optional final newline."""
    lines = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(_NUMBERS), st.sampled_from(_SEPARATORS)), max_size=4),
        max_size=8,
    ))
    tokens = [[tok + sep for tok, sep in line] for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            line = draw(st.sampled_from(tokens))
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(_NOT_NUMBERS)) + " ")
    if draw(st.booleans()):
        tokens.insert(0, [draw(st.sampled_from(["value", "x, y", "1, value", "2"]))])
    ends = [draw(st.sampled_from(_NEWLINES)) for _ in tokens]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join("".join(line) + end for line, end in zip(tokens, ends))


class TestReadObservations:
    @given(text=_data_texts(), block=st.sampled_from([1, 3, 7, 1 << 16]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_line_parser(self, tmp_path_factory, text, block):
        # a fresh file per example: rewriting one path for every example
        # took over ten times as long
        path = tmp_path_factory.mktemp("obs") / "property-obs.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "_READ_BLOCK", block)
            got = _outcome(read_observations, str(path))
        assert got == _outcome(_read_observations_per_line, str(path))

    def test_bad_token_reports_its_line(self, tmp_path):
        path = tmp_path / "long.txt"
        lines = [f"{1.0 + i}\n" for i in range(100_000)]
        lines[70_000] = "bad\n"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=r"long\.txt:70001: cannot parse 'bad'"):
            read_observations(str(path))

    def test_line_longer_than_a_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "_READ_BLOCK", 1000)
        path = tmp_path / "wide.txt"
        path.write_text("value\n" + "1.5, " * 5000 + "\n2.5\nbad\n")
        with pytest.raises(ParseError, match=r"wide\.txt:4: cannot parse 'bad'"):
            read_observations(str(path))
        path.write_text("value\n" + "1.5, " * 5000 + "\n2.5\n")
        assert read_observations(str(path)).tolist() == [1.5] * 5000 + [2.5]

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "open.txt"
        path.write_text("1\n2\n3")
        assert read_observations(str(path)).tolist() == [1.0, 2.0, 3.0]
        path.write_text("1\n2\nx")
        with pytest.raises(ParseError, match=r"open\.txt:3: cannot parse 'x'"):
            read_observations(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("value\n")
        with pytest.raises(ParseError, match="need at least two observations"):
            read_observations(str(path))

    @pytest.mark.parametrize("header", ["", "value\n"])
    def test_byte_order_mark(self, capsys, tmp_path, header):
        # written by Windows and spreadsheet tools; the first value must stay
        plain = tmp_path / "plain.txt"
        plain.write_text("1.5\n2.5\n3.5\n4.5\n")
        marked = tmp_path / "marked.txt"
        marked.write_text("\ufeff" + header + "1.5\n2.5\n3.5\n4.5\n", encoding="utf-8")
        assert read_observations(str(marked)).tolist() == [1.5, 2.5, 3.5, 4.5]
        reports = []
        for path in (plain, marked):
            code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--k", "3", "--pmax", "2")
            assert code == EXIT_OK
            payload = json.loads(out)
            reports.append((payload["n"], payload["results"]))
        assert reports[0] == reports[1]
        assert reports[0][0] == 4
        marked.write_text("\ufeff" + header + "1.5\n2.5\nbad\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"marked\.txt:{3 + bool(header)}: cannot parse 'bad'"):
            read_observations(str(marked))

    def test_bad_token_before_undecodable_bytes(self, capsys, tmp_path):
        # blocks are converted as they are read, so the bad token is met first
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"1\nbad\n" + b"2\n" * 100_000 + b"\xff\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--k", "3")
        assert code == EXIT_PARSE
        assert f"{path}:2: cannot parse 'bad'" in err
        assert out == ""

    def test_peak_memory_per_observation(self, tmp_path):
        # the sample stays in float64 arrays from parse to statistics: about
        # 20 bytes per observation at peak, where a list of Python floats and
        # its array copies took about 58
        n = 50_000
        path = tmp_path / "pareto.txt"
        values = (1.0 - np.random.default_rng(7).random(n)) ** -0.5
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        argv = ["estimate", "--input", str(path), "--k", "500", "--l", "20", "--pmax", "6",
                "--output", str(tmp_path / "report.json")]
        assert main(argv) == EXIT_OK  # warm-up: imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 24, f"{peak / n:.1f} bytes per observation"


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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "type1", "--vmax", "301"),
            ("--family", "type1", "--dmax", "301"),
            ("--family", "type1", "--vmax", "100000000", "--dmax", "100000000"),
            ("--family", "type3", "--tau", "100000000", "--vmax", "3", "--dmax", "3"),
            ("--family", "type2", "--tau", "301"),
        ],
    )
    def test_size_caps(self, capsys, flags):
        code, out, err = run_cli(capsys, "tables", *flags)
        assert code == EXIT_PARAMS
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "type1", "--vmax", "300", "--dmax", "2"),
            ("--family", "type1", "--vmax", "0", "--dmax", "300"),
            ("--family", "type2", "--tau", "300", "--vmax", "2", "--dmax", "2"),
            ("--family", "type3", "--tau", "30", "--vmax", "30", "--dmax", "30"),
        ],
    )
    def test_caps_admit_tables_up_to_them(self, capsys, flags):
        code, out, err = run_cli(capsys, "tables", *flags)
        assert code == EXIT_OK
        assert err == ""
        assert "# manifest:" in out


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

    def test_order_cap_is_the_models(self, capsys):
        # the command takes the orders estimate and mc take, up to 514
        code, out, _ = run_cli(capsys, "covariance", "--domain", "frechet", "--pmax", "9")
        assert code == EXIT_OK
        assert json.loads(out)["matrix"][8][8] == 48620.0
        for pmax, message in (("515", "at most 514"), ("0", ">= 1")):
            code, out, err = run_cli(capsys, "covariance", "--domain", "frechet", "--pmax", pmax)
            assert (code, out) == (EXIT_PARAMS, "")
            assert message in err

    def test_model_commands_skip_the_number_route(self, capsys, monkeypatch, datafile):
        # the model comes from the binomial; the number tables are its oracle
        def refuse(*args, **kwargs):
            raise AssertionError("the command read the number tables")

        monkeypatch.setattr(combinatorics_mod, "_unit_covariances", refuse)
        monkeypatch.setattr(combinatorics_mod.NumberTable, "build", refuse)
        code, out, _ = run_cli(capsys, "covariance", "--domain", "frechet", "--pmax", "8")
        assert code == EXIT_OK
        assert json.loads(out)["matrix"][7][7] == 12870.0
        code, out, _ = run_cli(capsys, "estimate", "--input", datafile, "--k", "3", "--pmax", "170")
        assert code == EXIT_OK
        assert len(json.loads(out)["results"]) == 170

    def test_invalid_gamma(self, capsys, monkeypatch, tmp_path, datafile):
        code, _, err = run_cli(
            capsys, "covariance", "--domain", "weibull", "--gamma", "-2", "--pmax", "2"
        )
        assert code == EXIT_PARAMS
        code, _, err = run_cli(capsys, "covariance", "--domain", "weibull", "--pmax", "2")
        assert code == EXIT_PARAMS

        # the gumbel domain and stretched ignore --gamma, but it is checked
        # there too, before any work: no replication runs
        def refuse(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo_mod, "_sample_ladders", refuse)
        mc = ["mc", "--dist", "stretched", "--n", "1000", "--k", "100", "--pmax", "2",
              "--reps", "4", "--seed", "1"]
        path = tmp_path / "report"
        for argv in (
            ["estimate", "--input", datafile, "--k", "3", "--domain", "gumbel", "--gamma", "nan"],
            ["estimate", "--input", datafile, "--k", "3", "--domain", "gumbel", "--gamma", "-2"],
            ["covariance", "--domain", "gumbel", "--gamma", "inf"],
            [*mc, "--gamma", "nan"],
            [*mc, "--gamma", "-1"],
        ):
            code, out, err = run_cli(capsys, *argv, "--output", str(path))
            assert code == EXIT_PARAMS, argv
            assert err.count("error:") == 1 and err.count("\n") == 1, err
            assert "gamma" in err
            assert out == ""
            assert not path.exists()


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

    @pytest.mark.parametrize("dist", [["stretched"], ["power", "--gamma", "1.5"]])
    def test_light_tail_workers_do_not_change_bytes(self, capsys, dist):
        outputs = []
        for workers in ("1", "2", "8"):
            _, out, _ = run_cli(
                capsys, "mc", "--dist", *dist, "--n", "3000", "--k", "100", "--pmax", "3",
                "--reps", "80", "--seed", "5", "--workers", workers,
            )
            outputs.append(strip_timestamp(out))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("dist", [["stretched"], ["power", "--gamma", "1.5"]])
    def test_light_tail_at_a_billion(self, capsys, monkeypatch, dist):
        # the light-tail families draw only the top k+1 order statistics, in
        # O(k) per replication; Pareto's sampler would allocate 8 GB per
        # replication here, so it is never run at this n, and the test stops
        # before it if a light-tail run ever reaches it
        def refuse(*args, **kwargs):
            raise AssertionError("the O(n) sampler ran at n = 1e9")

        monkeypatch.setattr(montecarlo_mod, "sample_top", refuse)
        argv = ["mc", "--dist", *dist, "--n", "1000000000", "--k", "1000", "--pmax", "3",
                "--reps", "64", "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert time.perf_counter() - start <= 10.0
        assert json.loads(out)["report"]["n"] == 10**9
        # the refusal is live: the same run routed to Pareto's rows reaches it
        monkeypatch.setattr(montecarlo_mod, "_block_sampler", lambda _: montecarlo_mod.sample_top)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_RUNTIME, "")
        assert "the O(n) sampler ran at n = 1e9" in err

    @pytest.mark.parametrize("dist", [["stretched"], ["power", "--gamma", "1.5"]])
    def test_light_tail_at_1e20(self, capsys, dist):
        # 1 - k/n rounds to 1 here; the deterministic threshold comes from
        # the tail quantile at k/n, so the run needs no warning or error
        code, out, err = run_cli(
            capsys, "mc", "--dist", *dist, "--n", "100000000000000000000", "--k", "1000",
            "--pmax", "2", "--reps", "2", "--seed", "1",
        )
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["report"]["n"] == 10**20

    def test_unallocatable_pareto_sample(self, capsys):
        # 8e15 bytes of raw words fail at allocation, before any memory is
        # touched; numpy refuses the larger sizes as an array size
        for n in (10**15, 5 * 10**18, 10**20):
            code, out, err = run_cli(
                capsys, "mc", "--dist", "pareto", "--n", str(n), "--k", "1000",
                "--pmax", "2", "--reps", "2", "--seed", "1",
            )
            assert code == EXIT_PARAMS
            assert err.count("error:") == 1
            assert err.count("\n") == 1
            assert f"n = {n}" in err and f"{8 * n} bytes" in err
            assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dist", "stretched", "--n", "1000", "--k", "10", "--reps", str(10**30)],
             f"{16 * 10**30} bytes of ladders for reps = {10**30}"),
            (["--dist", "stretched", "--n", str(10**20), "--k", str(10**19), "--reps", "2"],
             f"{16 * (10**19 + 1)} bytes of 2 rows of top order statistics at k = {10**19}"),
            (["--dist", "power", "--gamma", "1.5", "--n", str(10**20), "--k", str(10**19),
              "--reps", "2"], f"bytes of 2 rows of top order statistics at k = {10**19}"),
            (["--dist", "pareto", "--n", str(10**20), "--k", str(10**19), "--reps", "2"],
             f"bytes of 2 rows of top order statistics at k = {10**19}"),
        ],
    )
    def test_unallocatable_run_arrays(self, capsys, argv, message):
        # numpy refuses these sizes as array sizes before it allocates
        # anything; no size that could really be allocated is tried here
        code, out, err = run_cli(capsys, "mc", *argv, "--pmax", "2", "--seed", "1")
        assert code == EXIT_PARAMS
        assert err.startswith("error: cannot allocate the ") and err.count("\n") == 1
        assert message in err
        assert out == ""

    def test_workers_must_be_positive(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--workers", "0")
        assert code == EXIT_PARAMS
        assert err == "error: workers must be >= 1, got 0\n"
        assert out == ""

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

    def test_largest_order_finishes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc", "--dist", "pareto", "--n", "100", "--k", "10", "--l", "9", "--pmax", "170",
            "--reps", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["report"]["predicted_covariance"]) == 170

    def test_endpoint_checked_for_every_family(self, capsys):
        # --x0 lands in every manifest, so every family rejects a bad one
        for dist in ("pareto", "stretched", "power"):
            for x0 in ("nan", "-5", "1", "inf"):
                code, out, err = run_cli(
                    capsys,
                    "mc", "--dist", dist, "--x0", x0, "--n", "200", "--k", "20",
                    "--reps", "4", "--seed", "1",
                )
                assert code == EXIT_PARAMS, (dist, x0)
                assert "x0" in err
                assert out == ""

    def test_centering_beyond_float_range(self, capsys):
        code, out, err = run_cli(
            capsys,
            "mc", "--dist", "pareto", "--gamma", "1e-300", "--n", "100", "--k", "10",
            "--reps", "4", "--seed", "1", "--pmax", "2",
        )
        assert code == EXIT_PARAMS
        assert "gamma" in err
        assert out == ""

    @pytest.mark.parametrize("gamma", ["1e10", "1e300"])
    def test_centering_below_float_range(self, capsys, gamma):
        # the tail is too thin for any m_p to resolve; at 1e300 scipy cannot
        # even form the Jacobi rule
        code, out, err = run_cli(
            capsys,
            "mc", "--dist", "power", "--gamma", gamma, "--n", "100", "--k", "10",
            "--reps", "2", "--seed", "1",
        )
        assert code == EXIT_PARAMS
        assert err.count("error:") == 1
        assert err.count("\n") == 1  # and nothing else, no warning
        assert "PowerEndpoint" in err
        assert out == ""

    def test_threshold_error_names_distribution(self, capsys):
        code, out, err = run_cli(
            capsys,
            "mc", "--dist", "power", "--gamma", "1e-300", "--n", "100", "--k", "10",
            "--reps", "2", "--seed", "1",
        )
        assert code == EXIT_PARAMS
        assert "gamma=1e-300" in err
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

    def test_grid_bounded(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "8", "8", "--grid", "100000000")
        assert code == EXIT_PARAMS
        assert "grid" in err
        assert out == ""

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


# non-finite results reached without a numpy warning, each with the first
# report field its error must name
_NON_FINITE_FIELD = {
    "covariance-json": "matrix[0][0]",
    "covariance-csv": "matrix[0][0]",
    "estimate": "results[0].lil_envelope",
    "mc": "report.means[1]",
}
_SILENT_NON_FINITE = {
    "covariance-json": ["covariance", "--domain", "weibull", "--gamma", "1e-300", "--pmax", "3",
                        "--reduced"],
    "covariance-csv": ["covariance", "--domain", "weibull", "--gamma", "1e-300", "--pmax", "3",
                       "--reduced", "--format", "csv"],
    "estimate": ["estimate", "--k", "3", "--domain", "weibull", "--gamma", "1e-300"],
    "mc": ["mc", "--dist", "pareto", "--gamma", "1e300", "--n", "100", "--k", "10",
           "--reps", "4", "--seed", "1", "--pmax", "2"],
}


class TestNonFiniteReports:
    def test_truncation_must_be_finite(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run_cli(capsys, "oracle", "1", "1", "--truncation", value)
            assert code == EXIT_PARAMS
            assert "truncation" in err
            assert out == ""

    def test_truncation_bounded(self, capsys):
        # beyond 700, e^-S is below about 1e-304 and a longer range only
        # widens the Simpson panels
        code, out, _ = run_cli(capsys, "oracle", "1", "1", "--grid", "64", "--truncation", "700")
        assert code == EXIT_OK
        assert json.loads(out)["manifest"]["parameters"]["truncation"] == 700.0
        for value in ("701", "5000", "1e300"):
            code, out, err = run_cli(capsys, "oracle", "1", "1", "--truncation", value)
            assert code == EXIT_PARAMS
            assert "truncation" in err
            assert out == ""

    @pytest.mark.parametrize("command", sorted(_SILENT_NON_FINITE))
    def test_non_finite_result_exits_five(self, capsys, tmp_path, datafile, command):
        argv = _SILENT_NON_FINITE[command]
        if command == "estimate":
            argv = [*argv, "--input", datafile]
        path = tmp_path / "report"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == EXIT_RUNTIME
        assert err.count("error:") == 1
        assert "JSON" in err
        assert f"NonFiniteReportError: {_NON_FINITE_FIELD[command]} is " in err
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("command", sorted(_SILENT_NON_FINITE))
    def test_non_finite_result_prints_only_its_error(self, capsys, datafile, command):
        argv = _SILENT_NON_FINITE[command]
        if command == "estimate":
            argv = [*argv, "--input", datafile]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_RUNTIME
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert out == ""

    def test_non_finite_rows_aggregate_silently(self, capsys, monkeypatch):
        # a centering below the float range gives -inf rows; here a block's
        # ladders carry one, which the run's normalization keeps
        def infinite_row(config, lo, hi):
            ladders = np.ones((hi - lo, config.pmax))
            ladders[0] = -np.inf
            return ladders, np.ones(hi - lo)

        monkeypatch.setattr(montecarlo_mod, "_sample_ladders", infinite_row)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "mc", "--dist", "pareto", "--n", "100", "--k", "10",
                "--reps", "4", "--seed", "1", "--pmax", "2",
            )
        assert code == EXIT_RUNTIME
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert out == ""

    def test_writer_rejects_nan_before_writing(self, tmp_path):
        path = tmp_path / "report"
        for fmt in ("json", "csv"):
            with pytest.raises(NonFiniteReportError, match=r"^value is nan, .*JSON"):
                _write_report(str(path), fmt, {"seed": None}, {"value": math.nan}, [["nan"]])
            assert not path.exists()
