"""Command-line surface.

Subcommands: estimate, tables, covariance, mc, oracle.  Every report embeds
a run manifest (command, every parsed argument but --output and --workers,
seed, version, timestamp) so results can be reproduced from the output file
alone; mc reports are byte-identical across --workers, which selects
nothing: mc chooses its threads.  Reports are strict JSON: a NaN or
infinity fails the command with an error that names the first such field.

``estimate`` reads its input in blocks of whole lines, each converted by
one ``float()`` pass over its fields into a float64 array; the blocks are
joined into one array, which is all the statistics read.  A bad field is
reported at its own line.  Since the file is decoded block by block, a
bad field may be reported before invalid UTF-8 bytes further on; both
exit 3.

Exit codes: 0 success, 2 I/O failure, 3 unparseable input data,
4 invalid parameters, 5 runtime or numeric failure.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .distributions import Pareto, PowerEndpoint, StretchedTail, _check_endpoint
from .errors import DomainError, NonFiniteReportError, ParseError, UndefinedEstimateError
from .estimators import (
    TailWindow,
    index_estimate,
    log_transform,
    sum_product_ladder,
)
from .limits import CovarianceModel, DomainKind
from .montecarlo import (
    ExperimentConfig,
    QuadratureConfig,
    limit_covariance_quadrature,
    run_experiment,
)
from .combinatorics import NumberTable

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_PARAMS = 4
EXIT_RUNTIME = 5

_FAMILY_ALIASES = {
    "type1": "type_i",
    "type2": "type_ii",
    "type3": "type_iii",
    "beta": "type_i",
    "mu0": "type_ii",
    "mu1": "type_iii",
}


# parsed arguments that are not report parameters: the dispatch fields, the
# seed (a manifest field of its own), and --output and --workers, which
# cannot change a report's bytes, so reports are byte-identical across them
_NOT_PARAMETERS = {"command", "func", "output", "seed", "workers"}


def _manifest(args, **resolved):
    """Reproducibility record embedded in every output: every parsed
    argument in parser order, with the ``resolved`` values in place of the
    given ones."""
    parameters = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
    parameters.update(resolved)
    return {
        "command": args.command,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


class _Parser(argparse.ArgumentParser):
    # invalid flags/values are parameter errors, not the default exit 2
    def error(self, message):
        self.exit(EXIT_PARAMS, f"{self.prog}: error: {message}\n")


def _non_finite_fields(value, path=""):
    """(path, value) of every NaN or infinite float in a report, in document
    order; a path reads like ``report.means[1]``."""
    if isinstance(value, float):
        if not math.isfinite(value):
            yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_fields(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite_fields(item, f"{path}[{i}]")


def _write_report(path, fmt, manifest, payload=None, rows=None):
    """Write a report to ``path`` (stdout for None or "-"): as json, the
    manifest followed by ``payload``; as csv, ``rows`` followed by a
    ``# manifest:`` trailer line.

    The manifest and payload are serialized as strict JSON in both formats,
    so a NaN or infinity raises ``NonFiniteReportError``, naming the first
    such field, before anything is written.
    """
    report = {"manifest": manifest, **(payload or {})}
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        field, value = next(_non_finite_fields(report))
        raise NonFiniteReportError(f"{field} is {value}, which strict JSON cannot encode") from None
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        buf.write(f"# manifest: {json.dumps(manifest)}\n")
        text = buf.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# characters converted per block; each block is extended to the end of its
# last line, so a block always holds whole lines
_READ_BLOCK = 1 << 16


def _parse_line(path, lineno, line):
    """The numbers on line ``lineno`` of ``path``; commas and whitespace
    both separate fields."""
    row = []
    for tok in line.replace(",", " ").split():
        try:
            row.append(float(tok))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: cannot parse {tok!r} as a number") from None
    return row


def read_observations(path):
    """One observation per line; an optional non-numeric first line is
    treated as a header; commas and whitespace both separate fields.  One
    leading UTF-8 byte-order mark, as Windows and spreadsheet tools write,
    is dropped from the first line.

    After the first line the text is converted in blocks of whole lines,
    each into a float64 array; a block that fails to convert is parsed again
    line by line only to name the line of its first bad token.  Returns the
    blocks joined into one float64 array: 8 bytes per observation, where a
    list of Python floats takes about 32."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                first = _parse_line(path, 1, fh.readline().removeprefix("\ufeff"))
            except ParseError:
                first = []  # header line
            blocks = [np.array(first, dtype=float)]
            lineno = 1
            while block := fh.read(_READ_BLOCK):
                if not block.endswith("\n"):
                    block += fh.readline()
                fields = block.replace(",", " ").split()
                try:
                    blocks.append(np.fromiter(map(float, fields), dtype=float, count=len(fields)))
                except ValueError:
                    for offset, line in enumerate(block.split("\n"), start=lineno + 1):
                        _parse_line(path, offset, line)
                    raise
                lineno += block.count("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    values = np.concatenate(blocks)
    if values.size < 2:
        raise ParseError(f"{path}: need at least two observations")
    return values


def _dist_from_args(args):
    # stretched ignores --gamma and only PowerEndpoint uses --x0, but both are in every manifest
    _check_endpoint(args.x0)
    if args.gamma is not None and not (0 < args.gamma < math.inf):
        raise DomainError(f"--gamma must be finite and > 0 when given, got {args.gamma}")
    if args.dist == "pareto":
        return Pareto(args.gamma if args.gamma is not None else 1.0)
    if args.dist == "power":
        return PowerEndpoint(args.gamma if args.gamma is not None else 1.0, args.x0)
    if args.dist == "stretched":
        return StretchedTail()
    raise DomainError(f"unknown distribution {args.dist!r}")


def cmd_estimate(args):
    domain = DomainKind(args.domain, args.gamma)
    try:
        raw = read_observations(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        sample = log_transform(raw)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    window = TailWindow(sample.n, args.k, args.l)
    ladder = sum_product_ladder(sample, window, args.pmax)
    envelopes = [None] * args.pmax
    if args.k >= 3:
        envelopes = CovarianceModel.build(domain, args.pmax).lil_envelopes(args.k, sample.n)
    statistics = []
    for p, (t, envelope) in enumerate(zip(ladder, envelopes), start=1):
        try:
            estimate = index_estimate(t, p)
        except UndefinedEstimateError:
            estimate = None
        statistics.append(
            {"p": p, "statistic": t, "index_estimate": estimate, "lil_envelope": envelope}
        )
    manifest = _manifest(args)
    payload = {
        "n": sample.n,
        "below_support": sample.below_support,
        # every spacing in the window is zero exactly when its two ends tie;
        # a zero statistic is no test, since subnormal spacings underflow
        "degenerate_window": bool(
            sample.values[sample.n - 1 - args.l] == sample.values[sample.n - 1 - args.k]
        ),
        "results": statistics,
    }
    rows = [["p", "statistic", "index_estimate", "lil_envelope"]] + [
        [
            entry["p"],
            repr(entry["statistic"]),
            "" if entry["index_estimate"] is None else repr(entry["index_estimate"]),
            "" if entry["lil_envelope"] is None else repr(entry["lil_envelope"]),
        ]
        for entry in statistics
    ]
    _write_report(args.output, args.format, manifest, payload, rows)
    return EXIT_OK


# time and memory grow faster than vmax * dmax, since the cells hold
# integers of O(vmax + dmax + tau) digits: the largest table accepted, type III
# at tau = vmax = dmax = 300, takes about 0.9 s and 150 MB peak and writes
# 19 MB, while type I at 1000 x 1000 took 21 s and 1.3 GB
_TABLE_CAP = 300


def cmd_tables(args):
    family = _FAMILY_ALIASES.get(args.family, args.family)
    tau = args.tau
    if family in ("type_ii", "type_iii") and tau is None:
        raise DomainError(f"--family {args.family} requires --tau")
    for flag, value in (("--vmax", args.vmax), ("--dmax", args.dmax), ("--tau", tau)):
        if value is not None and value > _TABLE_CAP:
            raise DomainError(f"{flag} must be at most {_TABLE_CAP}, got {value}")
    table = NumberTable.build(family, args.vmax, args.dmax, tau=tau)
    manifest = _manifest(args, family=family, dmax=table.dmax)
    col_label = "r" if family == "type_i" else "delta"
    rows = [[f"v\\{col_label}"] + list(range(1, table.dmax + 1))]
    rows += [[v] + table.row(v) for v in range(table.vmax + 1)]
    _write_report(args.output, "csv", manifest, rows=rows)
    return EXIT_OK


def cmd_covariance(args):
    domain = DomainKind(args.domain, args.gamma)
    if not (1 <= args.pmax <= 8):
        raise DomainError(f"--pmax must lie in [1, 8], got {args.pmax}")
    model = CovarianceModel.build(domain, args.pmax)
    matrix = model.reduced_matrix() if args.reduced else model.sigma
    manifest = _manifest(args)
    payload = {"matrix": [list(row) for row in matrix], "shift_factors": list(model.e)}
    rows = [["r\\rho"] + list(range(1, args.pmax + 1))]
    rows += [[r] + [repr(float(x)) for x in matrix[r - 1]] for r in range(1, args.pmax + 1)]
    _write_report(args.output, args.format, manifest, payload, rows)
    return EXIT_OK


def cmd_mc(args):
    if args.workers < 1:
        raise DomainError(f"workers must be >= 1, got {args.workers}")
    dist = _dist_from_args(args)
    config = ExperimentConfig(
        dist=dist,
        n=args.n,
        k=args.k,
        l=args.l,
        pmax=args.pmax,
        reps=args.reps,
        seed=args.seed,
        centering="fixed" if args.reduced else "random",
    )
    report = run_experiment(config)
    manifest = _manifest(args)
    _write_report(args.output, "json", manifest, {"report": report.to_dict()})
    return EXIT_OK


def cmd_oracle(args):
    config = QuadratureConfig(grid=args.grid, truncation=args.truncation)
    value = limit_covariance_quadrature(args.r, args.rho, config)
    coarse_grid = args.grid // 2
    if coarse_grid % 2:
        coarse_grid += 1
    diagnostics = None
    if coarse_grid >= 64:
        coarse = limit_covariance_quadrature(
            args.r, args.rho, QuadratureConfig(grid=coarse_grid, truncation=args.truncation)
        )
        diagnostics = {
            "half_grid": coarse_grid,
            "half_grid_value": coarse,
            "refinement_difference": value - coarse,
        }
    manifest = _manifest(args)
    _write_report(args.output, "json", manifest, {"value": value, "convergence": diagnostics})
    return EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built on first use and then shared, so it
    must not be modified: argparse takes about 1.6 ms to build it, which a
    process running many commands would otherwise pay on each."""
    parser = _Parser(prog="tailsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="sum-product statistics of a data file")
    p_est.add_argument("--input", required=True, help="one observation per line")
    p_est.add_argument("--k", type=int, required=True, help="window upper count")
    p_est.add_argument("--l", type=int, default=0, help="window lower trim (default 0)")
    p_est.add_argument("--pmax", type=int, default=4, help="largest order (default 4)")
    p_est.add_argument(
        "--domain",
        choices=["frechet", "weibull", "gumbel"],
        default="frechet",
        help="domain assumed for the fluctuation envelopes",
    )
    p_est.add_argument("--gamma", type=float, default=None, help="domain shape parameter")
    p_est.add_argument("--format", choices=["json", "csv"], default="json")
    p_est.add_argument("--output", default=None, help="output path (default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_tab = sub.add_parser("tables", help="emit a number-family table as CSV")
    p_tab.add_argument(
        "--family",
        required=True,
        choices=sorted(set(_FAMILY_ALIASES) | {"type_i", "type_ii", "type_iii"}),
    )
    p_tab.add_argument("--tau", type=int, default=None)
    p_tab.add_argument("--vmax", type=int, default=10)
    p_tab.add_argument("--dmax", type=int, default=10)
    p_tab.add_argument("--output", default=None)
    p_tab.set_defaults(func=cmd_tables)

    p_cov = sub.add_parser("covariance", help="limit covariance matrix")
    p_cov.add_argument("--domain", choices=["frechet", "weibull", "gumbel"], required=True)
    p_cov.add_argument("--gamma", type=float, default=None)
    p_cov.add_argument("--pmax", type=int, default=4)
    p_cov.add_argument("--reduced", action="store_true", help="deterministic-centering model")
    p_cov.add_argument("--format", choices=["json", "csv"], default="json")
    p_cov.add_argument("--output", default=None)
    p_cov.set_defaults(func=cmd_covariance)

    p_mc = sub.add_parser("mc", help="Monte Carlo verification run")
    p_mc.add_argument("--dist", choices=["pareto", "power", "stretched"], required=True)
    p_mc.add_argument("--gamma", type=float, default=None)
    p_mc.add_argument("--x0", type=float, default=2.0)
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--l", type=int, default=0)
    p_mc.add_argument("--pmax", type=int, default=4)
    p_mc.add_argument("--reps", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument(
        "--reduced",
        action="store_true",
        help="deterministic-threshold centering (reduced model targets)",
    )
    p_mc.add_argument("--workers", type=int, default=1, help="must be >= 1; mc picks its threads")
    p_mc.add_argument("--output", default=None)
    p_mc.set_defaults(func=cmd_mc)

    p_or = sub.add_parser("oracle", help="quadrature oracle for the unit covariance")
    p_or.add_argument("r", type=int)
    p_or.add_argument("rho", type=int)
    p_or.add_argument("--grid", type=int, default=1024)
    p_or.add_argument("--truncation", type=float, default=60.0)
    p_or.add_argument("--output", default=None)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARAMS
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except Exception as exc:  # numeric/runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
