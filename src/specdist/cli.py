"""Command-line front end.

Subcommands:

* ``dist``        distance between two measure files under a selected metric
* ``table1``      the full benchmark comparison table plus plot data
* ``gen-spectra`` write the three benchmark measures as measure files

Exit codes partition the error classes: 1 for I/O problems, 2 for validation
failures, 3 for solver non-convergence (partial results are still written,
flagged as unconverged).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .connes import DiracSet, State, connes_distance
from .matrix_dual import assemble_dual, solve_dual
from .matrix_primal import duality_gap
from .measures import (MatrixMeasure, _matrix_decode, _matrix_encode, load_measure,
                       make_uniform_grid, save_measure, tv_matrix)
from .pdhg import ConvergenceError, DualCertificate, SolverOptions
from .scalar_metrics import kolmogorov, w1_balanced, w1_kappa_scalar
from .spectra import benchmark_measure, density_plot_data, paper_grid, itakura_saito, table1_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

SCALAR_METRICS = ("tv", "kolmogorov", "w1", "w1k")
ALL_METRICS = SCALAR_METRICS + ("matrix-tv", "matrix-w1k", "is", "connes")
# one closed-form call each; the scalar total variation is tv_matrix at n = 1.
# itakura_saito is looked up by name at call time (perfbench/tracing.py wraps it)
CLOSED_FORMS = {"tv": tv_matrix, "kolmogorov": kolmogorov, "w1": w1_balanced,
                "matrix-tv": tv_matrix,
                "is": lambda mu1, mu2: itakura_saito(mu1, mu2, weighted=True)}

TOL_HELP = "relative gap (upper - lower) / max(|lower|, |upper|) at which a certified solve stops"
BUDGET_HELP = ("Newton steps per solve, for every interior-point solve including the gap "
               "audit's transport primal")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iterations=args.max_iter, tolerance=args.tol)


def _require_scalar(measure: MatrixMeasure, name: str):
    if measure.dim != 1:
        raise ValueError(
            f"{name} has matrix dimension {measure.dim}; scalar metrics need "
            "dim=1 (use matrix-tv or matrix-w1k)"
        )


def _load_diracs(path: str) -> DiracSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a valid Dirac operator file: {exc}") from exc
    ops = _matrix_decode(doc.get("operators") if isinstance(doc, dict) else doc)
    if ops.ndim != 3:
        raise ValueError("expected a list of n x n Dirac operators")
    return DiracSet(ops)


def _cmd_dist(args) -> int:
    mu1 = load_measure(args.first)
    mu2 = load_measure(args.second)
    options = _solver_options(args)
    report: dict = {
        "metric": args.metric,
        "inputs": [str(args.first), str(args.second)],
        "converged": True,
    }
    partial_exit = EXIT_OK
    try:
        if args.metric in SCALAR_METRICS:
            _require_scalar(mu1, args.first)
            _require_scalar(mu2, args.second)
        if args.metric in CLOSED_FORMS:
            report["value"] = CLOSED_FORMS[args.metric](mu1, mu2)
        elif args.metric == "w1k":
            report["kappa"] = args.kappa
            report["value"] = w1_kappa_scalar(mu1, mu2, args.kappa)
        elif args.metric == "matrix-w1k":
            report["kappa"] = args.kappa
            # the audit certifies its dual to half the gap: report that solve
            audit = duality_gap(mu1, mu2, args.kappa, options) if args.gap_audit else None
            cert = audit.dual_certificate if audit is not None else solve_dual(
                assemble_dual(mu1, mu2, args.kappa), options)
            _report_certificate(report, cert, args.format)
            if audit is not None:
                report["gap_audit"] = {
                    "primal": audit.primal,
                    "dual": audit.dual,
                    "gap": audit.gap,
                    "relative_gap": audit.relative_gap,
                }
        elif args.metric == "connes":
            if not args.dirac:
                raise ValueError("--metric connes requires --dirac FILE")
            diracs = _load_diracs(args.dirac)
            rho1 = State(mu1.masses.sum(axis=0))
            rho2 = State(mu2.masses.sum(axis=0))
            kappa = math.inf if args.kappa == 0 else args.kappa
            report["kappa"] = "inf" if not math.isfinite(kappa) else kappa
            cert = connes_distance(rho1, rho2, diracs, kappa, options)
            if math.isinf(cert.value):
                report["value"] = "unbounded"
            else:
                _report_certificate(report, cert, args.format)
        else:  # unreachable behind argparse choices
            raise ValueError(f"unknown metric {args.metric}")
    except ConvergenceError as exc:
        report["converged"] = False
        report["error"] = str(exc)
        report["value"] = exc.solution.value
        report["lower_bound"] = exc.solution.lower_bound
        report["upper_bound"] = exc.solution.upper_bound
        partial_exit = EXIT_SOLVER

    _emit_report(report, args)
    return partial_exit


def _report_certificate(report: dict, cert: DualCertificate, fmt: str):
    """The certified value and its ``certificate`` section (the witness when structured)."""
    report["value"] = cert.value
    report["certificate"] = {key: getattr(cert, key) for key in
                             ("iterations", "feasibility_residual", "upper_bound", "gap")}
    if fmt == "structured":
        report["certificate"]["test_function"] = _matrix_encode(cert.test_function)


def _emit_report(report: dict, args):
    fmt = args.format
    if fmt == "structured":
        text = json.dumps(report, indent=1) + "\n"
    elif fmt == "csv":
        keys = [k for k in ("metric", "kappa", "value", "converged") if k in report]
        text = _csv_text(keys, [[report[k] for k in keys]])
    else:
        lines = [f"{k:>22}: {v}" for k, v in report.items() if not isinstance(v, dict)]
        for key in ("certificate", "gap_audit"):
            if key in report:
                lines.append(f"{key}:")
                lines.extend(
                    f"{k:>22}: {v}"
                    for k, v in report[key].items()
                    if k != "test_function"
                )
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)


def _csv_text(header: list, rows) -> str:
    """CSV in the ``csv`` module's default dialect; None is written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_out(text: str, out: str | None):
    """Write ``text`` unchanged to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args):
    if args.grid_points is None:
        return paper_grid()
    return make_uniform_grid(args.grid_points, 0.0, math.pi)


def _cmd_table1(args) -> int:
    grid = _grid(args)
    report = table1_report(
        kappa=args.kappa, options=_solver_options(args), grid=grid, gap_audit=args.gap_audit
    )

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    cells = [{**asdict(c), "pair": "f{},f{}".format(*c.pair)} for c in report.cells]
    if args.format == "structured":
        text = json.dumps({"kappa": report.kappa, "cells": cells}, indent=1) + "\n"
    elif args.format == "csv":
        text = _csv_text(list(cells[0]), [list(c.values()) for c in cells])
    else:
        text = report.human_table() + "\n"
    _write_out(text, str(out_dir / f"table1.{_ext(args.format)}") if out_dir else None)

    if out_dir:
        plot = density_plot_data(grid)
        rows = zip(*(plot[k].tolist() for k in plot))
        _write_out(_csv_text(list(plot), rows), str(out_dir / "density_plot_data.csv"))
    return EXIT_OK if all(c.converged for c in report.cells) else EXIT_SOLVER


def _ext(fmt: str) -> str:
    return {"structured": "json", "csv": "csv", "human-table": "txt"}[fmt]


def _cmd_gen_spectra(args) -> int:
    grid = _grid(args)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(3):
        measure = benchmark_measure(i, grid, normalize=not args.raw)
        save_measure(measure, out_dir / f"f{i}.json")
    return EXIT_OK


@functools.cache   # once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Distances between scalar and matrix-valued spectral measures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="distance between two measure files")
    dist.add_argument("first")
    dist.add_argument("second")
    dist.add_argument("--metric", choices=ALL_METRICS, default="matrix-w1k")
    dist.add_argument("--kappa", type=float, default=1.0,
                      help="bound on test functions (0 means unbounded, connes only)")
    dist.add_argument("--tol", type=float, default=1e-6, help=TOL_HELP)
    dist.add_argument("--max-iter", type=int, default=200_000, help=BUDGET_HELP)
    dist.add_argument("--gap-audit", action="store_true",
                      help="also solve the transport side and report the duality gap")
    dist.add_argument("--dirac", default=None, help="JSON file with Dirac operators")
    dist.add_argument("--format", choices=("human-table", "csv", "structured"),
                      default="human-table")
    dist.add_argument("--out", default=None)
    dist.set_defaults(func=_cmd_dist)

    table = sub.add_parser("table1", help="benchmark distance table and plot data")
    table.add_argument("--kappa", type=float, default=1.0)
    table.add_argument("--tol", type=float, default=1e-3, help=TOL_HELP)
    table.add_argument("--max-iter", type=int, default=200_000, help=BUDGET_HELP)
    table.add_argument("--no-gap-audit", dest="gap_audit", action="store_false")
    table.add_argument("--grid-points", type=int, default=None)
    table.add_argument("--format", choices=("human-table", "csv", "structured"),
                       default="human-table")
    table.add_argument("--out", default=None,
                       help="directory for the table and the density plot data")
    table.set_defaults(func=_cmd_table1)

    gen = sub.add_parser("gen-spectra", help="write the three benchmark measures")
    gen.add_argument("--grid-points", type=int, default=None)
    gen.add_argument("--raw", action="store_true",
                     help="skip trace normalization of the densities")
    gen.add_argument("--out", default=None, help="output directory (default: cwd)")
    gen.set_defaults(func=_cmd_gen_spectra)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
