#!/usr/bin/env python3
"""Reproduce the benchmark distance study end to end.

Computes the Itakura-Saito, matricial total variation and certified
Wasserstein-like distances between the three benchmark spectra, audits every
Wasserstein cell with the transport solver, and writes the table plus the
per-frequency density columns for plotting.

Usage:
    python scripts/run_table1.py [--kappa 1.0] [--gap-tol 1e-3] [--out results]
"""

import argparse
import csv
import json
import time
from pathlib import Path

from specdist import SolverOptions, density_plot_data, table1_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--gap-tol", type=float, default=1e-3)
    parser.add_argument("--max-iter", type=int, default=400_000)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    options = SolverOptions(
        tolerance=args.gap_tol, gap_tolerance=args.gap_tol, max_iterations=args.max_iter
    )
    t0 = time.time()
    report = table1_report(kappa=args.kappa, options=options, gap_audit=True)
    elapsed = time.time() - t0

    print(report.human_table())
    print(f"\ncomputed in {elapsed:.0f}s; gap-audited at {args.gap_tol:g}")
    for cell in report.row("w1k"):
        if not cell.converged:
            print(f"  w1k {cell.pair}: {cell.note}, iterations {cell.iterations}")
            continue
        print(
            f"  w1k {cell.pair}: value {cell.value:.5f}, primal {cell.primal_value:.5f}, "
            f"relative gap {cell.relative_gap:.2e}, iterations {cell.iterations}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = [
        {
            "metric": c.metric,
            "pair": f"f{c.pair[0]},f{c.pair[1]}",
            "value": c.value,
            "reference": c.reference,
            "relative_deviation": c.relative_deviation,
            "relative_gap": c.relative_gap,
            "flagged": c.flagged,
            "note": c.note,
            "converged": c.converged,
        }
        for c in report.cells
    ]
    (out / "table1.json").write_text(json.dumps({"kappa": report.kappa, "cells": cells}, indent=1))

    plot = density_plot_data()
    with open(out / "density_plot_data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = list(plot.keys())
        writer.writerow(keys)
        for row in zip(*(plot[k] for k in keys)):
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {out / 'table1.json'} and {out / 'density_plot_data.csv'}")


if __name__ == "__main__":
    main()
