#!/usr/bin/env python3
"""Closed-loop benchmark of the specdist command line.

    python3 perfbench/run.py --workload dual-w1k --seed 1 --seconds 30 --trace 0

One caller in one process sends a request, waits for it, checks its output
outside the timed region and sends the next, in whole passes over the
workload's instances.  Every timing is scaled to a reference host speed by
a calibration taken next to it (see hostspeed.py), so that the shared
host's slow spells do not set the figures.  Every request is one in-process
call of ``specdist.cli.main([...])`` on measure files (and Dirac-operator
files) written at set-up from the seed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same requests untraced and then traced with
spans around each module's public functions, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# pin BLAS/OpenMP to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2
WARMUP = {"dual-w1k": "ar-K36-n1-indep", "gap-audit": "ar-K12-n1-indep",
          "small-mix": "tv-K1024"}
SETUP_REPEATS = 5
SETUP_CALIBRATIONS = 5


@dataclass
class Outcome:
    inst: object
    seconds: float
    code: int | None      # exit code, None if an exception escaped
    error: str | None     # exception type, or the reason a check failed
    stdout: str
    certified: bool = False
    wrong: bool = False
    calibration: float = 0.0  # hostspeed.calibrate() right after the request
    scaled: float | None = None   # seconds at the reference host speed
    later: list = field(default_factory=list)   # comparisons still to make


def call(main, inst) -> Outcome:
    out = io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t = time.perf_counter()
        try:
            code = main(inst.argv())
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # the benchmark records every escape and goes on
            error = type(exc).__name__
        seconds = time.perf_counter() - t
    return Outcome(inst, seconds, code, error, out.getvalue())


def judge(checker, o: Outcome) -> Outcome:
    if o.error is None:
        reason, o.later = checker.check(o.inst, o.code, o.stdout)
        if reason is not None:
            o.wrong, o.error = True, f"check: {reason}"
        elif o.code != 0:
            o.error = f"exit {o.code}"
        else:
            o.certified = True
    o.stdout = ""
    return o


def settle(checker, outcomes) -> None:
    """Make the comparisons against upper references that ``judge`` queued."""
    for o in outcomes:
        reason = None if o.wrong else checker.compare(o.later)
        if reason is not None:
            o.certified, o.wrong, o.error = False, True, f"check: {reason}"
        o.later = []


def timed_loop(main, checker, stream, seconds: float, tracer=None):
    """Send whole passes over the stream for about ``seconds`` of request time.

    A pass sends every instance once, so every pass has the same mix.  After
    ``MIN_PASSES`` (one with a tracer, whose figures are per pass) the loop
    stops when one more pass would end further past ``seconds`` than short
    of it.  With a tracer, each request is sent a second time right after,
    traced, so the two passes see the same requests under the same
    conditions.
    """
    least = (MIN_PASSES if tracer is None else 1) * len(stream)
    untraced, traced, spent = [], [], 0.0
    while True:
        started = spent
        for inst in stream:
            o = call(main, inst)
            spent += o.seconds
            o.calibration = hostspeed.calibrate()
            untraced.append(judge(checker, o))
            if tracer is not None:
                tracer.request_id = len(traced)
                tracer.install()
                try:
                    o = call(tracer.main, inst)
                finally:
                    tracer.uninstall()
                traced.append(judge(checker, o))
        if len(untraced) >= least and spent + (spent - started) / 2 >= seconds:
            return untraced, traced


def setup(workload: str, seed: int, workdir: Path, instances, main, checker):
    """One set-up, timed from process start to the first request.

    A fresh interpreter importing specdist stands for process start (the
    running process has imported it once already); then the inputs are
    drawn, written through save_measure, and one warm-up request is sent.
    The time is scaled to the reference speed by calibrations either side.
    """
    calibrations = [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specdist"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    stream = instances.make_stream(workload, seed)
    instances.write_inputs(stream, workdir)
    warm = next(inst for inst in stream if inst.cls.label == WARMUP[workload])
    o = call(main, warm)
    seconds = time.perf_counter() - t
    calibrations += [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    seconds = hostspeed.scaled([seconds], [statistics.median(calibrations)])[0]
    return seconds, stream, judge(checker, o)


def report_instances(outcomes):
    """Per instance: K, n, gap target, budget and what happened to it."""
    rows = {}
    for o in outcomes:
        c = o.inst.cls
        row = rows.setdefault(o.inst.name, {
            "K": c.K, "n": c.n, "tol": c.tol, "budget": c.budget,
            "plan_kb": round(c.K * c.K * c.n * c.n * 16 / 1024, 1) if c.gap_audit else None,
            "sent": 0, "certified": 0, "seconds": [], "scaled": [], "failures": Counter()})
        row["sent"] += 1
        row["certified"] += o.certified
        row["seconds"].append(o.seconds)
        if o.scaled is not None:
            row["scaled"].append(o.scaled)
        if o.error:
            row["failures"][o.error] += 1
    print(f"# {'instance':30s} {'K':>4} {'n':>2} {'tol':>6} {'budget':>7} "
          f"{'sent':>4} {'cert':>4} {'median_s':>9} {'scaled_s':>9}  failures")
    for name, r in rows.items():
        fails = ", ".join(f"{k} x{v}" for k, v in r["failures"].items())
        plan = f" plan={r['plan_kb']}KB" if r["plan_kb"] is not None else ""
        scaled = f"{statistics.median(r['scaled']):.4f}" if r["scaled"] else "-"
        print(f"# {name:30s} {r['K']:>4} {r['n']:>2} {r['tol']:>6.0e} {r['budget']:>7} "
              f"{r['sent']:>4} {r['certified']:>4} {statistics.median(r['seconds']):>9.4f} "
              f"{scaled:>9}  "
              f"{fails}{plan}")


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten of ``n`` sorted values beyond it."""
    return max(q for q in range(1, 100) if n - 1 - math.floor((n - 1) * q / 100) >= 10)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics instead of the one or two
    next to the quantile: with a few dozen instances whose costs the seed
    shuffles, the sample quantile jumps between neighbours.  Over eight
    seeds of dual-w1k this estimate of the median spread half as much.
    """
    from scipy.special import betainc   # loaded only after the peak memory is read

    x = np.sort(values)
    n = x.size
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def end_to_end(outcomes, n, setup_s, rss_mb):
    """Each instance's time is its median over the run's passes at the
    reference host speed; the latencies are quantiles over the instances."""
    passes = len(outcomes) // n
    raw = [o.seconds for o in outcomes]
    for o, t in zip(outcomes, hostspeed.scaled(raw, [o.calibration for o in outcomes])):
        o.scaled = t
    per_instance = [statistics.median(o.scaled for o in outcomes[i::n]) for i in range(n)]
    certified = sum(o.certified for o in outcomes)
    q = tail_percentile(n)
    tail = harrell_davis(per_instance, q / 100)
    print(f"# samples={len(outcomes)} instances={n} passes={passes} tail=p{q} "
          f"({sum(x > tail for x in per_instance)} instances beyond it)")
    print(f"# host speed: calibration median {statistics.median(o.calibration for o in outcomes):.6f} s "
          f"(reference {hostspeed.REFERENCE_S} s); unscaled {certified / sum(raw):.4g} certified/s, "
          f"p50 {statistics.median(raw):.4g} s")
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (certified / passes / sum(per_instance), "1/s"),
        "latency_p50_s": (harrell_davis(per_instance, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "certified_frac": (certified / len(outcomes), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced_s, passes, seed):
    """Per-layer figures; totals are per pass over the stream, so they do
    not grow when the code gets faster."""
    from kernels import kernel_metrics
    from tracing import LINALG_KERNELS

    raw = tracer.summary()
    s = {name: {k: v / passes for k, v in x.items()} for name, x in raw.items()}
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0, "gave_up": 0}

    def span(name):
        return s.get(name, empty)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    for fn in LINALG_KERNELS:
        x = span(f"linalg.{fn}")
        m[f"linalg.{fn}.calls"] = (x["calls"], "count")
        m[f"linalg.{fn}.self_s"] = (x["self_s"], "s")
        m[f"linalg.{fn}.us_per_call"] = (ratio(x["total_s"], x["calls"], 1e6), "us")
        m[f"linalg.{fn}.blocks_per_call"] = (ratio(x["count"], x["calls"]), "count")
    m.update(kernel_metrics(seed))
    for name in ("pdhg.solve_ball_program", "matrix_primal.solve_unbalanced_primal"):
        x = span(name)
        m[f"{name}.calls"] = (x["calls"], "count")
        m[f"{name}.self_s"] = (x["self_s"], "s")
        m[f"{name}.iterations"] = (x["count"], "count")
        m[f"{name}.us_per_iter"] = (ratio(x["total_s"], x["count"], 1e6), "us")
        m[f"{name}.nonconverged"] = (x["gave_up"], "count")
    x = span("matrix_dual.solve_dual")
    matrix_requests = sum(o.inst.cls.metric == "matrix-w1k" for o in traced) / passes
    m["matrix_dual.solve_dual.calls"] = (x["calls"], "count")
    m["matrix_dual.solve_dual.total_s"] = (x["total_s"], "s")
    m["matrix_dual.solve_dual.solves_per_request"] = (ratio(x["calls"], matrix_requests), "ratio")
    m["matrix_primal.duality_gap.total_s"] = (span("matrix_primal.duality_gap")["total_s"], "s")
    x = span("connes.connes_distance")
    m["connes.connes_distance.calls"] = (x["calls"], "count")
    m["connes.connes_distance.total_s"] = (x["total_s"], "s")
    solves = tracer.children_of("connes.connes_distance", "pdhg.solve_ball_program")
    m["connes.ball_solves_per_distance"] = (ratio(solves / passes, x["calls"]), "ratio")
    m["scalar_metrics.w1_kappa_scalar.total_s"] = (
        span("scalar_metrics.w1_kappa_scalar")["total_s"], "s")
    x = span("simplex.lp_simplex")
    m["simplex.lp_simplex.calls"] = (x["calls"], "count")
    m["simplex.lp_simplex.total_s"] = (x["total_s"], "s")
    m["spectra.itakura_saito.total_s"] = (span("spectra.itakura_saito")["total_s"], "s")
    x = span("measures.load_measure")
    m["measures.load_measure.calls"] = (x["calls"], "count")
    m["measures.load_measure.total_s"] = (x["total_s"], "s")
    # the inputs are written once, after the traced passes
    m["measures.save_measure.total_s"] = (
        raw.get("measures.save_measure", empty)["total_s"], "s")
    m["cli.main.self_s"] = (span("cli.main")["self_s"], "s")
    traced_s = sum(o.seconds for o in traced)
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    if not (SRC / "specdist" / "__init__.py").is_file():
        print(f"error: no specdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specdist
    from specdist import cli

    if Path(specdist.__file__).resolve().parent != (SRC / "specdist").resolve():
        print(f"error: imported specdist from {specdist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import instances
    from checks import Checker

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(instances.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=instances.DEFAULT_SEED,
                        help=f"input seed (default {instances.DEFAULT_SEED}; seed "
                             f"{instances.HOLDOUT_SEED} is held out for confirming a claim)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seed = args.seed
    print(f"# workload={args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_version()} numpy={np.__version__} nproc={os.cpu_count()} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    workroot = ROOT / ".perfbench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    checker = Checker()
    try:
        setups = [setup(args.workload, seed, workroot / f"setup{r}", instances, cli.main, checker)
                  for r in range(SETUP_REPEATS)]
        setup_s = statistics.median(t for t, _, _ in setups)
        _, stream, warm = setups[-1]
        outcomes = [warm for _, _, warm in setups]

        if args.trace == 0:
            timed, _ = timed_loop(cli.main, checker, stream, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            settle(checker, outcomes + timed)
            metrics = end_to_end(timed, len(stream), setup_s, rss_mb)
        else:
            from tracing import Tracer
            tracer = Tracer(cli.main)
            untraced, traced = timed_loop(cli.main, checker, stream, args.seconds / 2, tracer)
            settle(checker, outcomes + untraced + traced)
            tracer.request_id = -1
            tracer.install()
            try:
                instances.write_inputs(stream, workroot / "traced")
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, sum(o.seconds for o in untraced),
                                len(traced) // len(stream), seed)
            runs = ROOT / ".perfbench_runs"
            runs.mkdir(exist_ok=True)
            tracer.save(runs / f"spans-{args.workload}-seed{seed}-{os.getpid()}.npz")
            timed = untraced + traced
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()

    report_instances(timed)
    outcomes += timed
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(timed),
        "failed": sum(not o.certified for o in timed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
