"""Command-line experiment runner.

Subcommands: run, sweep, plot, diagnose. Exit codes: 0 ok, 2 config,
schema or unwritable-output error, 3 external scorer failure, 4
non-finite sampler output. The NOISEDIFF_SEED environment variable
overrides the configured seed list with a single seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import distribution_report, quartiles
from .config import load_config
from .errors import ConfigError, InsufficientSampleError, NonFiniteError
from .experiment import EXIT_CONFIG, EXIT_NONFINITE, read_csv, run_experiment, run_sweep
from .plotting import emit_plot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisediff",
        description="Initial-latent optimization experiments with trajectory logging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config over its seeds")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None, help="override the output directory")

    p_sweep = sub.add_parser("sweep", help="re-run an experiment across T or N values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=("T", "N"))
    p_sweep.add_argument("--values", required=True, help="comma-separated positive integers")
    p_sweep.add_argument("-o", "--output", default=None)

    p_plot = sub.add_parser("plot", help="render trajectory CSVs to an SVG comparison")
    p_plot.add_argument("csvs", nargs="+")
    p_plot.add_argument("-o", "--output", required=True)

    p_diag = sub.add_parser("diagnose", help="print distribution and selection diagnostics")
    p_diag.add_argument("csvs", nargs="+")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            result = run_experiment(load_config(args.config), output=args.output)
            for line in result.failures:
                print(f"warning: {line}", file=sys.stderr)
            print(f"wrote {result.output_dir}")
            return result.exit_code
        if args.command == "sweep":
            try:
                values = [int(v) for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"--values must be integers, got {args.values!r}")
            code, path = run_sweep(load_config(args.config), args.axis, values, args.output)
            print(f"wrote {path}")
            return code
        if args.command == "plot":
            emit_plot(args.csvs, args.output)
            print(f"wrote {args.output}")
            return 0
        return _diagnose(args.csvs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"error: NonFiniteError: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


def _diagnose(paths) -> int:
    for path in paths:
        kind, cols = read_csv(path)
        print(f"== {path}")
        {"trajectory": _diagnose_trajectory, "latents": _diagnose_latents,
         "summary": _diagnose_summary}[kind](cols)
    return 0


def _diagnose_trajectory(cols):
    best = cols["best_score"]
    print(f"epochs: {max(len(best) - 1, 0)}")
    if not best:
        print("no scored epoch: the trajectory has a header only")
        return
    monotone = all(b >= a for a, b in zip(best, best[1:]))
    print(f"initial score: {cols['score'][0]:.6f}")
    print(f"final best score: {best[-1]:.6f}")
    print(f"best-score monotone: {'yes' if monotone else 'NO'}")
    ratios = [r for r in cols["selected_ratio"] if np.isfinite(r)]
    if len(ratios) >= 4:
        q1, med, q3 = quartiles(ratios)
        print(f"selected ratio quartiles: Q1={q1:.6f} median={med:.6f} Q3={q3:.6f}")
    else:
        print("selected ratio quartiles: not enough recorded ratios")


def _diagnose_latents(cols):
    names = list(cols)[1:]
    for i, seed in enumerate(cols["seed"]):
        z = np.array([cols[name][i] for name in names])
        try:
            report = distribution_report(z)
        except InsufficientSampleError:
            print(f"seed {seed}: dim {z.size} too small for the KS test")
            continue
        print(
            f"seed {seed}: mean={report.mean:+.4f} var={report.variance:.4f} "
            f"skew={report.skewness:+.4f} exkurt={report.excess_kurtosis:+.4f} "
            f"ks={report.ks_stat:.4f} (p={report.ks_pvalue:.4f})"
        )


def _diagnose_summary(cols):
    finals = [x for x in cols["final_best_score"] if not np.isnan(x)]
    if finals:
        print(f"seeds: {len(finals)}")
        print(f"median final best score: {float(np.median(finals)):.6f}")
    else:
        print("no completed seeds")


if __name__ == "__main__":
    sys.exit(main())
