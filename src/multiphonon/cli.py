"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain/validation errors, 2 on usage errors.  All numeric output is
printed at full precision (``repr``), rates in s⁻¹ and lifetimes in µs.

Each handler imports only the modules it runs: ``dataset``, ``kinetics``
and ``cyclicity`` load neither numpy nor ``dataclasses``; ``rate`` and
``sweep`` load ``config_io``, ``modes`` and ``rates``; ``simulate`` and
``fit`` load ``transient`` alone.  The parser reads the import-free ``_tables``.
"""

import argparse
import os
import sys

from .errors import MultiphononError, _read_text


def _fmt(value):
    return repr(float(value))


def _window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'START,STOP', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_config(path):
    from .config_io import parse_defect_config

    return parse_defect_config(_read_text(path, "config"))


def _build_parser():
    from ._tables import SWEEP_PARAMETERS

    parser = argparse.ArgumentParser(
        prog="multiphonon",
        description="Multiphonon nonradiative decay rates and emitter kinetics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="nonradiative rate with its term breakdown")
    p_rate.add_argument("--config", required=True, help="defect configuration JSON file")
    p_rate.add_argument("--mode", required=True, help="vibrational mode label")
    p_rate.set_defaults(handler=_cmd_rate)

    p_sweep = sub.add_parser("sweep", help="rate across a linear parameter grid (CSV)")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--mode", required=True)
    p_sweep.add_argument("--vary", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_kin = sub.add_parser("kinetics", help="shared-radiative-rate inference for two variants")
    p_kin.add_argument("--tau-a", type=float, required=True, help="lifetime of variant a, µs")
    p_kin.add_argument("--tau-b", type=float, required=True, help="lifetime of variant b, µs")
    p_kin.add_argument("--nr-ratio", type=float, required=True, help="Γ_NR,a / Γ_NR,b")
    p_kin.add_argument("--debye-waller", type=float, default=None,
                       help="ZPL fraction of radiative emission; adds ZPL output fractions")
    p_kin.set_defaults(handler=_cmd_kinetics)

    p_cyc = sub.add_parser("cyclicity", help="optical cyclicity under Purcell enhancement")
    p_cyc.add_argument("--eta0", type=float, required=True, help="intrinsic radiative efficiency")
    p_cyc.add_argument("--purcell", type=float, required=True, help="Purcell factor")
    p_cyc.set_defaults(handler=_cmd_cyclicity)

    p_fit = sub.add_parser("fit", help="extract a lifetime from a transient histogram")
    p_fit.add_argument("--histogram", required=True, help="CSV file with header t_us,counts")
    p_fit.add_argument("--window", type=_window, default=None, help="fit window 'START,STOP' in µs")
    p_fit.set_defaults(handler=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="draw a synthetic transient histogram")
    p_sim.add_argument("--tau", type=float, required=True, help="decay lifetime, µs")
    p_sim.add_argument("--amplitude", type=float, required=True, help="expected t=0 counts per bin")
    p_sim.add_argument("--background", type=float, required=True, help="expected counts per bin")
    p_sim.add_argument("--bins", type=int, required=True)
    p_sim.add_argument("--tmax", type=float, required=True, help="histogram span, µs")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_data = sub.add_parser("dataset", help="export the embedded reference dataset")
    p_data.add_argument("--format", choices=("csv", "config"), default="csv")
    p_data.set_defaults(handler=_cmd_dataset)
    return parser


def _cmd_rate(args, out, err):
    from .rates import nonradiative_rate

    config = _load_config(args.config)
    result = nonradiative_rate(config, args.mode)
    print(f"variant {config.variant_label}", file=out)
    print(f"mode {args.mode}", file=out)
    print(f"sigma_mev {_fmt(result.sigma)}", file=out)
    print(f"n_max {result.n_max_used}", file=out)
    print(f"total_rate_per_s {_fmt(result.total_rate)}", file=out)
    print("n,moment_sq_amu_A2,delta_weight_per_meV,contribution_per_s", file=out)
    for term in result.terms:
        print(f"{term.n},{_fmt(term.moment_sq)},{_fmt(term.delta_weight)},"
              f"{_fmt(term.contribution)}", file=out)
    return 0


def _cmd_sweep(args, out, err):
    from ._tables import SWEEP_CSV_HEADER
    from .rates import rate_sweep, sweep_grid

    config = _load_config(args.config)
    grid = sweep_grid(args.start, args.stop, args.steps)
    points = rate_sweep(config, args.mode, args.vary, grid)
    print(SWEEP_CSV_HEADER, file=out)
    failures = 0
    for index, point in enumerate(points):
        if point.error is None:
            print(f"{point.parameter},{_fmt(point.value)},{_fmt(point.rate)},"
                  f"{point.n_max},{_fmt(point.sigma)}", file=out)
        else:
            failures += 1
            print(f"{point.parameter},{_fmt(point.value)},nan,,", file=out)
            print(f"row {index} (value={point.value!r}): {point.error}", file=err)
    return 1 if failures == len(points) else 0


def _cmd_kinetics(args, out, err):
    from .kinetics import infer_radiative_rate, zpl_emission_fraction

    result = infer_radiative_rate(args.tau_a * 1e-6, args.tau_b * 1e-6, args.nr_ratio)
    print(f"radiative_rate_per_s {_fmt(result.radiative_rate)}", file=out)
    print(f"nonradiative_rate_a_per_s {_fmt(result.nonradiative_rate_a)}", file=out)
    print(f"nonradiative_rate_b_per_s {_fmt(result.nonradiative_rate_b)}", file=out)
    print(f"radiative_lifetime_us {_fmt(result.radiative_lifetime_us)}", file=out)
    print(f"efficiency_a {_fmt(result.efficiency_a)} ({_fmt(100 * result.efficiency_a)}%)", file=out)
    print(f"efficiency_b {_fmt(result.efficiency_b)} ({_fmt(100 * result.efficiency_b)}%)", file=out)
    if args.debye_waller is not None:
        frac_a = zpl_emission_fraction(result.efficiency_a, args.debye_waller)
        frac_b = zpl_emission_fraction(result.efficiency_b, args.debye_waller)
        print(f"zpl_fraction_a {_fmt(frac_a)} ({_fmt(100 * frac_a)}%)", file=out)
        print(f"zpl_fraction_b {_fmt(frac_b)} ({_fmt(100 * frac_b)}%)", file=out)
    return 0


def _cmd_cyclicity(args, out, err):
    from .kinetics import cyclicity as cyclicity_value, purcell_radiative_efficiency

    efficiency = purcell_radiative_efficiency(args.eta0, args.purcell)
    value = cyclicity_value(args.eta0, args.purcell)
    print(f"purcell_radiative_efficiency {_fmt(efficiency)}", file=out)
    print(f"cyclicity {_fmt(value)}", file=out)
    return 0


def _cmd_fit(args, out, err):
    from .transient import fit_lifetime, read_histogram_csv

    histogram = read_histogram_csv(args.histogram)
    fit = fit_lifetime(histogram, fit_window=args.window)
    print(f"lifetime_us {_fmt(fit.lifetime_us)}", file=out)
    print(f"lifetime_uncertainty_us {_fmt(fit.lifetime_uncertainty_us)}", file=out)
    print(f"amplitude {_fmt(fit.amplitude)}", file=out)
    print(f"background {_fmt(fit.background)}", file=out)
    print(f"reduced_chi_square {_fmt(fit.fit_quality)}", file=out)
    print(f"iterations {fit.iterations}", file=out)
    return 0


def _cmd_simulate(args, out, err):
    from .transient import simulate_transient, write_histogram_csv

    histogram = simulate_transient(
        args.tau, args.amplitude, args.background, args.bins, args.tmax, args.seed
    )
    write_histogram_csv(histogram, args.out)
    total = int(histogram.counts.sum())
    print(f"wrote {args.out} bins={args.bins} total_counts={total}", file=out)
    return 0


def _cmd_dataset(args, out, err):
    if args.format == "csv":
        from ._tables import reference_records_csv as export
    else:
        from .config_io import configurations_config_json as export
    out.write(export())
    return 0


def run_command(argv):
    """Parse *argv* and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out, err = sys.stdout, sys.stderr
    try:
        return args.handler(args, out, err)
    except (MultiphononError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main():
    # No subcommand needs the thread pool numpy's OpenBLAS starts at import.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
