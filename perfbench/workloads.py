"""The benchmark's four workloads.

Each workload builds all of its inputs from the seed during set-up, then
``run_block`` runs one fixed-shape block of timed ops and checks every
result.  Blocks have the same mix of work whatever the seed, so runs with
different seeds cost nearly the same.  The library receives only the
generated inputs.  Library calls go through ``Tracer.call`` so a traced
run books them to their layer; module attributes are looked up at call
time.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys

import numpy as np

from multiphonon import cli, config_io, kinetics, modes, oscillator, quadrature, rates, transient
from multiphonon.errors import AccuracyError, CapabilityError

from harness import stratified

# --- rate-scan ------------------------------------------------------------

# Grid points per sweep; the 1000-point ZPL sweep is the ROADMAP's
# reference sweep size.
SWEEP_POINTS = {"zpl_energy": 1000, "displacement": 200, "coupling": 200, "energy_ground": 200}
# Accepting-mode energy_ground points drawn below the certified range: at
# ħΩ_g < ~2.148 meV the phonon sum needs n_max > 512 and the correct
# outcome is a per-row CapabilityError.
BELOW_RANGE_POINTS = 20
BELOW_RANGE_MEV = (1.0, 2.1)
IN_RANGE_FLOOR_MEV = 2.2  # n_max = 500 for the accepting mode
BREAKDOWNS_PER_SWEEP = 4
RATE_SCAN_PASSES = 4
# Checks from the acceptance suite: the C-H/C-D ratio within a factor two
# of the measured ~285, and the accepting mode blind to the isotope.
CH_RATIO_RANGE = (142.0, 570.0)
ACCEPTING_BLIND_REL = 1e-6


def _sweep_range(mode, parameter):
    """(lo, hi, log) of the seeded grid for one mode and parameter."""
    if parameter == "zpl_energy":
        return 500.0, 1200.0, False
    if parameter == "coupling":
        return 0.1, 10.0, False
    if parameter == "displacement":
        if mode.label == "accepting":
            return 0.2, 1.5, False
        return 0.0005, 0.005, False
    if mode.label == "accepting":
        return IN_RANGE_FLOOR_MEV, 140.0, True
    return 0.7 * mode.energy_ground, 1.3 * mode.energy_ground, False


class RateScan:
    """Seeded rate sweeps and breakdowns over both variants and both modes."""

    name = "rate-scan"
    calibration = "allocation"

    def __init__(self, seed, tracer, recorder, workdir):
        self.tracer, self.recorder = tracer, recorder
        rng = np.random.default_rng(seed)
        tr = tracer
        records, configs = tr.call("modes", modes.load_reference_dataset)
        self.lifetimes = {r.variant_label: r.lifetime_us * 1e-6 for r in records}
        self.configs = {}
        for config in configs:
            text = tr.call("config_io.serialize", config_io.serialize_defect_config, config)
            parsed = tr.call("config_io.parse", config_io.parse_defect_config, text)
            tr.count("config_io.bytes", 2 * len(text.encode()))
            recorder.setup_check(parsed == config, f"{config.variant_label}: config round trip")
            self.configs[parsed.variant_label] = parsed
        self.passes = [self._make_pass(rng) for _ in range(RATE_SCAN_PASSES)]
        self.next_pass = 0

    def _make_pass(self, rng):
        sweeps = []
        for variant, config in self.configs.items():
            for mode in config.modes:
                for parameter in rates.SWEEP_PARAMETERS:
                    lo, hi, log = _sweep_range(mode, parameter)
                    count = SWEEP_POINTS[parameter]
                    below = BELOW_RANGE_POINTS if (
                        parameter == "energy_ground" and mode.label == "accepting") else 0
                    grid = stratified(rng, count - below, lo, hi, log)
                    grid += [float(v) for v in rng.uniform(*BELOW_RANGE_MEV, below)]
                    order = rng.permutation(count)
                    grid = [grid[i] for i in order]
                    refused = {j for j, i in enumerate(order) if i >= count - below}
                    samples = self._sample_rows(rng, count, refused)
                    breakdowns = [
                        (row, self._vary(config, mode, parameter, grid[row]), row in refused)
                        for row in samples
                    ]
                    sweeps.append((variant, mode, parameter, grid, refused, breakdowns))
        purcell = float(10.0 ** rng.uniform(0.0, 6.0))
        return sweeps, purcell

    @staticmethod
    def _sample_rows(rng, count, refused):
        resolved = [i for i in range(count) if i not in refused]
        count_resolved = BREAKDOWNS_PER_SWEEP - bool(refused)
        picks = [int(i) for i in rng.choice(resolved, count_resolved, replace=False)]
        if refused:
            picks.append(int(rng.choice(sorted(refused))))
        return picks

    def _vary(self, config, mode, parameter, value):
        """The configuration ``rate_sweep`` evaluates at one grid value, built by the caller."""
        tr = self.tracer
        if parameter == "zpl_energy":
            return tr.call("modes", modes.DefectConfiguration, config.variant_label, value, config.modes)
        fields = dataclasses.asdict(mode)
        fields[parameter] = value  # sweep parameters name mode fields
        varied = tr.call("modes", modes.VibrationalMode, **fields)
        return tr.call("modes", config.with_mode, varied)

    def inputs(self):
        return [
            (purcell, [(v, m.label, p, grid, rows) for v, m, p, grid, _, rows in sweeps])
            for sweeps, purcell in self.passes
        ]

    def run_block(self):
        sweeps, purcell = self.passes[self.next_pass % len(self.passes)]
        self.next_pass += 1
        for variant, mode, parameter, grid, refused, breakdowns in sweeps:
            self._scan(self.configs[variant], mode, parameter, grid, refused, breakdowns)
        self._chain(purcell)

    def _scan(self, config, mode, parameter, grid, refused, breakdowns):
        """One op: a sweep, then the per-term breakdowns of its sampled rows.

        A caller scanning a parameter and then inspecting a few points waits
        for both; one op per sweep also keeps the op latencies in a few
        well-separated groups, so their median and tail are steady.
        """
        tr, rec = self.tracer, self.recorder

        def scan():
            rows = tr.call(f"rates.sweep/{parameter}-{mode.label}", rates.rate_sweep,
                           config, mode.label, parameter, grid)
            results = []
            for _, varied, _ in breakdowns:
                try:
                    results.append(tr.call("rates.rate/breakdown", rates.nonradiative_rate,
                                           varied, mode.label))
                except CapabilityError as exc:
                    results.append(exc)
            return rows, results

        outcome = rec.op("scan", scan, results=len(grid) + len(breakdowns))
        if outcome is None:
            return
        rows, results = outcome
        if not rec.check(len(rows) == len(grid), "row count differs from grid"):
            return
        self._check_rows(mode, parameter, grid, refused, rows)
        for (index, varied, is_refused), result in zip(breakdowns, results):
            if is_refused:
                rec.check(isinstance(result, CapabilityError),
                          f"row {index}: breakdown returned where CapabilityError was due")
            elif rec.check(not isinstance(result, Exception), f"row {index}: breakdown raised {result!r}"):
                self._check_breakdown(varied, mode, rows[index], result)

    def _check_rows(self, mode, parameter, grid, refused, rows):
        tr, rec = self.tracer, self.recorder
        errors = terms = 0
        for index, (row, value) in enumerate(zip(rows, grid)):
            rec.check(row.parameter == parameter and row.value == value, f"row {index} out of order")
            if index in refused:
                errors += 1
                rec.check(row.error is not None and row.rate is None,
                          f"row {index} (value={value!r}) is below range but has no error")
            elif rec.check(row.error is None and math.isfinite(row.rate) and row.rate > 0,
                           f"row {index} (value={value!r}) is not a finite positive rate"):
                terms += row.n_max + 1
                if tr.enabled:
                    self._replay_moments(mode, parameter, value, row.n_max)
        tr.count("rates.sweep.rows", len(rows))
        tr.count("rates.sweep.row_errors", errors)
        tr.count("rates.terms", terms)

    def _check_breakdown(self, config, mode, row, result):
        tr, rec = self.tracer, self.recorder
        terms = result.terms
        # The contract of test_zpl_sweep_self_consistency: exact equality.
        rec.check(row.error is None and result.total_rate == row.rate
                  and result.n_max_used == row.n_max and result.sigma == row.sigma,
                  "breakdown differs from its sweep row")
        rec.check([t.n for t in terms] == list(range(result.n_max_used + 1)), "term numbering")
        rec.check(math.fsum(t.contribution for t in terms) == result.total_rate,
                  "terms do not sum to the total")
        rec.check(math.isfinite(result.total_rate) and result.total_rate > 0,
                  "rate is not finite and positive")
        tr.count("rates.terms", len(terms))
        if tr.enabled:
            changed = config.mode(mode.label)
            pair = oscillator.OscillatorPair(changed.energy_excited, changed.energy_ground,
                                             changed.displacement)
            self._replay(pair, result.n_max_used)

    def _replay_moments(self, mode, parameter, value, n_max):
        energy_ground, displacement = mode.energy_ground, mode.displacement
        if parameter == "energy_ground":
            energy_ground = value
        elif parameter == "displacement":
            displacement = value
        self._replay(oscillator.OscillatorPair(mode.energy_excited, energy_ground, displacement), n_max)

    def _replay(self, pair, n_max):
        # Outside every timed op: the share of rate time spent in the
        # overlap rows, which rates computes internally.  n_max = 34 is the
        # accepting mode at the reference ZPL, a ROADMAP baseline case.
        group = "oscillator.rows/replay-1x34" if n_max == 34 else "oscillator.rows/replay"
        self.tracer.call(group, oscillator.transition_moments, pair, n_max)
        self.tracer.count("oscillator.rows.cells", 2 * (n_max + 1))

    def _chain(self, purcell):
        tr, rec = self.tracer, self.recorder
        natural, deuterium = self.configs["natural"], self.configs["deuterium"]

        def chain():
            ratio = tr.call("rates.rate/ratio-ch-stretch", rates.isotope_rate_ratio,
                            natural, deuterium, "ch-stretch")
            blind = tr.call("rates.rate/ratio-accepting", rates.isotope_rate_ratio,
                            natural, deuterium, "accepting")
            budget = tr.call("kinetics", kinetics.infer_radiative_rate,
                             self.lifetimes["natural"], self.lifetimes["deuterium"], ratio)
            value = tr.call("kinetics", kinetics.cyclicity, budget.efficiency_a, purcell)
            return ratio, blind, budget, value

        outcome = rec.op("chain", chain)
        if outcome is None:
            return
        ratio, blind, budget, value = outcome
        rec.check(CH_RATIO_RANGE[0] <= ratio <= CH_RATIO_RANGE[1], f"C-H/C-D ratio {ratio!r}")
        rec.check(abs(blind - 1.0) <= ACCEPTING_BLIND_REL, f"accepting-mode ratio {blind!r}")
        rec.check(0 < budget.efficiency_a < 1 and 0 < budget.efficiency_b < 1, "efficiencies")
        rec.check(math.isfinite(value) and value >= 2.0, f"cyclicity {value!r}")


# --- overlap-certify ------------------------------------------------------

# Documented certification domain of the overlap recurrence.
ENERGY_RANGE_MEV = (20.0, 400.0)
DISPLACEMENT_RANGE = (0.0, 1.0)
PAIRS_PER_BLOCK = 16
OVERLAP_BLOCKS = 16
ROWS_N = 512
ORACLE_N = 30
RELATIVE_TOL = 1e-8
NORM_TOL = 1e-10
MPMATH_GRID = quadrature.GridSpec(dps=30, abs_tol=1e-12)
# A float64 disagreement is settled by the 30-digit oracle, for at most
# this many entries of a pair; more disagreements fail the pair outright.
ESCALATIONS_PER_PAIR = 2


def criterion7(analytic, values, errors):
    """(violations, resolvable): entries that break the acceptance suite's criterion-7 rule.

    Where quadrature resolves an entry to 1e-8 relative the two routes must
    agree at that level; elsewhere they must agree within the oracle's
    error estimate and be tiny.
    """
    resolvable = errors <= RELATIVE_TOL * np.abs(values)
    deviation = np.abs(analytic - values)
    violations = np.where(
        resolvable,
        deviation > RELATIVE_TOL * np.abs(values),
        (deviation > errors) | (np.abs(analytic) >= 1e-6),
    )
    return violations, resolvable


class OverlapCertify:
    """Seeded oscillator pairs certified against the quadrature oracle."""

    name = "overlap-certify"
    calibration = "arithmetic"

    def __init__(self, seed, tracer, recorder, workdir):
        self.tracer, self.recorder = tracer, recorder
        rng = np.random.default_rng(seed)
        self.blocks = [self._make_block(rng) for _ in range(OVERLAP_BLOCKS)]
        self.next_block = 0
        self.worst = (0.0, None)
        self.verdicts = {}

    @staticmethod
    def _make_block(rng):
        """Pairs stratified in log energy ratio, which sets the oracle's grid size.

        The pair in the middle stratum also gets an mpmath spot check.
        """
        lo, hi = ENERGY_RANGE_MEV
        ratios = [(hi / lo) ** ((k + float(u)) / PAIRS_PER_BLOCK)
                  for k, u in enumerate(rng.random(PAIRS_PER_BLOCK))]
        displacements = stratified(rng, PAIRS_PER_BLOCK, *DISPLACEMENT_RANGE)
        block = []
        for k, ratio in enumerate(ratios):
            low = float(rng.uniform(lo, hi / ratio))
            energies = (low, low * ratio) if rng.random() < 0.5 else (low * ratio, low)
            spot = None
            if k == PAIRS_PER_BLOCK // 2:
                # m, n <= 1 keeps the cost of every spot check alike.
                spot = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            block.append((energies[0], energies[1], displacements[k], spot))
        return [block[i] for i in rng.permutation(PAIRS_PER_BLOCK)]

    def inputs(self):
        return self.blocks

    def run_block(self):
        block = self.blocks[self.next_block % len(self.blocks)]
        self.next_block += 1
        for spec in block:
            self._certify(spec)

    def _certify(self, spec):
        tr, rec = self.tracer, self.recorder
        e_i, e_f, dq, spot = spec
        pair = oscillator.OscillatorPair(e_i, e_f, dq)

        def op():
            rows = tr.call("oscillator.rows/1x512", oscillator.fc_overlap_matrix, pair, 1, ROWS_N)
            short = tr.call("quadrature.table/1x30", quadrature.quadrature_overlap_table,
                            pair, 1, ORACLE_N)
            try:
                table = tr.call("oscillator.table/30x30", oscillator.fc_overlap_matrix,
                                pair, ORACLE_N, ORACLE_N)
            except CapabilityError:
                table = None
            full = tr.call("quadrature.table/30x30", quadrature.quadrature_overlap_table,
                           pair, ORACLE_N, ORACLE_N)
            scalar = None
            if spot is not None:
                try:
                    scalar = tr.call("quadrature.mpmath", quadrature.quadrature_overlap_oracle,
                                     spot[0], spot[1], pair, MPMATH_GRID)
                except AccuracyError as exc:
                    scalar = exc
            return rows, short, table, full, scalar

        outcome = rec.op("pair", op)
        if outcome is None:
            return
        rows, (values, errors), table, (full_values, full_errors), scalar = outcome
        violations, resolvable = criterion7(rows[:, : ORACLE_N + 1], values, errors)
        self._settle(spec, pair, rows, np.argwhere(violations))
        norm = np.abs(np.sum(rows**2, axis=1) - 1.0)
        rec.check(np.all(norm <= NORM_TOL), f"pair {spec[:3]}: completeness off by {norm.max():.2e}")
        tr.count("oscillator.rows.cells", rows.size)
        tr.count("quadrature.table.entries", values.size + full_values.size)
        full_resolvable = full_errors <= RELATIVE_TOL * np.abs(full_values)
        tr.count("quadrature.resolved", int(resolvable.sum()) + int(full_resolvable.sum()))
        if table is None:
            tr.count("oscillator.table_refused")
        else:
            # Outcomes of the full table stay out of the op's pass/fail: the
            # forward recurrence is known to drift for large m.
            tr.count("oscillator.table.cells", table.size)
            relative = np.abs(table - full_values)[full_resolvable] / np.abs(full_values[full_resolvable])
            mismatch = relative.size and relative.max() > RELATIVE_TOL
            tr.count("oscillator.table_mismatch" if mismatch else "oscillator.table_agree")
            if mismatch and relative.max() > self.worst[0]:
                worst_m = int(np.argwhere(full_resolvable)[relative.argmax()][0])
                self.worst = (float(relative.max()), worst_m)
        if isinstance(scalar, AccuracyError):
            tr.count("quadrature.accuracy_refusals")
        elif scalar is not None:
            m, n = spot
            rec.check(abs(rows[m, n] - scalar) <= RELATIVE_TOL * abs(scalar) + MPMATH_GRID.abs_tol,
                      f"pair {spec[:3]}: S[{m},{n}] differs from the mpmath oracle")

    def _settle(self, spec, pair, rows, entries):
        """Check the m <= 1 entries the float64 oracle disagrees with against 30 digits.

        An entry the 30-digit oracle confirms is a miss of the float64
        error estimate, counted as ``quadrature.float64_misses``; one it
        contradicts fails the pair.  Runs outside the timed op, once per
        entry and run.
        """
        rec = self.recorder
        if not rec.check(len(entries) <= ESCALATIONS_PER_PAIR,
                         f"pair {spec[:3]}: {len(entries)} m <= 1 entries break the criterion-7 rule"):
            return
        for m, n in entries:
            key = (spec, int(m), int(n))
            if key not in self.verdicts:
                self.verdicts[key] = self.tracer.call(
                    "quadrature.mpmath/settle", quadrature.quadrature_overlap_with_error,
                    int(m), int(n), pair, MPMATH_GRID)
            value, error = self.verdicts[key]
            if rec.check(abs(rows[m, n] - value) <= RELATIVE_TOL * abs(value) + error,
                         f"pair {spec[:3]}: S[{m},{n}] = {rows[m, n]!r} differs from the "
                         f"30-digit oracle ({value!r})"):
                self.tracer.count("quadrature.float64_misses")


# --- transient-fit --------------------------------------------------------

LIFETIMES_US = (0.885, 4.807)
# Pairs of fits (one per lifetime) per block, by bin count.  Small
# histograms are bound by per-call overhead, large ones by arrays and I/O.
BIN_MIX = {500: 3, 10_000: 2, 100_000: 1}
TRANSIENT_BLOCKS = 4
NR_RATIO = 285.0
FIT_SIGMAS = 5.0


class TransientFit:
    """Simulated photon-counting transients through CSV and the lifetime fitter."""

    name = "transient-fit"
    calibration = "allocation"

    def __init__(self, seed, tracer, recorder, workdir):
        self.tracer, self.recorder = tracer, recorder
        self.path = os.path.join(workdir, "transient.csv")
        rng = np.random.default_rng(seed)
        self.blocks = [self._make_block(rng) for _ in range(TRANSIENT_BLOCKS)]
        self.next_block = 0

    @staticmethod
    def _make_block(rng):
        pairs = [bins for bins, count in BIN_MIX.items() for _ in range(count)]
        block = []
        for index in rng.permutation(len(pairs)):
            bins = pairs[index]
            specs = []
            for tau in LIFETIMES_US:
                t_max = tau * float(rng.uniform(8.0, 12.0))
                specs.append((
                    tau, float(rng.uniform(5e3, 2e4)), float(rng.uniform(5.0, 50.0)), bins, t_max,
                    int(rng.integers(0, 2**31)), (0.02 * t_max, 0.9 * t_max),
                ))
            block.append(specs)
        return block

    def inputs(self):
        return self.blocks

    def run_block(self):
        block = self.blocks[self.next_block % len(self.blocks)]
        self.next_block += 1
        for specs in block:
            fitted = [self._fit(spec) for spec in specs]
            if None not in fitted:
                self._infer(*fitted)

    def _fit(self, spec):
        tr, rec = self.tracer, self.recorder
        tau, amplitude, background, bins, t_max, seed, window = spec
        path = self.path

        def op():
            hist = tr.call(f"transient.simulate/{bins}", transient.simulate_transient,
                           tau, amplitude, background, bins, t_max, seed)
            tr.call(f"transient.write_csv/{bins}", transient.write_histogram_csv, hist, path)
            back = tr.call(f"transient.read_csv/{bins}", transient.read_histogram_csv, path)
            fit = tr.call(f"transient.fit/{bins}", transient.fit_lifetime, back, fit_window=window)
            return hist, back, fit

        outcome = rec.op("fit", op)
        if outcome is None:
            return None
        hist, back, fit = outcome
        rec.check(np.array_equal(back.counts, hist.counts), "CSV round trip changed the counts")
        ok = rec.check(abs(fit.lifetime_us - tau) <= FIT_SIGMAS * fit.lifetime_uncertainty_us,
                       f"tau {tau} bins {bins}: fitted {fit.lifetime_us!r} "
                       f"+- {fit.lifetime_uncertainty_us!r}")
        tr.count("transient.csv_bytes", os.path.getsize(path))
        tr.count("transient.bins", bins)
        tr.count("transient.fit.iterations", fit.iterations)
        return fit.lifetime_us if ok else None

    def _infer(self, tau_a, tau_b):
        tr, rec = self.tracer, self.recorder
        budget = rec.op(
            "kinetics",
            lambda: tr.call("kinetics", kinetics.infer_radiative_rate,
                            tau_a * 1e-6, tau_b * 1e-6, NR_RATIO),
            results=0,
        )
        if budget is not None:
            rec.check(0 < budget.efficiency_a < budget.efficiency_b <= 1, "inferred efficiencies")


# --- cli-session ----------------------------------------------------------

SESSIONS = 4
SWEEP_STEPS = (20, 60)


class CliSession:
    """Sequential ``python -m multiphonon.cli`` calls, each checked in-process."""

    name = "cli-session"
    calibration = "allocation"

    def __init__(self, seed, tracer, recorder, workdir):
        self.tracer, self.recorder = tracer, recorder
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8")
        self.workdir = workdir
        _, configs = tracer.call("modes", modes.load_reference_dataset)
        self.config_paths = []
        for config in configs:
            text = tracer.call("config_io.serialize", config_io.serialize_defect_config, config)
            path = os.path.join(workdir, f"{config.variant_label}.json")
            with open(path, "w") as handle:
                handle.write(text)
            tracer.count("config_io.bytes", len(text.encode()))
            self.config_paths.append(path)
        rng = np.random.default_rng(seed)
        self.sessions = [self._make_session(rng) for _ in range(SESSIONS)]
        self.next_session = 0

    def _make_session(self, rng):
        config = self.config_paths[int(rng.integers(0, len(self.config_paths)))]
        histogram = os.path.join(self.workdir, "cli_transient.csv")
        tau = LIFETIMES_US[int(rng.integers(0, 2))]
        zpl = float(rng.uniform(500.0, 900.0))
        return [
            ["dataset", "--format", "csv"],
            ["dataset", "--format", "config"],
            ["rate", "--config", config, "--mode", ("accepting", "ch-stretch")[int(rng.integers(0, 2))]],
            ["sweep", "--config", config, "--mode", "ch-stretch", "--vary", "zpl_energy",
             "--from", repr(zpl), "--to", repr(zpl + float(rng.uniform(100.0, 300.0))),
             "--steps", str(int(rng.integers(*SWEEP_STEPS)))],
            ["kinetics", "--tau-a", "0.885", "--tau-b", "4.807",
             "--nr-ratio", repr(float(rng.uniform(150.0, 450.0))),
             "--debye-waller", repr(float(rng.uniform(0.1, 0.3)))],
            ["cyclicity", "--eta0", repr(float(rng.uniform(0.1, 0.99))),
             "--purcell", repr(float(10.0 ** rng.uniform(0.0, 6.0)))],
            ["simulate", "--tau", repr(tau), "--amplitude", repr(float(rng.uniform(5e3, 2e4))),
             "--background", repr(float(rng.uniform(5.0, 50.0))), "--bins", "500",
             "--tmax", repr(10.0 * tau), "--seed", str(int(rng.integers(0, 2**31))),
             "--out", histogram],
            ["fit", "--histogram", histogram, "--window", f"{0.2 * tau!r},{9.0 * tau!r}"],
        ]

    def inputs(self):
        return [[[a.replace(self.workdir, "<work>") for a in argv] for argv in s] for s in self.sessions]

    def run_block(self):
        session = self.sessions[self.next_session % len(self.sessions)]
        self.next_session += 1
        for argv in session:
            self._call(argv)

    def _call(self, argv):
        tr, rec = self.tracer, self.recorder
        command = [sys.executable, "-m", "multiphonon.cli", *argv]

        def op():
            with tr.span("cli.main", f"cli.{argv[0]}"):
                return subprocess.run(command, env=self.env, capture_output=True, timeout=60)

        proc = rec.op("call", op)
        if proc is None:
            return
        rec.check(proc.returncode == 0, f"{argv[0]}: exit code {proc.returncode}: {proc.stderr[-300:]!r}")
        written = self._output_file(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli.compute", cli.run_command, argv)
        rec.check(code == proc.returncode, f"{argv[0]}: in-process exit code {code}")
        rec.check(proc.stdout == out.getvalue().encode("utf-8"),
                  f"{argv[0]}: stdout differs from the in-process run")
        if written is not None:
            rec.check(written == self._output_file(argv), f"{argv[0]}: output file differs")

    @staticmethod
    def _output_file(argv):
        if "--out" not in argv:
            return None
        with open(argv[argv.index("--out") + 1], "rb") as handle:
            return handle.read()


WORKLOADS = {w.name: w for w in (RateScan, OverlapCertify, TransientFit, CliSession)}


def inputs_digest(workload):
    """SHA-256 of the generated inputs, so that equal seeds are seen to give equal inputs."""
    return hashlib.sha256(repr(workload.inputs()).encode()).hexdigest()
