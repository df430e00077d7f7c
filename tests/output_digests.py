"""One SHA-256 per group of the package's numeric outputs, to show that a change keeps every bit.

Usage::

    python tests/output_digests.py [SRC]

imports ``multiphonon`` from *SRC* (default: the ``src`` beside this file's directory) and
prints ``<group> <sha256>`` lines.  Run it on two trees and compare the lines: a group
whose digest differs returned other bits, another refusal, or another warning.  A value
enters as its bytes (signed zeros, NaN and inf count), a refusal as its type and message,
and a warning as its category and message.  Compare runs with the same BLAS thread
count: the larger matrix products may sum in another order with another count.
Pytest does not collect this file.
"""

import hashlib
import math
import pathlib
import sys
import tempfile
import warnings
from dataclasses import astuple, is_dataclass, replace

import numpy as np

SEED = 20240601
PAIRS = 40
TABLE_SHAPES = ((1, 512), (30, 30), (2, 512), (512, 3), (7, 40), (120, 120))
ORACLE_SHAPES = ((1, 30), (30, 30))
# ħΩ and ΔQ at the float extremes, with one ordinary value each, on both sides of a pair.
EXTREME_ENERGIES = (5e-324, 1e-310, 33.0, 1e308)
EXTREME_DISPLACEMENTS = (0.0, -0.0, 0.734, 1e308, -1e308)
EXTREME_N = (0, 1, 2, 512)
# Sweep grids: ordinary values around the reference mode with NaN, a negative value,
# the smallest subnormal and 1e308 among them, so rows fail and chunks split.
SWEEP_EXTRAS = (math.nan, -1.0, 5e-324, 1e308, 0.0)
# Chunks of one row: a one-point grid per parameter at the case's own value, and 16
# values of ħΩ_g with 2.2 meV, which the accepting mode chunks as [16, 1].
ONE_ROW_GROUND = tuple(np.linspace(100.0, 140.0, 16).tolist()) + (2.2,)
# Transients: CSV round trips by bin count, seeded fits (simulate_transient's arguments
# and the fit window), and two seeded fits that raise FitError after some iterations.
CSV_BINS = (10, 500, 8193, 100_000)
FITS = (((0.885, 1e4, 10.0, 500, 10.0, 11), None),
        ((4.807, 200.0, 2.0, 10_000, 40.0, 12), (0.5, 35.0)),
        ((0.885, 1e4, 10.0, 100_000, 10.0, 13), (0.1, 9.0)),
        ((0.01, 30.0, 0.0, 500, 1.0, 0), None))
FIT_ERRORS = ((0.885, 30.0, 50.0, 40, 20.0, 24), (0.01, 30.0, 50.0, 500, 10.0, 0))
# Invalid bins and counts, one refusal each, and the refusals' precedence.
BAD_HISTOGRAMS = (([0.0], [1.0]), ([0.0, math.nan, 2.0], [1.0, 1.0]), ([2.0, math.nan, 1.0], [1.0, 1.0]),
                  ([0.0, 1.0, math.inf], [1.0, 1.0]), ([0.0, 2.0, 1.0], [1.0, 1.0]),
                  ([0.0, 1.0, 1.0, 2.0], [1.0] * 3), ([1.7e308, -1.7e308, 0.0], [1.0, 1.0]),
                  ([-1.7e308, 0.0, 1.7e308], [1.0, 1.0]), ([8e307, 1e308, 1.2e308], [1.0, 1.0]),
                  ([0.0, 1.0, 3.0], [-1.0]), ([0.0, 1.0, 2.0], [-1.0]), ([0.0, 1.0, 2.0], [1.0, -1.0]),
                  ([0.0, 1.0, 2.0], [math.nan, 1.0]), ([0.0, 1.0, 2.0], [1.0, -math.inf]),
                  ([0.0, 1.0, 2.0], [-0.0, 1.0]))


def _feed(digest, value):
    """Add *value* to *digest*: arrays as dtype, shape and bytes, floats as hex, containers in order."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    elif is_dataclass(value):
        _feed(digest, astuple(value))
    elif isinstance(value, (tuple, list)):
        digest.update(b"(")
        for item in value:
            _feed(digest, item)
        digest.update(b")")
    else:
        digest.update(repr(value).encode())


def _group(calls):
    """The SHA-256 of each call's result, refusal and warnings, in order."""
    digest = hashlib.sha256()
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                _feed(digest, call())
            except Exception as exc:  # any refusal, typed or not, is part of the output
                digest.update(f"{type(exc).__name__}: {exc}".encode())
        for warning in caught:
            digest.update(f"{warning.category.__name__}: {warning.message}".encode())
    return digest.hexdigest()


def _pairs(oscillator):
    """*PAIRS* seeded pairs: ħΩ log-uniform in 5..500 meV, ΔQ uniform in ±2 amu^(1/2)·Å."""
    rng = np.random.default_rng(SEED)
    energies = 10.0 ** rng.uniform(math.log10(5.0), math.log10(500.0), size=(PAIRS, 2))
    displacements = rng.uniform(-2.0, 2.0, size=PAIRS)
    return [oscillator.OscillatorPair(float(e_i), float(e_f), float(dq))
            for (e_i, e_f), dq in zip(energies, displacements)]


def _sweep_grid(current):
    return [current * scale for scale in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)] + list(SWEEP_EXTRAS)


def _transient_groups(transient):
    """CSV bytes and the arrays read back, seeded fits, FitError traces and histogram refusals."""
    from multiphonon import FitError

    groups = {}
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "histogram.csv"

        def round_trip(histogram):
            transient.write_histogram_csv(histogram, path)
            back = transient.read_histogram_csv(path)
            return path.read_bytes(), back.bin_edges, back.counts

        # The float counts' longer rows first: the integer counts' file overwrites a longer one.
        for bins in CSV_BINS:
            simulated = transient.simulate_transient(0.885, 1e4, 10.0, bins, 10.0, bins)
            expected = transient.TransientHistogram(
                simulated.bin_edges, 10.0 + 1e4 * np.exp(-simulated.bin_centers / 0.885))
            groups[f"transient/csv/{bins}"] = _group(
                (lambda histogram=histogram: round_trip(histogram)) for histogram in (expected, simulated))

    groups["transient/fit_lifetime"] = _group(
        (lambda args=args, window=window: transient.fit_lifetime(transient.simulate_transient(*args), window))
        for args, window in FITS)

    def fit_error(args):
        try:
            transient.fit_lifetime(transient.simulate_transient(*args))
        except FitError as exc:
            return str(exc), exc.trace
        return "no FitError"

    groups["transient/FitError"] = _group((lambda args=args: fit_error(args)) for args in FIT_ERRORS)
    groups["transient/TransientHistogram"] = _group(
        (lambda edges=edges, counts=counts: transient.TransientHistogram(edges, counts))
        for edges, counts in BAD_HISTOGRAMS)
    return groups


def digests():
    """{group: sha256} over every output group."""
    from multiphonon import oscillator, quadrature, rates, transient
    from multiphonon.modes import load_reference_dataset

    pairs = _pairs(oscillator)
    groups = {}
    for m, n in TABLE_SHAPES:
        groups[f"fc_overlap_matrix/{m}x{n}"] = _group(
            (lambda pair=pair, m=m, n=n: oscillator.fc_overlap_matrix(pair, m, n)) for pair in pairs)
    for m, n in ORACLE_SHAPES:
        groups[f"quadrature_overlap_table/{m}x{n}"] = _group(
            (lambda pair=pair, m=m, n=n: quadrature.quadrature_overlap_table(pair, m, n)) for pair in pairs)
    groups["transition_moments/512"] = _group(
        (lambda pair=pair: oscillator.transition_moments(pair, 512)) for pair in pairs)

    extremes = [oscillator.OscillatorPair(e_i, e_f, dq) for e_i in EXTREME_ENERGIES
                for e_f in EXTREME_ENERGIES for dq in EXTREME_DISPLACEMENTS]
    groups["extremes/fc_overlap_matrix"] = _group(
        (lambda pair=pair, m=m, n=n: oscillator.fc_overlap_matrix(pair, min(m, n), n))
        for pair in extremes for n in EXTREME_N for m in (1, 2))
    groups["extremes/quadrature_overlap_table"] = _group(
        (lambda pair=pair, n=n: quadrature.quadrature_overlap_table(pair, min(n, 2), n))
        for pair in extremes for n in EXTREME_N)

    def moment_rows(pair, n):
        with np.errstate(all="ignore"):
            return oscillator._moment_rows(pair.energy_initial, pair.energy_final, pair.displacement, n)

    groups["extremes/_moment_rows"] = _group(
        (lambda pair=pair, n=n: moment_rows(pair, n)) for pair in extremes for n in EXTREME_N)

    _, configs = load_reference_dataset()
    cases = [(config, mode.label) for config in configs for mode in config.modes]
    groups["nonradiative_rate"] = _group(
        (lambda config=config, label=label: rates.nonradiative_rate(config, label)) for config, label in cases)

    def varied_rate(config, label, field, value):
        return rates.nonradiative_rate(config.with_mode(replace(config.mode(label), **{field: value})), label)

    groups["extremes/nonradiative_rate"] = _group(
        (lambda config=config, label=label, field=field, value=value: varied_rate(config, label, field, value))
        for config, label in cases for field in ("energy_ground", "energy_excited", "displacement")
        for value in (5e-324, 1e-310, 1e308, -0.0))
    for parameter in rates.SWEEP_PARAMETERS:
        def sweep(config, label, parameter=parameter):
            current = (config.zpl_energy if parameter == "zpl_energy"
                       else getattr(config.mode(label), parameter))
            return rates.rate_sweep(config, label, parameter, _sweep_grid(current))

        groups[f"rate_sweep/{parameter}"] = _group(
            (lambda config=config, label=label: sweep(config, label)) for config, label in cases)

    def one_row_chunks(config, label):
        mode = config.mode(label)
        grids = [(parameter, [config.zpl_energy if parameter == "zpl_energy" else getattr(mode, parameter)])
                 for parameter in rates.SWEEP_PARAMETERS] + [("energy_ground", ONE_ROW_GROUND)]
        return [rates.rate_sweep(config, label, parameter, grid) for parameter, grid in grids]

    groups["rate_sweep/one-row-chunks"] = _group(
        (lambda config=config, label=label: one_row_chunks(config, label)) for config, label in cases)
    groups.update(_transient_groups(transient))
    return groups


def main(argv):
    source = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(source.resolve()))
    import multiphonon

    if pathlib.Path(multiphonon.__file__).resolve().parents[1] != source.resolve():
        sys.exit(f"multiphonon imported from {multiphonon.__file__}, not from {source}")
    for group, digest in digests().items():
        print(group, digest)


if __name__ == "__main__":
    main(sys.argv[1:])
