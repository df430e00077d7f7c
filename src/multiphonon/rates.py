"""T = 0 multiphonon nonradiative decay rate in the single-mode model.

The rate for a transition with electron-phonon coupling W, final-state
phonon ladder n·ħΩ_g, and transition moments M_n is

    Γ_NR = (2π/ħ) W² Σ_n M_n² G(E_ZPL - n ħΩ_g; σ),

where G is a normalized Gaussian standing in for the energy-conserving
delta function, with broadening fixed to σ = ħΩ_e/2.  The phonon sum is
truncated once the Gaussian weight is negligible (10σ past the ZPL
energy, where the weight is below 2e-22).

One kernel, ``_rate_terms``, evaluates the terms for a batch of rows at
once.  ``nonradiative_rate`` is the kernel on one row; ``rate_sweep``
runs all valid grid points through it in one batched pass, so every
sweep row equals ``nonradiative_rate`` of its own configuration exactly;
both sum a row's terms top down by the correctly rounded ``math.fsum``.
Sweep rows are grouped by phonon cut-off into chunks of at most
``_SWEEP_CHUNK_CELLS`` terms, which bounds memory.
"""

import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._tables import _BOUNDS, SWEEP_CSV_HEADER, SWEEP_PARAMETERS  # noqa: F401  (re-exported)
from .constants import HBAR_MEV_S
from .errors import (
    _REAL_TYPES,
    CapabilityError,
    DegeneracyError,
    DomainError,
    MultiphononError,
    _number,
)
from .oscillator import MAX_CERTIFIED_N, REFERENCE_FINAL, REFERENCE_INITIAL
from .oscillator import _moments, ho_length_scale

# Phonon terms × rows evaluated per batched pass of ``rate_sweep``; bounds
# the kernel's temporary arrays to about 64 kB each.
_SWEEP_CHUNK_CELLS = 1 << 13

_TWO_PI_OVER_HBAR = 2.0 * math.pi / HBAR_MEV_S
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


class RateTerm(NamedTuple):
    """One phonon-number contribution to the total rate."""

    n: int
    moment_sq: float  # amu·Å²
    delta_weight: float  # meV⁻¹
    contribution: float  # s⁻¹


@dataclass(frozen=True)
class RateResult:
    """Nonradiative rate with its per-phonon-number breakdown."""

    total_rate: float  # s⁻¹
    terms: tuple  # of RateTerm
    n_max_used: int
    sigma: float  # broadening in meV


@dataclass(frozen=True)
class SweepPoint:
    """One row of a parameter sweep; ``error`` is set when the point failed."""

    parameter: str
    value: float
    rate: float | None
    n_max: int | None
    sigma: float | None
    error: str | None = None


def gaussian_delta(detuning, sigma):
    """Normalized Gaussian surrogate for the energy delta function.

    Parameters
    ----------
    detuning : float
        Energy mismatch in meV.
    sigma : float
        Broadening in meV, positive.

    Returns
    -------
    float
        exp(-detuning²/(2σ²)) / (σ·sqrt(2π)) in meV⁻¹; even in detuning.
    """
    sigma = _number(sigma, "sigma", gt=0.0)
    z = _number(detuning, "detuning") / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def _rate_terms(moments, energy_excited, energy_ground, coupling, zpl_energy):
    """The rate kernel: per-term rate tables for a batch of rows.

    Parameters
    ----------
    moments : numpy.ndarray
        Transition moments M_0 .. M_N, shape ``(N + 1, G)`` with G equal
        to the number of rows R, or 1 when every row shares the pair.
    energy_excited, energy_ground, coupling, zpl_energy : float or numpy.ndarray
        Per-row parameters, each a float or an array of length R.

    Returns
    -------
    (moment_sq, weight, contribution)
        M_n² (amu·Å², shaped like ``moments``), the Gaussian weight
        G(E_ZPL − n ħΩ_g; σ) (meV⁻¹) and (2π/ħ) W² M_n² G (s⁻¹), the last
        of shape ``(N + 1, R)``.  The arithmetic is that of
        :func:`gaussian_delta`, term by term.
    """
    moment_sq = moments * moments
    sigma = energy_excited / 2.0
    z = (zpl_energy - np.arange(len(moments), dtype=float)[:, None] * energy_ground) / sigma
    weight = np.exp(-0.5 * z * z) / (sigma * _SQRT_TWO_PI)
    contribution = _TWO_PI_OVER_HBAR * (coupling * coupling) * moment_sq * weight
    return moment_sq, weight, contribution


def _row_totals(contribution, n_max):
    """Correctly rounded, hence order-free, sum of each row's first n_max + 1 terms.

    Top down, ``math.fsum`` meets the peak before the underflowed low-n terms.
    """
    return [math.fsum(column[k::-1].tolist()) for column, k in zip(contribution.T, n_max)]


def _uncertified(total, n_max, coupling, displacement, energy_excited, s00):
    """Whether a rate's factors, flushed below the normal range, could move it by > eps.

    A term P·M_n²·G_n (P = (2π/ħ)W²) in which P, M_n², exp(-z²/2), G_n, P·M_n² or
    the term itself fell below tiny = float_info.min is at most tiny times the bounds
    of its other factors: G_max = 1/(σ√(2π)) ≥ G_n/exp(-z²/2) and M² = (L + |ΔQ|)² ≥
    M_n², as |S| ≤ 1.  Each such product is a term of (1 + P)(1 + M²)(1 + G_max), so,
    doubled for rounding, 2(n_max + 1)·tiny·(1 + P)(1 + M²)(1 + G_max) bounds all
    flushed terms together.  A subnormal *s00*, the overlap recurrence's start, would
    carry its rounding error into every M_n: it is refused too.  W = 0 gives exact
    zeros and is never refused; a total that is not finite (inf or NaN) always is.
    Floats or arrays, under the caller's ``np.errstate``.
    """
    power = _TWO_PI_OVER_HBAR * (coupling * coupling)
    length = ho_length_scale(energy_excited) + abs(displacement)
    peak = 1.0 / (np.float64(energy_excited) / 2.0 * _SQRT_TWO_PI)  # σ = 0: inf, not raised
    bound = 2.0 * (n_max + 1) * (1.0 + power) * (1.0 + length * length) * (1.0 + peak)
    flushed = bound * sys.float_info.min > sys.float_info.epsilon * total
    return ~np.isfinite(total) | (coupling > 0.0) & (flushed | (s00 < sys.float_info.min))


def _cut_off(zpl_energy, energy_excited, energy_ground):
    """⌈(E_ZPL + 10σ)/ħΩ_g⌉, σ = ħΩ_e/2: the last phonon number summed; inf on overflow."""
    return np.ceil((zpl_energy + 10.0 * (energy_excited / 2.0)) / energy_ground)


def _chunks(rows, n_max):
    """Split rows sorted by n_max into runs of at most _SWEEP_CHUNK_CELLS terms.

    A run's last row has the largest cut-off, so it sets the run's size;
    a row too large for the budget forms a run of its own.
    """
    start = 0
    while start < len(rows):
        cells = (n_max[rows[start:]] + 1) * np.arange(1, len(rows) - start + 1)
        stop = start + max(1, int(np.searchsorted(cells, _SWEEP_CHUNK_CELLS, side="right")))
        yield rows[start:stop]
        start = stop


def nonradiative_rate(config, mode_label, moment_reference=REFERENCE_INITIAL):
    """T = 0 nonradiative decay rate through one vibrational mode.

    Parameters
    ----------
    config : DefectConfiguration
    mode_label : str
        Which of the configuration's modes carries the decay.
    moment_reference : str
        Reference position for the transition moments; the default
        ("initial") measures the phonon position operator from the
        initial-state equilibrium.

    Returns
    -------
    RateResult
        Total rate in s⁻¹ and the list of per-n terms that sum to it.

    Raises
    ------
    CapabilityError
        If the phonon sum needs n > 512 or the total is not finite, or if W > 0 and
        terms flushed below 2.2e-308, or a subnormal S₀₀, could move it by > eps.
    """
    mode = config.mode(mode_label)
    sigma = mode.energy_excited / 2.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        n_max = _cut_off(config.zpl_energy, mode.energy_excited, mode.energy_ground)
        if not n_max <= MAX_CERTIFIED_N:  # an infinite cut-off too
            raise CapabilityError(f"quantum number {n_max:.0f} exceeds the certified "
                                  f"recursion range (n <= {MAX_CERTIFIED_N})")
        n_max = int(n_max)
        moments, s00 = _moments(
            mode.energy_excited, mode.energy_ground, mode.displacement, n_max, moment_reference
        )
        columns = _rate_terms(
            moments, mode.energy_excited, mode.energy_ground, mode.coupling, config.zpl_energy
        )
        moment_sq, weight, contribution = (column[:, 0].tolist() for column in columns)
        total = math.fsum(contribution[::-1])  # top down, as in _row_totals
        if _uncertified(total, n_max, mode.coupling, mode.displacement, mode.energy_excited,
                        s00.item()):
            raise CapabilityError(
                f"the rate through mode {mode_label!r} underflows double precision: flushed "
                f"terms or a subnormal S₀₀ could move it by > eps (got {total!r} s⁻¹, W > 0)"
                if math.isfinite(total) else f"the rate through mode {mode_label!r} is not "
                f"finite in double precision (got {total!r} s⁻¹)"
            )
    terms = tuple(map(RateTerm, range(n_max + 1), moment_sq, weight, contribution))
    return RateResult(total_rate=total, terms=terms, n_max_used=n_max, sigma=sigma)


def isotope_rate_ratio(config_a, config_b, mode_label, moment_reference=REFERENCE_INITIAL):
    """Ratio Γ_NR(config_a) / Γ_NR(config_b) for the same mode label."""
    rate_a = nonradiative_rate(config_a, mode_label, moment_reference=moment_reference)
    rate_b = nonradiative_rate(config_b, mode_label, moment_reference=moment_reference)
    if rate_b.total_rate == 0.0:
        raise DegeneracyError(
            f"nonradiative rate of {config_b.variant_label!r} is exactly zero; "
            "the isotope ratio is undefined"
        )
    return rate_a.total_rate / rate_b.total_rate


def _sweep_value(value):
    """A grid entry as a float, or ``None`` if it is not a real number.

    ``bool`` is not a number.  Ints beyond the float range become +-inf, so
    their rows fail as non-finite.
    """
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def rate_sweep(config, mode_label, parameter, grid, moment_reference=REFERENCE_INITIAL):
    """Nonradiative rate across a grid of one model parameter.

    Each grid point is evaluated independently; a failing point is
    reported in its row's ``error`` field instead of aborting the sweep.
    Output order always matches input order.  Grid entries must be real
    numbers (not ``bool``); any other entry fails its row and is reported
    as given.

    The valid rows run through the batched kernel (see the module docstring);
    the failing rows are rebuilt one by one to report their errors.

    Returns
    -------
    list of SweepPoint
    """
    if parameter not in SWEEP_PARAMETERS:
        raise DomainError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    mode = config.mode(mode_label)
    grid = list(grid)
    entries = [_sweep_value(value) for value in grid]
    values = np.array(entries, dtype=float)  # None, a non-real entry, becomes NaN
    # E_ZPL belongs to the configuration; the other sweep parameters name fields of the mode.
    fixed = {p: config.zpl_energy if p == "zpl_energy" else getattr(mode, p)
             for p in SWEEP_PARAMETERS}
    swept = dict(fixed, **{parameter: values})
    sigma = mode.energy_excited / 2.0
    rates = {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        n_max = _cut_off(swept["zpl_energy"], mode.energy_excited, swept["energy_ground"])
        valid = np.isfinite(values) & (n_max <= MAX_CERTIFIED_N)
        for key, bound in _BOUNDS[parameter].items():  # "gt", "ge" or "le", as in _number
            valid &= getattr(operator, key)(values, bound)
        valid &= moment_reference in (REFERENCE_INITIAL, REFERENCE_FINAL)
        n_max = np.where(valid, n_max, 0).astype(int)

        order = np.flatnonzero(valid)
        order = order[np.argsort(n_max[order], kind="stable")]
        # The oscillator pair does not depend on E_ZPL or W: one moment table
        # at the largest cut-off serves every row, by the prefix property.
        shared = parameter in ("zpl_energy", "coupling")
        if shared and len(order):
            top = int(n_max[order[-1]])
            pair_moments, pair_s00 = _moments(
                mode.energy_excited, mode.energy_ground, mode.displacement, top, moment_reference
            )
        for chunk in _chunks(order, n_max):
            row = dict(fixed, **{parameter: values[chunk]})
            top = int(n_max[chunk[-1]])
            if shared:
                moments, s00 = pair_moments[: top + 1], pair_s00
            else:
                moments, s00 = _moments(
                    mode.energy_excited, row["energy_ground"], row["displacement"], top,
                    moment_reference,
                )
            _, _, contribution = _rate_terms(
                moments, mode.energy_excited, row["energy_ground"], row["coupling"],
                row["zpl_energy"],
            )
            totals = np.array(_row_totals(contribution, n_max[chunk]))
            kept = ~_uncertified(totals, n_max[chunk], row["coupling"], row["displacement"],
                                 mode.energy_excited, s00)
            rates.update(zip(chunk[kept].tolist(), totals[kept].tolist()))

    points = []
    for index, (value, cut_off) in enumerate(zip(entries, n_max.tolist())):
        if index in rates:
            points.append(SweepPoint(parameter, value, rates[index], cut_off, sigma))
            continue
        if value is None:  # the constructors report the entry's type
            value = grid[index]
        try:
            varied = (replace(config, zpl_energy=value) if parameter == "zpl_energy"
                      else config.with_mode(replace(mode, **{parameter: value})))
            result = nonradiative_rate(varied, mode_label, moment_reference=moment_reference)
            points.append(
                SweepPoint(parameter, value, result.total_rate, result.n_max_used, result.sigma)
            )
        except MultiphononError as exc:
            points.append(SweepPoint(parameter, value, None, None, None, error=str(exc)))
    return points


def sweep_grid(start, stop, steps):
    """Inclusive linear grid with exactly *steps* points."""
    start, stop = _number(start, "start"), _number(stop, "stop")
    steps = _number(steps, "steps", integer=True, ge=1)
    if steps == 1:
        return [start]
    return list(np.linspace(start, stop, steps))
