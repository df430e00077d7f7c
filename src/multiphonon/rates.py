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
sweep row equals ``nonradiative_rate`` of its own configuration exactly.
Sweep rows are grouped by phonon cut-off into chunks of at most
``_SWEEP_CHUNK_CELLS`` terms, which bounds memory.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .constants import HBAR_MEV_S
from .errors import CapabilityError, DegeneracyError, DomainError, MultiphononError
from .oscillator import MAX_CERTIFIED_N, REFERENCE_FINAL, REFERENCE_INITIAL, _moments

SWEEP_PARAMETERS = ("zpl_energy", "displacement", "coupling", "energy_ground")

SWEEP_CSV_HEADER = "parameter,value,rate_per_s,n_max,sigma_meV"

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
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be a positive finite broadening, got {sigma!r}")
    if not math.isfinite(detuning):
        raise DomainError(f"detuning must be finite, got {detuning!r}")
    z = detuning / sigma
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
    """Correctly rounded sum of each row's first n_max + 1 terms."""
    return [math.fsum(column[: k + 1].tolist()) for column, k in zip(contribution.T, n_max)]


def _underflows(total, coupling):
    # With W > 0 the true rate is strictly positive; a zero or subnormal
    # total means the float64 terms underflowed.  Floats or arrays.
    return (coupling > 0.0) & (total < sys.float_info.min)


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
        If the phonon sum needs n > 512, or if W > 0 and the rate
        underflows double precision (Huang-Rhys factors of several hundred).
    """
    mode = config.mode(mode_label)
    sigma = mode.energy_excited / 2.0
    n_max = int(math.ceil((config.zpl_energy + 10.0 * sigma) / mode.energy_ground))
    moments = _moments(
        mode.energy_excited, mode.energy_ground, mode.displacement, n_max, moment_reference
    )
    columns = _rate_terms(
        moments, mode.energy_excited, mode.energy_ground, mode.coupling, config.zpl_energy
    )
    moment_sq, weight, contribution = (column[:, 0].tolist() for column in columns)
    total = math.fsum(contribution)
    if _underflows(total, mode.coupling):
        raise CapabilityError(
            f"the rate through mode {mode_label!r} underflows double precision "
            f"(got {total!r} s⁻¹ with W > 0)"
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


def _apply_parameter(config, mode_label, parameter, value):
    if parameter == "zpl_energy":
        return replace(config, zpl_energy=value)
    # The other sweep parameters name fields of the mode.
    return config.with_mode(replace(config.mode(mode_label), **{parameter: value}))


def rate_sweep(config, mode_label, parameter, grid, moment_reference=REFERENCE_INITIAL):
    """Nonradiative rate across a grid of one model parameter.

    Each grid point is evaluated independently; a failing point is
    reported in its row's ``error`` field instead of aborting the sweep.
    Output order always matches input order.

    The valid rows run through the same kernel as
    :func:`nonradiative_rate` in one batched pass, so every row equals
    the rate of its own configuration exactly.  Rows are grouped by
    phonon cut-off into chunks of bounded size, which caps memory.  The
    failing rows are rebuilt one by one to report their errors.

    Returns
    -------
    list of SweepPoint
    """
    if parameter not in SWEEP_PARAMETERS:
        raise DomainError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    mode = config.mode(mode_label)
    values = np.array([float(value) for value in grid], dtype=float)
    fixed = {
        "zpl_energy": config.zpl_energy,
        "displacement": mode.displacement,
        "coupling": mode.coupling,
        "energy_ground": mode.energy_ground,
    }
    swept = dict(fixed, **{parameter: values})
    sigma = mode.energy_excited / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n_max = np.ceil((swept["zpl_energy"] + 10.0 * sigma) / swept["energy_ground"])
        valid = np.isfinite(values) & (n_max <= MAX_CERTIFIED_N)
        if parameter == "coupling":
            valid &= values >= 0.0
        elif parameter != "displacement":
            valid &= values > 0.0
    valid &= moment_reference in (REFERENCE_INITIAL, REFERENCE_FINAL)
    n_max = np.where(valid, n_max, 0).astype(int)

    order = np.flatnonzero(valid)
    order = order[np.argsort(n_max[order], kind="stable")]
    # The oscillator pair does not depend on E_ZPL or W: one moment table
    # at the largest cut-off serves every row, by the prefix property.
    shared = parameter in ("zpl_energy", "coupling")
    if shared and len(order):
        top = int(n_max[order[-1]])
        pair_moments = _moments(
            mode.energy_excited, mode.energy_ground, mode.displacement, top, moment_reference
        )
    rates = {}
    for chunk in _chunks(order, n_max):
        row = dict(fixed, **{parameter: values[chunk]})
        top = int(n_max[chunk[-1]])
        if shared:
            moments = pair_moments[: top + 1]
        else:
            moments = _moments(
                mode.energy_excited, row["energy_ground"], row["displacement"], top,
                moment_reference,
            )
        _, _, contribution = _rate_terms(
            moments, mode.energy_excited, row["energy_ground"], row["coupling"],
            row["zpl_energy"],
        )
        totals = np.array(_row_totals(contribution, n_max[chunk]))
        kept = ~_underflows(totals, row["coupling"])
        rates.update(zip(chunk[kept].tolist(), totals[kept].tolist()))

    points = []
    for index, value in enumerate(values.tolist()):
        if index in rates:
            points.append(
                SweepPoint(parameter, value, rates[index], int(n_max[index]), sigma)
            )
            continue
        try:
            varied = _apply_parameter(config, mode_label, parameter, value)
            result = nonradiative_rate(varied, mode_label, moment_reference=moment_reference)
            points.append(
                SweepPoint(parameter, value, result.total_rate, result.n_max_used, result.sigma)
            )
        except MultiphononError as exc:
            points.append(SweepPoint(parameter, value, None, None, None, error=str(exc)))
    return points


def sweep_grid(start, stop, steps):
    """Inclusive linear grid with exactly *steps* points."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [float(start)]
    return list(np.linspace(float(start), float(stop), int(steps)))
