"""T = 0 multiphonon nonradiative decay rate in the single-mode model.

The rate for a transition with electron-phonon coupling W, final-state
phonon ladder n·ħΩ_g, and transition moments M_n = <χ_e0|Q − Q_e|χ_gn>
(positions from the initial-state equilibrium; see
``oscillator.transition_moments``) is

    Γ_NR = (2π/ħ) W² Σ_n M_n² G(E_ZPL - n ħΩ_g; σ),

where G is a normalized Gaussian standing in for the energy-conserving
delta function, with broadening fixed to σ = ħΩ_e/2.  The phonon sum is
truncated once the Gaussian weight is negligible (10σ past the ZPL
energy, where the weight is below 2e-22).

``nonradiative_rate`` runs ``_rate_rows`` on one row and ``rate_sweep`` on each
chunk of valid grid points.  A correctly rounded sum is unique, so every sweep
row equals ``nonradiative_rate`` of its own configuration exactly: a single
rate is summed by one ``math.fsum``, a sweep chunk by one error-free pairwise
tree, certified row by row, with ``math.fsum`` for the rows it cannot certify
(``_row_totals``).  A sum of finite terms past the float range is inf on both
routes, and refused.  Sweep rows are grouped by phonon cut-off into chunks of
at most ``_SWEEP_CHUNK_CELLS`` terms, which bounds memory.
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
    _finite_result,
    _number,
)
from .oscillator import MAX_CERTIFIED_N, _moment_rows, _zero_point_length

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


@dataclass(frozen=True, init=False)
class SweepPoint:
    """One row of a parameter sweep; ``error`` is set when the point failed."""

    parameter: str
    value: float
    rate: float | None
    n_max: int | None
    sigma: float | None
    error: str | None = None

    def __init__(self, parameter, value, rate, n_max, sigma, error=None):
        # Item stores in field order keep the class's shared key table (``dict.update`` would
        # not); a generated frozen __init__ makes six object.__setattr__ calls, 4x slower.
        fields = self.__dict__
        fields["parameter"], fields["value"], fields["rate"] = parameter, value, rate
        fields["n_max"], fields["sigma"], fields["error"] = n_max, sigma, error


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
        :class:`CapabilityError` if it overflows double precision (σ below about 2.2e-309).
    """
    sigma = _number(sigma, "sigma", gt=0.0)
    z = _number(detuning, "detuning") / sigma
    return _finite_result(math.exp(-0.5 * z * z) / (sigma * _SQRT_TWO_PI), "the Gaussian weight")


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


def _fsum(terms):
    """``math.fsum``, with a total of finite terms past the float range read as inf."""
    try:
        return math.fsum(terms)
    except OverflowError:  # "intermediate overflow": refused as not finite, not raised
        return math.inf


def _row_totals(contribution, n_max):
    """Correctly rounded sum of each column's first n_max + 1 terms, all ≥ 0.

    All columns go through one pairwise tree (Ogita, Rump & Oishi, SIAM J. Sci.
    Comput. 26, 2005).  Terms past a column's n_max are zeroed and the rows
    padded with zeros to m = 2^L.  Each of the L levels adds row i to row
    i + m/2 by Knuth's TwoSum, h = fl(a + b) with the exact error
    e = a + b − h, and the low part l = fl(fl(l_a + l_b) + e) (l = e on the
    first level) gathers the errors.  At the root h + E = S exactly, with E the
    sum of every e, and r = fl(h + l) with its exact remainder t = h + l − r
    gives S − r = t + (E − l).

    The bound on δ = |E − l|, with u = 2^-53 and γ_k = ku/(1 − ku): every h is
    ≥ 0, each level's h sum is at most (1 + u) times the one below and
    |e| ≤ u(a + b), so Σ|e| ≤ L·u·(1 + u)^L·S.  Each e meets at most 2L − 1
    roundings on its way into l, so δ ≤ γ_{2L−1}·Σ|e| ≈ 2L²u²S, and with
    S ≤ r + |t| + δ and |t| ≤ u·r/(1 − u), δ ≤ 2L²u²r·(1 + 200u) for any
    L ≤ 64.  Underflow changes none of this: TwoSum stays exact, and an
    addition with a subnormal result is exact.

    The certificate, with c = 3: g = r − pred(r) is exact, and g ≥ u·r for a
    normal r.  If |t| < fl((1/2 − cL²u)·g), then |t| + δ < g/2: the product
    is exact where it is normal (g is a power of two), both sides are
    multiples of the least subnormal where it is not, and the rounding of
    1/2 − cL²u (≤ u/4) stays inside the margin the 3 leaves over the 2.  So S
    lies strictly nearer r than any other float, the gap above r being never
    smaller than g, and r = fl(S), which ``math.fsum`` returns too.  The other
    columns keep ``math.fsum``, top down: exact ties, a power of two with
    |t| ≥ g/2, an all-zero or subnormal r, and inf or NaN terms or an
    overflowing total, whose remainder is NaN.  Under the caller's
    ``np.errstate``.
    """
    n_max = np.asarray(n_max)
    rows = len(contribution)
    levels = (rows - 1).bit_length()
    hi = np.zeros((1 << levels, contribution.shape[1]))
    np.copyto(hi[:rows], contribution, where=np.arange(rows)[:, None] <= n_max)
    lo = np.zeros((1, hi.shape[1]))  # the low part of a single row
    for level in range(levels):
        half = len(hi) // 2
        a, b = hi[:half], hi[half:]
        hi = a + b
        z = hi - a
        error = (a - (hi - z)) + (b - z)
        lo = lo[:half] + lo[half:] + error if level else error
    hi, lo = hi[0], lo[0]
    total = hi + lo
    z = total - hi
    remainder = (hi - (total - z)) + (lo - z)
    gap = total - np.nextafter(total, 0.0)
    limit = 0.5 - 3.0 * levels * levels * sys.float_info.epsilon / 2.0  # c = 3
    certified = (total >= sys.float_info.min) & (np.abs(remainder) < limit * gap)
    for column in np.flatnonzero(~certified).tolist():
        total[column] = _fsum(contribution[n_max[column]::-1, column].tolist())
    return total


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
    length = _zero_point_length(energy_excited) + abs(displacement)
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


def _rate_rows(energy_excited, row, n_max):
    """The rate pipeline for a batch of R rows, from moments to refusal.

    *row* maps ``zpl_energy``, ``energy_ground``, ``displacement`` and ``coupling`` to
    floats or arrays of length R; *n_max* is the int cut-off of one row or the array of R
    cut-offs, ascending, and the moments run to the last (a prefix serves a smaller one).
    Returns the kernel's ``(moment_sq, weight, contribution)``, the correctly rounded
    totals (s⁻¹) and the ``_uncertified`` mask.  One row is summed by one top-down
    ``_fsum`` and checked on floats, cheaper than ``_row_totals``'s tree and arrays, with
    the same bits; its total is a float.  Under the caller's ``np.errstate``.
    """
    ground, displacement, coupling = row["energy_ground"], row["displacement"], row["coupling"]
    one = np.ndim(n_max) == 0
    s0, s1 = _moment_rows(energy_excited, ground, displacement, n_max if one else n_max[-1])
    moments = _zero_point_length(energy_excited) * s1
    columns = _rate_terms(moments, energy_excited, ground, coupling, row["zpl_energy"])
    totals = _fsum(columns[2][::-1, 0].tolist()) if one else _row_totals(columns[2], n_max)
    s00 = s0[0, 0].item() if one else s0[0]
    return columns, totals, _uncertified(totals, n_max, coupling, displacement, energy_excited, s00)


def nonradiative_rate(config, mode_label):
    """T = 0 nonradiative decay rate through one vibrational mode.

    Parameters
    ----------
    config : DefectConfiguration
    mode_label : str
        Which of the configuration's modes carries the decay.

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
        row = {**vars(mode), "zpl_energy": config.zpl_energy}
        columns, total, refused = _rate_rows(mode.energy_excited, row, n_max)
        if refused:
            raise CapabilityError(
                f"the rate through mode {mode_label!r} underflows double precision: flushed "
                f"terms or a subnormal S₀₀ could move it by > eps (got {total!r} s⁻¹, W > 0)"
                if math.isfinite(total) else f"the rate through mode {mode_label!r} is not "
                f"finite in double precision (got {total!r} s⁻¹)"
            )
    moment_sq, weight, contribution = (column[:, 0].tolist() for column in columns)
    terms = tuple(map(RateTerm, range(n_max + 1), moment_sq, weight, contribution))
    return RateResult(total_rate=total, terms=terms, n_max_used=n_max, sigma=sigma)


def isotope_rate_ratio(config_a, config_b, mode_label):
    """Ratio Γ_NR(config_a) / Γ_NR(config_b) for the same mode label."""
    rate_a = nonradiative_rate(config_a, mode_label)
    rate_b = nonradiative_rate(config_b, mode_label)
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


def rate_sweep(config, mode_label, parameter, grid):
    """Nonradiative rate across a grid of one model parameter.

    Each grid point is evaluated independently; a failing point is
    reported in its row's ``error`` field instead of aborting the sweep.
    Output order always matches input order.  Grid entries must be real
    numbers (not ``bool``); any other entry fails its row and is reported
    as given.

    The valid rows run through ``_rate_rows`` chunk by chunk (see the module docstring);
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
    entries = [value if type(value) is float else _sweep_value(value) for value in grid]
    values = np.array(entries, dtype=float)  # None, a non-real entry, becomes NaN
    # E_ZPL belongs to the configuration; the other sweep parameters name fields of the mode.
    rows = {**vars(mode), "zpl_energy": config.zpl_energy, parameter: values}
    sigma = mode.energy_excited / 2.0
    rates = np.full(len(grid), math.nan)  # NaN marks a failing row
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        n_max = _cut_off(rows["zpl_energy"], mode.energy_excited, rows["energy_ground"])
        valid = np.isfinite(values) & (n_max <= MAX_CERTIFIED_N)
        for key, bound in _BOUNDS[parameter].items():  # "gt", "ge" or "le", as in _number
            valid &= getattr(operator, key)(values, bound)
        n_max = np.where(valid, n_max, 0).astype(int)

        order = np.flatnonzero(valid)[np.argsort(n_max[valid], kind="stable")]
        for chunk in _chunks(order, n_max):
            _, totals, refused = _rate_rows(mode.energy_excited,
                                            {**rows, parameter: values[chunk]}, n_max[chunk])
            rates[chunk[~refused]] = totals[~refused]

    def rerun(value):
        """A failing row, rebuilt through the constructors and nonradiative_rate."""
        try:
            varied = (replace(config, zpl_energy=value) if parameter == "zpl_energy"
                      else config.with_mode(replace(mode, **{parameter: value})))
            result = nonradiative_rate(varied, mode_label)
        except MultiphononError as exc:
            return SweepPoint(parameter, value, None, None, None, error=str(exc))
        return SweepPoint(parameter, value, result.total_rate, result.n_max_used, result.sigma)

    # A failing row (a NaN rate) is rerun; a non-real entry (None) as given, so the
    # constructors report its type.
    return [
        SweepPoint(parameter, value, rate, cut_off, sigma) if rate == rate
        else rerun(entry if value is None else value)
        for entry, value, rate, cut_off in zip(grid, entries, rates.tolist(), n_max.tolist())
    ]


def sweep_grid(start, stop, steps):
    """Inclusive linear grid with exactly *steps* points, as Python floats."""
    start, stop = _number(start, "start"), _number(stop, "stop")
    steps = _number(steps, "steps", integer=True, ge=1)
    if steps == 1:
        return [start]
    if math.isinf(stop - start):  # linspace would overflow; quarters fit, and /4, *4 are exact here
        return (4.0 * np.linspace(start / 4.0, stop / 4.0, steps)).tolist()
    return np.linspace(start, stop, steps).tolist()
