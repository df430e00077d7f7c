"""Pulsed-excitation decay histograms: simulation and lifetime extraction.

A transient is modelled as counts(t) = A·exp(-t/τ) + B per bin, with
independent Poisson statistics per bin.  The fitter estimates (A, τ, B)
by Poisson-weighted least squares: a log-linear regression on the
background-subtracted counts seeds a damped Gauss-Newton refinement with
inverse-model weights (Fisher scoring for the Poisson likelihood), and
the parameter covariance comes from the curvature of the objective at
the optimum.  A seed past the float range (t·√counts or the amplitude at
t = 0) and a τ variance that is not finite and ≥ 0 raise ``FitError``.

Histograms are CSV: the header ``t_us,counts``, then one row per bin: the center with
``repr``, the count without ``.0`` when integer-valued.  The writer overwrites a file in
place and cuts it to the rows written, after an exception too: ext4 flushes a file truncated
to zero at close, and the next truncation waits.  Not atomic: a killed process may leave old
rows past the new ones; to replace atomically, write a new path and rename it.  The reader
skips blank lines, takes any Python ``float`` syntax and names the physical line of a bad
row.  Numpy's tokenizer parses the file in one pass; a ``float`` loop reads what it refuses.

Times are microseconds throughout this module.
"""

import contextlib
import io
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitError, FitPreconditionError, _number, _read_text

HISTOGRAM_CSV_HEADER = "t_us,counts"

_MAX_ITERATIONS = 100
_RELATIVE_STEP_TOL = 1e-10
_CSV_BLOCK_ROWS = 8192  # rows formatted per write: few calls, bounded memory
# numpy's Poisson sampler refuses larger means ("lam value too large").
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class TransientHistogram:
    """Binned photon counts versus delay after the excitation pulse.

    ``bin_edges`` has one more entry than ``counts`` and must be uniform
    to within 1e-12 relative.  Counts are non-negative; they are integers
    for measured or simulated data but expectation-valued (float) curves
    are accepted for noiseless analysis.  ``metadata`` records amplitude,
    background, and seed when the histogram is synthetic.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("bin_edges must be a 1D array of at least two edges")
        if not np.isfinite(edges).all():
            raise DomainError("bin_edges must be finite")
        if not (edges[1:] > edges[:-1]).all():  # before any difference, which could overflow
            raise DomainError("bin_edges must be strictly increasing")
        # In Python floats an overflow is inf without a warning.  The span bounds every
        # width and the two end pairs every center's sum; it keeps 2**-20 of headroom, as
        # rounding can take the sum of the widths past it.
        (first, second), (penultimate, last) = edges[:2].tolist(), edges[-2:].tolist()
        if not all(map(math.isfinite, ((last - first) * (1.0 + 2.0**-20), first + second,
                                       penultimate + last))):
            raise DomainError("bin_edges overflow double precision: their span or a bin center")
        widths = edges[1:] - edges[:-1]
        # Relative to the time span: a per-width comparison would trip on
        # IEEE representation noise for histograms with many bins.
        if abs(widths - widths.sum() / widths.size).max() > 1e-12 * (last - first):
            raise DomainError("bin widths must be uniform to within 1e-12 relative")
        if counts.ndim != 1 or counts.size != edges.size - 1:
            raise DomainError("counts length must equal the number of bins")
        if not (np.isfinite(counts).all() and counts.min() >= 0):
            raise DomainError("counts must be finite and non-negative")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self):
        return float(np.diff(self.bin_edges).mean())


@dataclass(frozen=True)
class LifetimeFit:
    """Result of a single-exponential-plus-background fit."""

    lifetime_us: float
    lifetime_uncertainty_us: float
    amplitude: float  # counts per bin at t = 0
    background: float  # counts per bin
    fit_quality: float  # reduced Pearson chi-square
    iterations: int


def simulate_transient(lifetime, amplitude, background, n_bins, t_max, seed):
    """Draw a synthetic decay histogram with Poisson counting noise.

    Each bin's count is Poisson with mean
    background + amplitude·exp(-t_center/lifetime).  Identical inputs and
    seed reproduce the histogram bit for bit.

    Parameters
    ----------
    lifetime : float
        Decay time in µs, positive.
    amplitude : float
        Expected counts per bin at t = 0, non-negative.
    background : float
        Expected counts per bin from uncorrelated events, non-negative;
        amplitude + background is at most numpy's Poisson limit, 9.2e18.
    n_bins : int
        Number of uniform bins (at least 10).
    t_max : float
        Histogram span in µs, positive.
    seed : int
        RNG seed, non-negative.

    Returns
    -------
    TransientHistogram
    """
    lifetime = _number(lifetime, "lifetime", gt=0.0)
    t_max = _number(t_max, "t_max", gt=0.0)
    n_bins = _number(n_bins, "n_bins", integer=True, ge=10)
    amplitude = _number(amplitude, "amplitude", ge=0.0)
    background = _number(background, "background", ge=0.0)
    seed = _number(seed, "seed", integer=True, ge=0)
    # Every mean is at most amplitude + background.
    _number(amplitude + background, "amplitude + background", le=_POISSON_MEAN_MAX)
    edges = np.linspace(0.0, t_max, n_bins + 1)
    # A center that overflows is refused by the histogram; t/τ = inf gives exp(-inf) = 0,
    # the exact decay.
    with np.errstate(over="ignore"):
        centers = 0.5 * (edges[:-1] + edges[1:])
        means = background + amplitude * np.exp(-centers / lifetime)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(means)
    return TransientHistogram(
        bin_edges=edges,
        counts=counts,
        metadata={"amplitude": amplitude, "background": background, "seed": seed},
    )


def _initial_guess(t, counts):
    """Log-linear regression on background-subtracted counts."""
    tail = max(3, t.size // 10)
    background = float(counts[-tail:].mean())  # >= 0, as the counts are
    excess = counts - background
    mask = excess > 0
    if np.count_nonzero(mask) < 2:
        raise FitError("no decaying component above the background estimate", trace=[])
    ty, y = t[mask], excess[mask]
    root_weights = np.sqrt(y)  # y is the inverse variance of log(counts) for Poisson data
    scaled = np.empty((ty.size, 2))  # the design [1, t] times the root weights
    scaled[:, 0] = root_weights
    with np.errstate(over="ignore"):  # inf is refused: lstsq would fail inside LAPACK
        np.multiply(ty, root_weights, out=scaled[:, 1])
    if not np.isfinite(scaled).all():
        raise FitError("the initial guess overflows double precision: t·sqrt(counts)", trace=[])
    solution, *_ = np.linalg.lstsq(scaled, np.log(y) * root_weights, rcond=None)
    intercept, slope = solution
    if slope >= 0:
        raise FitError("counts do not decay over the fit window", trace=[])
    with np.errstate(over="ignore"):  # the amplitude at t = 0, refused if inf
        amplitude = np.exp(intercept)
    if np.isinf(amplitude):
        raise FitError("the initial guess overflows double precision: amplitude at t = 0", trace=[])
    return float(amplitude), float(-1.0 / slope), background


def _model(theta, t):
    """exp(-t/τ) and the model mean μ, floored at 1e-300, at *theta*."""
    amplitude, tau, background = theta
    decay = np.exp(-t / tau)
    return decay, np.maximum(amplitude * decay + background, 1e-300)


def _objective(mu, counts):
    return float(mu.sum() - (counts * np.log(mu)).sum())


def _scoring_terms(theta, t, decay, mu):
    """Jacobian / μ and the Fisher matrix Jᵀ(J/μ) at *theta*, from its :func:`_model`."""
    amplitude, tau, _ = theta
    jacobian = np.empty((t.size, 3))
    jacobian[:, 0] = decay
    column = jacobian[:, 1]
    np.multiply(amplitude, t, out=column)
    column *= decay
    column /= tau**2
    jacobian[:, 2] = 1.0
    weighted = jacobian / mu[:, None]
    return weighted, weighted.T @ jacobian


def _valid(theta):
    amplitude, tau, background = theta.tolist()
    return 0 < amplitude < math.inf and 0 < tau < math.inf and 0 <= background < math.inf


def fit_lifetime(histogram, fit_window=None):
    """Extract the decay lifetime from a transient histogram.

    Parameters
    ----------
    histogram : TransientHistogram
    fit_window : (float, float), optional
        Time range in µs; only bins whose centers fall inside are fitted.
        Defaults to the full histogram.

    Returns
    -------
    LifetimeFit

    Raises
    ------
    FitPreconditionError
        Fewer than 10 bins in the window, counts summing past 1.7e305, or total
        counts above the background estimate not exceeding 100.
    FitError
        Unidentifiable data, an overflowing seed or chi-square, or no convergence (with the trace).
    """
    t_all = histogram.bin_centers
    c_all = histogram.counts
    if fit_window is not None:
        try:
            lo, hi = fit_window
        except (TypeError, ValueError):
            raise DomainError(f"fit_window must be a (lo, hi) pair, got {fit_window!r}") from None
        lo, hi = _number(lo, "fit_window edge"), _number(hi, "fit_window edge")
        if not (lo < hi):
            raise FitPreconditionError(f"degenerate fit window ({lo!r}, {hi!r})")
        mask = (t_all >= lo) & (t_all <= hi)
        t_all, c_all = t_all[mask], c_all[mask]
    if t_all.size < 10:
        raise FitPreconditionError(f"need >= 10 bins in the fit window, found {t_all.size}")
    with np.errstate(over="ignore"):  # refused below: as |log μ| < 710, Σ c·log μ stays finite
        count_total = float(c_all.sum())
    if not count_total <= 1.7e305:
        raise FitPreconditionError(f"the window's counts sum to {count_total!r}, past 1.7e305")

    amplitude0, tau0, background0 = _initial_guess(t_all, c_all)
    excess_total = count_total - c_all.size * background0
    if excess_total <= 100:
        raise FitPreconditionError(
            f"total counts above background ({excess_total:.1f}) must exceed 100"
        )

    theta = np.array([amplitude0, tau0, background0])
    decay, mu = _model(theta, t_all)
    nll = _objective(mu, c_all)
    trace = [(0, tuple(theta), nll)]
    for iteration in range(1, _MAX_ITERATIONS + 1):
        weighted, normal = _scoring_terms(theta, t_all, decay, mu)
        gradient = weighted.T @ (c_all - mu)
        try:
            step = np.linalg.solve(normal, gradient)
        except np.linalg.LinAlgError:
            raise FitError("normal equations are singular; data is unidentifiable", trace)
        factor = 1.0
        accepted = None
        for _ in range(60):
            candidate = theta + factor * step
            if _valid(candidate):
                candidate_decay, candidate_mu = _model(candidate, t_all)
                candidate_nll = _objective(candidate_mu, c_all)
                if candidate_nll <= nll + 1e-12 * abs(nll):
                    accepted = candidate
                    break
            factor *= 0.5
        if accepted is None:
            # Even infinitesimal steps along the scoring direction do not
            # improve: numerically at the optimum.
            break
        rel_change = max(abs(factor * change) / max(abs(value), 1e-300)
                         for change, value in zip(step.tolist(), accepted.tolist()))
        theta, nll, decay, mu = accepted, candidate_nll, candidate_decay, candidate_mu
        trace.append((iteration, tuple(theta), nll))
        if rel_change < _RELATIVE_STEP_TOL:
            break
    else:
        raise FitError(f"no convergence in {_MAX_ITERATIONS} iterations", trace)

    amplitude, tau, background = theta
    _, normal = _scoring_terms(theta, t_all, decay, mu)
    try:
        tau_variance = np.linalg.inv(normal)[1, 1]
    except np.linalg.LinAlgError:  # an exact zero pivot: as singular as a rounded one
        tau_variance = math.nan
    if not 0.0 <= tau_variance < math.inf:
        raise FitError("lifetime variance is not defined at the optimum", trace)
    window_span = float(t_all[-1] - t_all[0])
    tau_sigma = float(np.sqrt(tau_variance))
    if tau_sigma >= window_span:
        raise FitError(
            f"lifetime is unidentifiable: uncertainty {tau_sigma:.3g} µs spans "
            f"the fit window ({window_span:.3g} µs)",
            trace,
        )
    dof = max(t_all.size - 3, 1)
    with np.errstate(over="ignore"):  # a square past the float range: scaled by sqrt(μ) first
        chi2 = float(((c_all - mu) ** 2 / mu).sum())
        if math.isinf(chi2):
            chi2 = float((((c_all - mu) / np.sqrt(mu)) ** 2).sum())
    if math.isinf(chi2):
        raise FitError("the chi-square is not finite in double precision", trace)
    return LifetimeFit(
        lifetime_us=float(tau),
        lifetime_uncertainty_us=tau_sigma,
        amplitude=float(amplitude),
        background=float(background),
        fit_quality=chi2 / dof,
        iterations=iteration,
    )


def write_histogram_csv(histogram, path):
    """Write a histogram as ``t_us,counts`` rows (t at bin centers), in place (see above)."""
    centers, counts = histogram.bin_centers, histogram.counts
    with (open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as handle,  # no O_TRUNC
          contextlib.ExitStack() as on_exit):
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # ftruncate refuses /dev/null
            on_exit.callback(handle.truncate)  # after an exception too: no old rows stay
        handle.write(HISTOGRAM_CSV_HEADER + "\n")
        for start in range(0, centers.size, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            block = counts[start:stop]
            # Bound first: casting a count of 2**63 or more to int64 would warn.
            if block.max() < 2.0**63 and np.array_equal(integers := block.astype(np.int64), block):
                texts = integers.tolist()  # %s of an int is its str
            else:
                texts = [str(int(count)) if count.is_integer() else repr(count)
                         for count in block.tolist()]
            # One %-format per block, fed centers and counts in turn; %r of a
            # float is its repr.
            fields = [None] * (2 * len(texts))
            fields[::2] = centers[start:stop].tolist()
            fields[1::2] = texts
            handle.write("%r,%s\n" * len(texts) % tuple(fields))


def read_histogram_csv(path):
    """Load a ``t_us,counts`` file; :class:`TransientHistogram` checks the bins it infers.

    Text that does not decode raises :class:`DomainError`, as a bad row does.
    """
    text = _read_text(path, "histogram")
    table = None
    header, _, rest = text.lstrip().partition("\n")  # the first non-blank line, and the rest
    # Blank: loadtxt would warn about empty input.  Unlike ``float``, numpy
    # strips the ASCII separators \x1c-\x1f next to a number.
    if (header.rstrip() == HISTOGRAM_CSV_HEADER and rest and not rest.isspace()
            and not any(c in rest for c in "\x1c\x1d\x1e\x1f")):
        with contextlib.suppress(ValueError):  # numpy refused the text
            table = np.loadtxt(io.StringIO(rest), delimiter=",", comments=None, ndmin=2)
    if table is None or table.shape[1] != 2:
        # ``float`` takes ``1_0``, non-ASCII digits...; it also words every error.  Lines
        # end at \n alone, as in a text file: ``splitlines`` also splits at \x1c-\x1e, \x85...
        lines = [(n, line.strip()) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
        if not lines or lines[0][1] != HISTOGRAM_CSV_HEADER:
            raise DomainError(f"histogram file must start with header '{HISTOGRAM_CSV_HEADER}'")
        table = []
        for n, line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 2:
                raise DomainError(f"line {n}: expected 't,counts', got {line!r}")
            try:
                table.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise DomainError(f"line {n}: {exc}") from exc
        table = np.array(table).reshape(-1, 2)
    centers, counts = np.ascontiguousarray(table.T)
    if centers.size < 2:
        raise DomainError("histogram needs at least two bins")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN edges are refused
        width = float(np.diff(centers).mean())
        edges = np.concatenate([centers - 0.5 * width, [centers[-1] + 0.5 * width]])
    return TransientHistogram(bin_edges=edges, counts=counts)
