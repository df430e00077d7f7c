import itertools
import re
import warnings

import numpy as np
import pytest

from multiphonon import transient
from multiphonon import (
    DomainError,
    FitError,
    FitPreconditionError,
    LifetimeFit,
    TransientHistogram,
    fit_lifetime,
    read_histogram_csv,
    simulate_transient,
    write_histogram_csv,
)
from references import noiseless_histogram


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        one = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=42)
        two = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=42)
        assert np.array_equal(one.counts, two.counts)
        assert np.array_equal(one.bin_edges, two.bin_edges)
        three = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=43)
        assert not np.array_equal(one.counts, three.counts)

    def test_zero_amplitude_is_pure_background(self):
        background = 10.0
        n_bins = 10_000
        hist = simulate_transient(1.0, 0.0, background, n_bins, 10.0, seed=1)
        standard_error = np.sqrt(background / n_bins)
        assert abs(hist.counts.mean() - background) < 5 * standard_error

    def test_counts_are_nonnegative_integers(self):
        hist = simulate_transient(0.5, 200.0, 3.0, 64, 5.0, seed=3)
        assert np.all(hist.counts >= 0)
        assert np.all(hist.counts == np.round(hist.counts))

    def test_metadata_recorded(self):
        hist = simulate_transient(0.5, 200.0, 3.0, 64, 5.0, seed=3)
        assert hist.metadata == {"amplitude": 200.0, "background": 3.0, "seed": 3}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lifetime=0.0),
            dict(lifetime=-1.0),
            dict(t_max=0.0),
            dict(n_bins=9),
            dict(amplitude=-1.0),
            dict(background=-0.5),
            dict(seed=-1),
            dict(seed=True),
            dict(seed=1.5),
        ],
    )
    def test_domain_errors(self, kwargs):
        defaults = dict(lifetime=1.0, amplitude=10.0, background=1.0, n_bins=50, t_max=5.0, seed=0)
        defaults.update(kwargs)
        with pytest.raises(DomainError):
            simulate_transient(**defaults)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(amplitude=float("nan")),
            dict(amplitude=float("inf")),
            dict(background=float("nan")),
            dict(background=float("inf")),
            dict(background="1.0"),
        ],
    )
    def test_non_finite_or_non_numeric_rates_are_domain_errors(self, kwargs):
        defaults = dict(lifetime=1.0, amplitude=10.0, background=1.0, n_bins=50, t_max=5.0, seed=0)
        defaults.update(kwargs)
        with pytest.raises(DomainError):
            simulate_transient(**defaults)

    def test_poisson_limit_of_amplitude_plus_background(self):
        # numpy's sampler takes means up to 9.223372006484771e18 and raises
        # ValueError above; the sum bounds every bin's mean.
        limit = 9.223372006484771e18
        hist = simulate_transient(0.885, limit - 5.0, 5.0, 10, 10.0, seed=1)
        assert hist.counts.max() > 1e18
        for amplitude, background in [(np.nextafter(limit, np.inf), 0.0), (1e20, 5.0),
                                      (1.7e308, 1.7e308)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="^amplitude \\+ background must be"):
                    simulate_transient(0.885, amplitude, background, 10, 10.0, seed=1)

    def test_decay_past_the_float_range_is_zero_without_a_warning(self):
        # t/τ overflows to inf in every bin; exp(-inf) = 0 is the exact decay.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = simulate_transient(1e-300, 1.0, 0.0, 200, 1e300, 1)
        assert np.array_equal(hist.counts, np.zeros(200))


class TestHistogramType:
    @pytest.mark.parametrize("edges", [[[0.0, 1.0], [1.0, 2.0]], [0.0], []])
    def test_rejects_two_dimensional_or_single_edge_input(self, edges):
        with pytest.raises(DomainError, match="^bin_edges must be a 1D array of at least two edges$"):
            TransientHistogram(bin_edges=edges, counts=[1.0])

    def test_rejects_nonuniform_bins(self):
        edges = np.array([0.0, 1.0, 2.0, 3.5])
        with pytest.raises(DomainError, match="^bin widths must be uniform to within 1e-12 relative$"):
            TransientHistogram(bin_edges=edges, counts=np.array([1.0, 2.0, 3.0]))

    def test_rejects_decreasing_edges(self):
        with pytest.raises(DomainError, match="^bin_edges must be strictly increasing$"):
            TransientHistogram(bin_edges=np.array([0.0, 2.0, 1.0]), counts=np.array([1.0, 1.0]))

    def test_rejects_length_mismatch_and_negative_counts(self):
        edges = np.linspace(0, 1, 4)
        with pytest.raises(DomainError, match="^counts length must equal the number of bins$"):
            TransientHistogram(bin_edges=edges, counts=np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match="^counts must be finite and non-negative$"):
            TransientHistogram(bin_edges=edges, counts=np.array([1.0, -2.0, 3.0]))

    def test_negative_zero_counts_are_accepted(self):
        hist = TransientHistogram(bin_edges=np.linspace(0, 1, 4), counts=[-0.0, 1.0, -0.0])
        assert hist.counts.tobytes() == np.array([-0.0, 1.0, -0.0]).tobytes()

    @pytest.mark.parametrize("edges, counts, message", [
        # Two equal adjacent edges, -0.0 and 0.0 among them.
        ([0.0, 1.0, 1.0, 2.0], [1.0] * 3, "^bin_edges must be strictly increasing$"),
        ([-0.0, 0.0, 1.0], [1.0] * 2, "^bin_edges must be strictly increasing$"),
        # NaN and ±inf counts.
        ([0.0, 1.0, 2.0], [1.0, np.nan], "^counts must be finite and non-negative$"),
        ([0.0, 1.0, 2.0], [np.inf, 1.0], "^counts must be finite and non-negative$"),
        ([0.0, 1.0, 2.0], [1.0, -np.inf], "^counts must be finite and non-negative$"),
        # A NaN or inf edge in edges that are also out of order: the finite check comes
        # first, and before the counts' length and values.
        ([2.0, np.nan, 1.0], [1.0, 1.0], "^bin_edges must be finite$"),
        ([3.0, 2.0, np.inf], [1.0, 1.0], "^bin_edges must be finite$"),
        ([0.0, np.nan, 2.0], [1.0], "^bin_edges must be finite$"),
        ([0.0, np.nan, 2.0], [-1.0, np.nan], "^bin_edges must be finite$"),
        # Out of order and spanning past the float range: the order is checked first.
        ([1.7e308, -1.7e308, 0.0], [1.0, 1.0], "^bin_edges must be strictly increasing$"),
        ([0.0, 1.7e308, -1.7e308, 0.0], [1.0] * 3, "^bin_edges must be strictly increasing$"),
        # Overflowing and non-uniform: the overflow is named.
        ([-1.7e308, 0.0, 1.0, 1.7e308], [1.0] * 3,
         "^bin_edges overflow double precision: their span or a bin center$"),
        # Non-uniform bins before the counts' length and values.
        ([0.0, 1.0, 3.0], [1.0], "^bin widths must be uniform to within 1e-12 relative$"),
        ([0.0, 1.0, 3.0], [-1.0, 1.0], "^bin widths must be uniform to within 1e-12 relative$"),
        # The length before the values.
        ([0.0, 1.0, 2.0], [-1.0], "^counts length must equal the number of bins$"),
        ([0.0, 1.0, 2.0], [[1.0, 1.0]], "^counts length must equal the number of bins$"),
    ])
    def test_refusal_messages_and_precedence(self, edges, counts, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                TransientHistogram(bin_edges=edges, counts=counts)

    @pytest.mark.parametrize(
        "edges",
        [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 1.0, 2.0], [np.inf, np.inf, np.inf]],
    )
    def test_rejects_non_finite_edges(self, edges):
        with pytest.raises(DomainError, match="^bin_edges must be finite$"):
            TransientHistogram(bin_edges=edges, counts=[1.0, 2.0])

    @pytest.mark.parametrize("edges, overflows", [
        ([-8e307, 0.0, 8e307], False),
        ([-1.7e308, 0.0, 1.7e308], True),  # the span
        ([5e307, 7e307, 9e307], False),
        ([8e307, 1e308, 1.2e308], True),  # the last center's sum
        ([-1.2e308, -1e308, -8e307], True),  # the first center's sum
        # Spans 2**-19 relative below the largest double, and at it, where the
        # sum of 1001 widths overflows: the span keeps 2**-20 of headroom.
        (np.linspace(-1.0, 1.0, 1002) * ((0.5 - 2.0**-20) * np.finfo(float).max), False),
        (np.linspace(-1.0, 1.0, 1002) * (0.5 * np.finfo(float).max), True),
    ])
    def test_edges_whose_span_or_centers_overflow_are_refused(self, edges, overflows):
        counts = np.ones(len(edges) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflows:
                with pytest.raises(DomainError, match="^bin_edges overflow double precision"):
                    TransientHistogram(bin_edges=edges, counts=counts)
            else:
                hist = TransientHistogram(bin_edges=edges, counts=counts)
                assert np.all(np.isfinite(hist.bin_centers)) and np.isfinite(hist.bin_width)

    def test_simulated_span_at_the_edge_of_double_precision(self, tmp_path):
        path = tmp_path / "wide.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = simulate_transient(0.885, 1e4, 5.0, 100, 8e307, seed=1)
            write_histogram_csv(hist, path)
            back = read_histogram_csv(path)
            assert np.array_equal(back.counts, hist.counts)
            assert np.allclose(back.bin_edges, hist.bin_edges, rtol=1e-12, atol=0)
            with pytest.raises(DomainError, match="^bin_edges overflow double precision"):
                simulate_transient(0.885, 1e4, 5.0, 100, 1.7e308, seed=1)


class TestFit:
    def test_noiseless_recovery_is_exact(self):
        hist = noiseless_histogram(4.807, 1e4, 10.0, 500, 50.0)
        fit = fit_lifetime(hist)
        assert fit.lifetime_us == pytest.approx(4.807, rel=1e-6)
        assert fit.amplitude == pytest.approx(1e4, rel=1e-6)
        assert fit.background == pytest.approx(10.0, rel=1e-4)
        assert fit.fit_quality < 1e-12

    def test_statistical_closure_over_seeds(self):
        lifetime = 0.885
        fits = [
            fit_lifetime(simulate_transient(lifetime, 1e4, 10.0, 500, 10.0, seed=seed))
            for seed in range(20)
        ]
        taus = np.array([fit.lifetime_us for fit in fits])
        sigmas = np.array([fit.lifetime_uncertainty_us for fit in fits])
        assert np.all(np.abs(taus - lifetime) <= 3 * sigmas)
        standard_error = taus.std(ddof=1) / np.sqrt(taus.size)
        assert abs(taus.mean() - lifetime) <= 3 * standard_error

    def test_one_sigma_coverage(self):
        lifetime = 4.807
        covered = 0
        for seed in range(100):
            hist = simulate_transient(lifetime, 1e4, 10.0, 500, 50.0, seed=seed)
            fit = fit_lifetime(hist)
            if abs(fit.lifetime_us - lifetime) <= fit.lifetime_uncertainty_us:
                covered += 1
        # Binomial(100, 0.68) within ~3 sigma.
        assert 54 <= covered <= 82

    def test_fit_window_excludes_early_bins(self):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=11)
        fit = fit_lifetime(hist, fit_window=(0.5, 9.0))
        assert fit.lifetime_us == pytest.approx(0.885, rel=0.02)

    def test_time_unit_equivariance(self):
        scale = 1000.0  # e.g. ns instead of µs
        base = fit_lifetime(noiseless_histogram(0.885, 5e3, 5.0, 400, 9.0))
        scaled = fit_lifetime(noiseless_histogram(0.885 * scale, 5e3, 5.0, 400, 9.0 * scale))
        assert scaled.lifetime_us == pytest.approx(scale * base.lifetime_us, rel=1e-8)

    def test_amplitude_equivariance(self):
        factor = 37.0
        base = fit_lifetime(noiseless_histogram(0.885, 5e3, 5.0, 400, 9.0))
        scaled = fit_lifetime(noiseless_histogram(0.885, 5e3 * factor, 5.0 * factor, 400, 9.0))
        assert scaled.lifetime_us == pytest.approx(base.lifetime_us, rel=1e-8)
        assert scaled.amplitude == pytest.approx(factor * base.amplitude, rel=1e-8)
        assert scaled.background == pytest.approx(factor * base.background, rel=1e-6)

    def test_deterministic_fit_for_fixed_seed(self):
        fits = [
            fit_lifetime(simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=5))
            for _ in range(2)
        ]
        assert fits[0] == fits[1]

    def test_pure_background_is_rejected_not_fitted(self):
        hist = simulate_transient(1.0, 0.0, 50.0, 500, 10.0, seed=2)
        with pytest.raises((FitPreconditionError, FitError)):
            fit_lifetime(hist)

    def test_total_counts_at_most_100_rejected(self):
        hist = simulate_transient(1.0, 3.0, 0.0, 40, 10.0, 1)
        with pytest.raises(FitPreconditionError,
                           match=r"^total counts above background \(11\.0\) must exceed 100$"):
            fit_lifetime(hist)

    def test_too_few_bins_in_window(self):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=1)
        with pytest.raises(FitPreconditionError):
            fit_lifetime(hist, fit_window=(0.0, 0.1))

    def test_degenerate_window(self):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=1)
        with pytest.raises(FitPreconditionError):
            fit_lifetime(hist, fit_window=(5.0, 5.0))

    @pytest.mark.parametrize("window", [5, 5.0, object(), (1,), (1.0, 2.0, 3.0), [], iter(()),
                                        np.array(5.0)])
    def test_fit_window_that_is_not_a_pair_is_refused(self, window):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=1)
        with pytest.raises(DomainError,
                           match=f"^fit_window must be a \\(lo, hi\\) pair, got {re.escape(repr(window))}$"):
            fit_lifetime(hist, fit_window=window)

    @pytest.mark.parametrize("window", [(0.5, 9.0), [0.5, 9.0], np.array([0.5, 9.0]),
                                        (np.float32(0.5), 9)])
    def test_fit_window_pairs(self, window):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=11)
        assert fit_lifetime(hist, fit_window=window) == fit_lifetime(hist, fit_window=(0.5, 9.0))

    def test_fit_window_edges_must_be_real_numbers(self):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=1)
        with pytest.raises(DomainError, match="^fit_window edge must be a real number, got 'a'$"):
            fit_lifetime(hist, fit_window="ab")

    @pytest.mark.parametrize("args, window, expected", [
        ((0.885, 1000.0, 5.0, 500, 10.0, 11), None,
         LifetimeFit(0.8848336758908874, 0.005062339951009242, 992.5303719036308,
                     4.970524659532792, 1.0286333439863098, 6)),
        ((4.807, 200.0, 2.0, 10000, 40.0, 12), (0.5, 35.0),
         LifetimeFit(4.818621641333787, 0.015090541593675757, 199.1095376011119,
                     2.0267393700288365, 0.9927325286347182, 6)),
        ((0.885, 1e4, 10.0, 100_000, 10.0, 13), (0.1, 9.0),
         LifetimeFit(0.8849649546582329, 0.00011148988759048325, 9999.972521205942,
                     10.019808845523523, 1.0071969274949566, 4)),
    ])
    def test_seeded_fit_is_pinned_exactly(self, args, window, expected):
        # Exact values: any change to the optimiser's arithmetic or to its
        # step acceptance shows here.
        assert fit_lifetime(simulate_transient(*args), fit_window=window) == expected

    def test_fit_error_trace_records_objective_of_each_iterate(self, monkeypatch):
        monkeypatch.setattr(transient, "_MAX_ITERATIONS", 3)
        hist = simulate_transient(0.885, 1000.0, 5.0, 500, 10.0, seed=11)
        with pytest.raises(FitError, match="no convergence") as info:
            fit_lifetime(hist)
        trace = info.value.trace
        assert [entry[0] for entry in trace] == [0, 1, 2, 3]
        for _, params, objective in trace:
            mu = transient._model(np.array(params), hist.bin_centers)[1]
            assert objective == transient._objective(mu, hist.counts)
        assert all(later[2] <= earlier[2] for earlier, later in zip(trace, trace[1:]))

    @staticmethod
    def _assert_trace_descends(trace):
        # The line search accepts a rise of 1e-12 relative, as its stopping rule.
        assert [entry[0] for entry in trace] == list(range(len(trace)))
        assert all(later[2] <= earlier[2] + 1e-12 * abs(earlier[2])
                   for earlier, later in zip(trace, trace[1:]))

    def test_flat_counts_have_no_decaying_component(self):
        hist = TransientHistogram(bin_edges=np.linspace(0.0, 10.0, 51), counts=np.full(50, 7.0))
        with pytest.raises(FitError, match="^no decaying component above the background") as info:
            fit_lifetime(hist)
        assert info.value.trace == []

    def test_seed_design_that_overflows_is_refused(self):
        # t·sqrt(counts) passes 1.8e308 near the end of an 8e307 µs span; LAPACK's
        # least squares would print DLASCL lines and raise LinAlgError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = simulate_transient(1e307, 1e4, 5.0, 100, 8e307, 1)
            with pytest.raises(FitError, match=r"^the initial guess overflows double "
                                               r"precision: t·sqrt\(counts\)$") as info:
                fit_lifetime(hist)
        assert info.value.trace == []

    def test_seed_amplitude_that_overflows_is_refused(self):
        # A window 1000 lifetimes after t = 0: the seed amplitude there is e^1009.
        edges = np.linspace(1000.0, 1010.0, 51)
        centers = 0.5 * (edges[:-1] + edges[1:])
        hist = TransientHistogram(bin_edges=edges, counts=10.0 + 1e4 * np.exp(-(centers - 1000.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="^the initial guess overflows double "
                                               "precision: amplitude at t = 0$") as info:
                fit_lifetime(hist)
        assert info.value.trace == []

    def test_singular_normal_equations_carry_the_trace(self):
        # τ runs to 1e-3 µs against 0.5 µs bins: the decay columns vanish.
        hist = simulate_transient(0.885, 30.0, 50.0, 40, 20.0, 24)
        with pytest.raises(FitError, match="^normal equations are singular") as info:
            fit_lifetime(hist)
        assert len(info.value.trace) == 4
        self._assert_trace_descends(info.value.trace)

    def test_halved_steps_and_a_last_iteration_without_improvement(self, monkeypatch):
        # Counts of at most 30 and no background: full scoring steps overshoot,
        # and the fit stops when 60 halvings of the last step all fail to improve.
        events = []
        for name in ("_scoring_terms", "_valid"):
            real = getattr(transient, name)
            monkeypatch.setattr(transient, name,
                                lambda *args, real=real, name=name: events.append(name) or real(*args))
        fit = fit_lifetime(simulate_transient(0.01, 30.0, 0.0, 500, 1.0, 0))
        tries = [len(list(run)) for name, run in itertools.groupby(events) if name == "_valid"]
        assert len(tries) == fit.iterations == 49
        assert tries[-1] == 60 and any(1 < count < 60 for count in tries[:-1])
        assert fit.lifetime_us == pytest.approx(0.0123, rel=1e-2)

    def test_numerically_singular_curvature_at_the_optimum(self):
        # The curvature matrix's condition number is inf here; an exact zero
        # pivot in its LU and a rounded one get the same refusal.
        hist = simulate_transient(0.75, 1600.0, 3.4e10, 60, 100.0, 181)
        with pytest.raises(FitError, match="^lifetime variance is not defined at the optimum$") as info:
            fit_lifetime(hist)
        assert len(info.value.trace) >= 2
        self._assert_trace_descends(info.value.trace)

    def test_exactly_singular_curvature_gets_the_same_refusal(self, monkeypatch):
        # No input found meets an exact zero pivot; LU raising stands in for one.
        def singular(matrix):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
        hist = simulate_transient(0.885, 1000.0, 5.0, 500, 10.0, seed=11)
        with pytest.raises(FitError, match="^lifetime variance is not defined at the optimum$") as info:
            fit_lifetime(hist)
        assert len(info.value.trace) == 7

    def test_lifetime_uncertainty_spanning_the_window_is_unidentifiable(self):
        hist = simulate_transient(0.01, 30.0, 50.0, 500, 10.0, 0)
        with pytest.raises(FitError, match=r"^lifetime is unidentifiable: uncertainty \S+ µs spans "
                                           r"the fit window \(9\.98 µs\)$") as info:
            fit_lifetime(hist)
        assert len(info.value.trace) == 37
        self._assert_trace_descends(info.value.trace)

    @staticmethod
    def _scaled_counts(k):
        """k·(1 + e^(−t)) on 50 bins over 10 µs."""
        edges = np.linspace(0.0, 10.0, 51)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return TransientHistogram(bin_edges=edges, counts=k * (1.0 + np.exp(-centers)))

    @pytest.mark.parametrize("k, scaled", [(1e300, True), (1e150, False)])
    def test_chi_square_whose_squares_overflow_is_summed_scaled(self, k, scaled):
        # At k = 1e300 the residuals' squares pass 1.8e308, ((c − μ)/sqrt(μ))² do not;
        # where the squares fit, the chi-square is summed as before.
        hist = self._scaled_counts(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_lifetime(hist)
        assert fit.lifetime_us == pytest.approx(1.0, rel=1e-12)
        theta = np.array([fit.amplitude, fit.lifetime_us, fit.background])
        mu = transient._model(theta, hist.bin_centers)[1]
        residual = hist.counts - mu
        terms = (residual / np.sqrt(mu)) ** 2 if scaled else residual**2 / mu
        assert fit.fit_quality == float(np.sum(terms)) / 47

    @pytest.mark.parametrize("k", [1e304, 1e307])
    def test_counts_summing_past_the_objective_range_are_refused(self, k):
        # Σ c·log μ overflows the Poisson objective from k = 1e304, and Σ c itself at
        # 1e307; the fit used to stop at its seed there with τ = 0.9976.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitPreconditionError, match="^the window's counts sum to "):
                fit_lifetime(self._scaled_counts(k))

    def test_uncertainty_positive_on_noisy_data(self):
        fit = fit_lifetime(simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=9))
        assert fit.lifetime_uncertainty_us > 0


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        hist = simulate_transient(0.885, 1e4, 10.0, 500, 10.0, seed=21)
        path = tmp_path / "transient.csv"
        write_histogram_csv(hist, path)
        loaded = read_histogram_csv(path)
        assert np.allclose(loaded.bin_edges, hist.bin_edges, rtol=0, atol=1e-12)
        assert np.array_equal(loaded.counts, hist.counts)

    def test_header_is_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,counts\n0.5,3\n1.5,4\n")
        with pytest.raises(DomainError):
            read_histogram_csv(path)

    def test_nonuniform_centers_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,counts\n0.5,3\n1.5,4\n3.5,5\n")
        with pytest.raises(DomainError):
            read_histogram_csv(path)

    def test_decreasing_centers_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,counts\n1.5,3\n0.5,4\n")
        # TransientHistogram checks the edges the reader infers.
        with pytest.raises(DomainError, match="^bin_edges must be strictly increasing$"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_non_finite_centers_rejected(self, tmp_path, bad, row):
        centers = ["0.5", "1.5", "2.5"]
        centers[row] = bad
        path = tmp_path / "bad.csv"
        path.write_text("t_us,counts\n" + "".join(f"{t},3\n" for t in centers))
        with pytest.raises(DomainError, match="^bin_edges must be finite$"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("centers", [(-1.7e308, 1.7e308), (1.7e308, 1.79e308)])
    def test_centers_whose_edges_overflow_rejected_without_a_warning(self, tmp_path, centers):
        # The width, the span or the last edge overflows: TransientHistogram
        # refuses the inferred edges, and nothing on the way warns.
        path = tmp_path / "huge.csv"
        path.write_text("t_us,counts\n" + "".join(f"{t!r},3\n" for t in centers))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^bin_edges must be finite$"):
                read_histogram_csv(path)
