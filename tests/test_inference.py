"""Unit tests for QR inference: pseudo-R², bootstrap, screening."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core.attribution import fit_report
from repro.stats import inference
from repro.stats.design import Factor, FactorialDesign
from repro.stats.inference import (
    ExperimentSample,
    expand_design,
    fit_with_inference,
    pseudo_r2,
    run_quantile_design,
    screen_factor,
)


def synthetic_experiments(effects, reps=8, samples=300, noise=5.0, seed=0):
    """2-factor factorial experiments with known cell medians."""
    rng = np.random.default_rng(seed)
    design = FactorialDesign([Factor("a", "lo", "hi"), Factor("b", "lo", "hi")])
    exps = []
    for cfg in design.configs():
        base = effects[cfg]
        for _ in range(reps):
            run_shift = rng.normal(0, noise * 0.2)  # hysteresis-like
            exps.append(
                ExperimentSample(
                    coded=cfg,
                    samples=base + run_shift + rng.exponential(noise, size=samples),
                )
            )
    return exps


EFFECTS = {(0, 0): 100.0, (1, 0): 150.0, (0, 1): 90.0, (1, 1): 160.0}

FACTORS_2X4 = [Factor(n, "lo", "hi") for n in ("numa", "turbo", "dvfs", "nic")]


def table4_experiments(reps=2, samples=400, seed=11):
    """A Table-IV-shaped set: 2^4 cells x ``reps`` runs, each run with
    its own hysteresis shift and exponential per-request noise."""
    rng = np.random.default_rng(seed)
    exps = []
    for cfg in FactorialDesign(FACTORS_2X4).configs():
        base = 100.0 + 30.0 * cfg[0] - 12.0 * cfg[1] + 8.0 * cfg[0] * cfg[3]
        for _ in range(reps):
            shift = rng.normal(0.0, 4.0)
            exps.append(
                ExperimentSample(
                    coded=cfg, samples=base + shift + rng.exponential(6.0, samples)
                )
            )
    return exps


def fit_digest(fits):
    """sha256 over every Table-IV column of ``(fit, pseudo_r2)`` pairs."""
    h = hashlib.sha256()
    for fit, r2 in fits:
        for arr in (fit.coefficients, fit.stderr, fit.p_values):
            h.update(np.asarray(arr, dtype=float).tobytes())
        h.update(repr(float(r2)).encode())
    return h.hexdigest()


class TestExperimentSample:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSample(coded=(0,), samples=np.array([]))

    def test_samples_coerced_to_float_array(self):
        exp = ExperimentSample(coded=(1,), samples=[1, 2, 3])
        assert exp.samples.dtype == float


class TestDesignExpansion:
    def test_expand_repeats_rows_per_sample(self):
        exps = [
            ExperimentSample(coded=(0, 1), samples=[1.0, 2.0, 3.0]),
            ExperimentSample(coded=(1, 0), samples=[4.0]),
        ]
        X, y, cols = expand_design(exps, ["a", "b"])
        assert X.shape[0] == 4
        assert y.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_run_quantile_design_one_row_per_experiment(self):
        exps = synthetic_experiments(EFFECTS, reps=3)
        X, y, cols = run_quantile_design(exps, ["a", "b"], tau=0.9)
        assert X.shape[0] == len(exps)
        assert y.shape == (len(exps),)

    def test_run_quantile_response_is_experiment_quantile(self):
        exp = ExperimentSample(coded=(0, 0), samples=np.arange(101.0))
        _, y, _ = run_quantile_design([exp], ["a", "b"], tau=0.5)
        assert y[0] == pytest.approx(50.0)

    def test_empty_experiments_rejected(self):
        with pytest.raises(ValueError):
            expand_design([], ["a"])
        with pytest.raises(ValueError):
            run_quantile_design([], ["a"], 0.5)


class TestPseudoR2:
    def test_perfect_model_scores_one(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert pseudo_r2(y, y, 0.9) == 1.0

    def test_constant_model_scores_zero(self):
        rng = np.random.default_rng(0)
        y = rng.exponential(10.0, size=1000)
        const = np.full_like(y, np.quantile(y, 0.9))
        assert pseudo_r2(y, const, 0.9) == pytest.approx(0.0, abs=1e-6)

    def test_informative_model_beats_constant(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=2000)
        y = 100.0 * x + rng.normal(0, 1, size=2000)
        pred = 100.0 * x
        assert pseudo_r2(y, pred, 0.5) > 0.9

    def test_worse_than_constant_clamped_to_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        terrible = np.array([100.0, -100.0, 100.0])
        assert pseudo_r2(y, terrible, 0.5) == 0.0

    def test_degenerate_y(self):
        y = np.full(10, 5.0)
        assert pseudo_r2(y, y, 0.5) == 1.0
        assert pseudo_r2(y, y + 1.0, 0.5) == 0.0


class TestFitWithInference:
    def test_recovers_effects_with_inference(self):
        exps = synthetic_experiments(EFFECTS, reps=10, seed=2)
        fit, r2 = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=80)
        # Median of cell (0,0) samples: base + exp median.
        assert fit.coef("a") == pytest.approx(50.0, abs=8.0)
        assert fit.coef("b") == pytest.approx(-10.0, abs=8.0)
        assert fit.stderr is not None and fit.p_values is not None
        assert len(fit.stderr) == len(fit.columns)

    def test_strong_effects_significant_weak_not(self):
        exps = synthetic_experiments(EFFECTS, reps=12, seed=3)
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=100)
        p = dict(zip(fit.columns, fit.p_values))
        assert p["a"] < 0.05  # +50 us effect
        assert p["a"] < p["a:b"] or p["a:b"] > 0.01

    def test_run_quantile_r2_exceeds_raw_r2(self):
        """The paper-style run-quantile response design filters the
        irreducible per-request noise, so its R² is higher."""
        exps = synthetic_experiments(EFFECTS, reps=8, seed=4)
        _, r2_runq = fit_with_inference(
            exps, ["a", "b"], tau=0.9, n_boot=0, response="run_quantile"
        )
        _, r2_raw = fit_with_inference(
            exps, ["a", "b"], tau=0.9, n_boot=0, response="raw"
        )
        assert r2_runq > r2_raw

    def test_zero_boot_skips_inference(self):
        exps = synthetic_experiments(EFFECTS, reps=3, seed=5)
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=0)
        assert fit.stderr is None and fit.p_values is None

    def test_unknown_response_rejected(self):
        exps = synthetic_experiments(EFFECTS, reps=2, seed=6)
        with pytest.raises(ValueError):
            fit_with_inference(exps, ["a", "b"], tau=0.5, response="magic")

    def test_reproducible_with_rng(self):
        exps = synthetic_experiments(EFFECTS, reps=4, seed=7)
        a, _ = fit_with_inference(
            exps, ["a", "b"], 0.9, n_boot=30, rng=np.random.default_rng(1)
        )
        b, _ = fit_with_inference(
            exps, ["a", "b"], 0.9, n_boot=30, rng=np.random.default_rng(1)
        )
        assert np.array_equal(a.stderr, b.stderr)

    def test_fit_report_digest_frozen(self):
        """Coefficients, SEs, p-values and pseudo-R² of a seeded 2^4 x 2
        study over three quantiles, pinned bit for bit."""
        report = fit_report(
            table4_experiments(), FACTORS_2X4, (0.5, 0.95, 0.99), n_boot=40, seed=3
        )
        digest = fit_digest((report.fits[t], report.pseudo_r2[t]) for t in report.taus)
        assert digest == "030747262d3b6037129be292fae32846208e74b3e2e3ec043ff753d49cd4e399"

    def test_raw_response_digest_frozen(self):
        exps = table4_experiments(samples=150, seed=12)
        names = [f.name for f in FACTORS_2X4]
        rng = np.random.default_rng(5)
        fits = [
            fit_with_inference(exps, names, tau, n_boot=10, response="raw", rng=rng)
            for tau in (0.5, 0.99)
        ]
        assert fit_digest(fits) == "789977b20c763df5cfdfb5db578c8e253eb0713686e88a33611ee569da806f72"

    def test_run_quantiles_computed_once(self, monkeypatch):
        """Resampling reuses each run's quantile: one np.quantile per
        run, plus one for pseudo-R²'s constant model."""
        calls = []
        real = np.quantile

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference.np, "quantile", counting)
        exps = synthetic_experiments(EFFECTS, reps=3, seed=13)
        fit_with_inference(exps, ["a", "b"], tau=0.9, n_boot=25)
        assert len(calls) == len(exps) + 1

    def _assert_degenerate(self, exps, n_boot):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, _ = fit_with_inference(
                exps, ["a", "b"], 0.9, n_boot=n_boot, rng=np.random.default_rng(1)
            )
        point, _ = fit_with_inference(
            exps, ["a", "b"], 0.9, n_boot=0, rng=np.random.default_rng(1)
        )
        assert np.array_equal(fit.coefficients, point.coefficients)
        assert np.isnan(fit.stderr).all() and np.isnan(fit.p_values).all()
        return fit

    def test_single_resample_has_no_stderr(self):
        """One resample cannot give a spread: NaN, not p = 0."""
        self._assert_degenerate(synthetic_experiments(EFFECTS, reps=2, seed=14), 1)

    def test_single_run_cells_have_no_stderr(self):
        """With one run per cell every resample reproduces the data; the
        bootstrap spread would be perturbation noise alone."""
        self._assert_degenerate(synthetic_experiments(EFFECTS, reps=1, seed=15), 50)

    def test_degenerate_bootstrap_keeps_rng_stream(self):
        """A later fit sharing the RNG sees the same draws either way."""
        exps = synthetic_experiments(EFFECTS, reps=1, seed=16)
        rng = np.random.default_rng(2)
        fit_with_inference(exps, ["a", "b"], 0.5, n_boot=7, rng=rng)
        after = rng.random()
        rng = np.random.default_rng(2)
        fit_with_inference(exps, ["a", "b"], 0.5, n_boot=0, rng=rng)
        for _ in range(7):
            for _ in range(len(exps)):
                rng.integers(0, 1, size=1)
            rng.normal(0.0, 0.01, size=len(exps))
        assert rng.random() == after


class TestScreenFactor:
    def test_real_effect_detected(self):
        exps = synthetic_experiments(EFFECTS, reps=10, seed=8)
        p = screen_factor(exps, factor_index=0, tau=0.5, n_perm=200)
        assert p < 0.05

    def test_null_factor_not_detected(self):
        null_effects = {(0, 0): 100.0, (1, 0): 100.0, (0, 1): 100.0, (1, 1): 100.0}
        exps = synthetic_experiments(null_effects, reps=10, seed=9)
        p = screen_factor(exps, factor_index=0, tau=0.5, n_perm=200)
        assert p > 0.05

    def test_single_level_rejected(self):
        exps = [ExperimentSample(coded=(0, 0), samples=[1.0, 2.0])] * 3
        with pytest.raises(ValueError):
            screen_factor(exps, factor_index=0, tau=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            screen_factor([], 0, 0.5)
