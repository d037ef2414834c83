import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from condsurv import (
    SCHEME_BERAN,
    SCHEME_SMOOTHED,
    ConfidenceRegion,
    ResamplingPlan,
    TimeGrid,
    bootstrap_sigma,
    calibrate_lambda,
    clamp_and_plateau_fix,
    coverage_fraction,
    generate_sample,
    make_model,
    method2_radius,
    pilot_r,
    pilot_s,
    region_method1,
    region_method2,
    resample,
    write_region_csv,
)
from condsurv.errors import DegenerateVarianceError, InsufficientReplicatesError


class TestSigma:
    def test_identical_curves_zero(self):
        curves = np.tile(np.linspace(1, 0.2, 10), (6, 1))
        assert_allclose(bootstrap_sigma(curves), 0.0, atol=1e-15)

    def test_two_curves(self):
        a = np.array([1.0, 0.8, 0.4])
        b = np.array([1.0, 0.6, 0.0])
        assert_allclose(bootstrap_sigma([a, b]), np.abs(a - b) / 2)

    def test_hand_table_b4(self):
        curves = np.array([[0.9, 0.5], [0.8, 0.4], [0.7, 0.3], [0.6, 0.2]])
        # population sd of {0.9, 0.8, 0.7, 0.6} = sqrt(mean of squared deviations)
        oracle = np.sqrt(np.mean((curves - curves.mean(axis=0)) ** 2, axis=0))
        assert_allclose(bootstrap_sigma(curves), oracle, rtol=1e-15)

    def test_requires_two(self):
        with pytest.raises(InsufficientReplicatesError):
            bootstrap_sigma(np.ones((1, 5)))


class TestCoverageFraction:
    def test_zero_at_lambda_zero(self):
        pilot = np.zeros(4)
        curves = np.full((3, 4), 0.2)
        sigma = np.full(4, 0.1)
        assert coverage_fraction(0.0, pilot, curves, sigma) == 0.0

    def test_one_at_huge_lambda(self):
        rng = np.random.default_rng(1)
        curves = rng.random((5, 6))
        assert coverage_fraction(1e6, np.zeros(6), curves, np.full(6, 0.1)) == 1.0

    def test_constructed_two_thirds(self):
        pilot = np.zeros(3)
        curves = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [5.0, 0.0, 0.0]])
        sigma = np.ones(3)
        assert coverage_fraction(0.2, pilot, curves, sigma) == pytest.approx(2 / 3)

    def test_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(2)
        curves = np.clip(0.7 + 0.1 * rng.standard_normal((40, 12)), 0, 1)
        pilot = np.full(12, 0.7)
        sigma = bootstrap_sigma(curves)
        lams = np.linspace(0, 5, 100)
        ps = [coverage_fraction(l, pilot, curves, sigma) for l in lams]
        assert np.all(np.diff(ps) >= 0)

    def test_zero_sigma_points_covered_when_equal(self):
        pilot = np.array([1.0, 0.5])
        curves = np.array([[1.0, 0.5], [1.0, 0.6]])
        sigma = np.array([0.0, 0.05])
        assert coverage_fraction(2.0, pilot, curves, sigma) == 1.0


class TestCalibrateLambda:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        curves = np.clip(0.8 + 0.05 * rng.standard_normal((500, 40)), 0, 1)
        pilot = np.full(40, 0.8)
        sigma = bootstrap_sigma(curves)
        lam = calibrate_lambda(pilot, curves, sigma, 0.05)
        m = np.sort(np.max(np.abs(pilot[None, :] - curves) / sigma[None, :], axis=1))
        # optimal jump interval: [M_(475), M_(476)) for B = 500, alpha = 0.05
        assert m[474] <= lam <= m[475]
        # scan oracle over 10^4 lambda values agrees on the interval
        scan = np.linspace(0.0, m[-1] * 1.01, 10_000)
        ps = np.array([coverage_fraction(l, pilot, curves, sigma) for l in scan])
        scan_opt = scan[np.argmax(ps >= 0.95)]
        assert m[474] <= scan_opt <= m[475] + scan[1]
        assert coverage_fraction(lam, pilot, curves, sigma) >= 0.95 - 1e-4

    def test_small_b_monotone_fixture(self):
        pilot = np.zeros(2)
        curves = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0], [0.5, 0.0]])
        sigma = np.array([1.0, 1.0])
        lam = calibrate_lambda(pilot, curves, sigma, 0.2)
        assert coverage_fraction(lam, pilot, curves, sigma) >= 0.8 - 1e-4
        assert 0.4 <= lam <= 0.5

    def test_exact_order_statistic_without_slack(self):
        # B(1 - alpha) = 465.5 is not an integer: lambda* must cover 466 of 490
        rng = np.random.default_rng(3)
        curves = rng.standard_normal((490, 10))
        pilot = np.zeros(10)
        sigma = bootstrap_sigma(curves)
        lam = calibrate_lambda(pilot, curves, sigma, 0.05)
        m = np.sort(np.max(np.abs(pilot[None, :] - curves) / sigma[None, :], axis=1))
        assert coverage_fraction(lam, pilot, curves, sigma) >= 0.95
        assert coverage_fraction(np.nextafter(lam, -np.inf), pilot, curves, sigma) < 0.95
        assert m[465] <= lam < m[466]

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateVarianceError):
            calibrate_lambda(np.zeros(3), np.zeros((4, 3)), np.zeros(3), 0.05)

    def test_unreachable_target(self):
        # one replicate deviates where sigma is zero, so coverage caps at 1/2
        pilot = np.array([0.0, 0.0])
        curves = np.array([[0.0, 0.0], [0.5, 0.0]])
        sigma = np.array([0.0, 1.0])
        with pytest.raises(DegenerateVarianceError):
            calibrate_lambda(pilot, curves, sigma, 0.05)

    @pytest.mark.parametrize("alpha", [-0.1, -1e-15, 0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_unit_interval(self, alpha):
        rng = np.random.default_rng(5)
        pilot, curves = rng.random(6), rng.random((10, 6))
        with pytest.raises(ValueError, match="alpha"):
            calibrate_lambda(pilot, curves, bootstrap_sigma(curves), alpha)


def _raw_region(lower, upper, level=0.95):
    n = len(lower)
    grid = TimeGrid(np.linspace(1.0, 2.0, n))
    return ConfidenceRegion(
        grid=grid,
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        estimate=(np.asarray(lower, float) + np.asarray(upper, float)) / 2,
        method="method1",
        estimator_tag="beran",
        level=level,
        calibration=1.0,
        x0=0.5,
    )


class TestClampAndPlateau:
    def test_untouched_region(self):
        region = _raw_region([0.5, 0.4, 0.3], [0.9, 0.8, 0.7])
        fixed = clamp_and_plateau_fix(region)
        assert_allclose(fixed.lower, region.lower)
        assert_allclose(fixed.upper, region.upper)
        assert not fixed.degenerate

    def test_leading_plateau_widened(self):
        region = _raw_region([1.0, 1.0, 1.0, 0.9, 0.8], [1.0, 1.0, 1.0, 1.0, 0.95])
        fixed = clamp_and_plateau_fix(region)
        assert_allclose(fixed.lower, [0.9, 0.9, 0.9, 0.9, 0.8])
        assert_allclose(fixed.upper, region.upper)

    def test_clamps_into_unit_interval(self):
        region = _raw_region([-0.2, 0.1], [1.2, 0.9])
        fixed = clamp_and_plateau_fix(region)
        assert_allclose(fixed.lower, [0.0, 0.1])
        assert_allclose(fixed.upper, [1.0, 0.9])

    def test_fully_degenerate_flagged(self):
        region = _raw_region([1.0, 1.0], [1.0, 1.0])
        fixed = clamp_and_plateau_fix(region)
        assert fixed.degenerate
        assert_allclose(fixed.lower, [1.0, 1.0])


@pytest.mark.parametrize("B, alpha", [(226, 1.0 - 4 / 226), (5, 0.2), (490, 0.05), (40, 0.05)])
def test_both_methods_take_the_same_order_statistic(B, alpha):
    # at B = 226, alpha = 1 - 4/226 the float 1 - alpha exceeds 4/226, so k = 5
    grid = TimeGrid([1.0, 2.0])
    pilot = np.zeros(2)
    offsets = np.random.default_rng(B).permutation(np.arange(1, B + 1) / B)
    curves = np.stack([offsets, np.zeros(B)], axis=1)
    sigma = np.array([1.0, 0.0])
    k = int(np.argmax(np.arange(1, B + 1) / B >= 1.0 - alpha)) + 1
    rho = method2_radius(pilot, curves, grid, alpha)
    lam = calibrate_lambda(pilot, curves, sigma, alpha)
    assert rho == lam == k / B
    assert coverage_fraction(lam, pilot, curves, sigma) >= 1.0 - alpha
    assert np.mean(offsets <= rho) >= 1.0 - alpha
    assert np.mean(offsets < rho) < 1.0 - alpha


@pytest.mark.parametrize("seed", range(4))
def test_unit_scale_calibration_is_the_sup_radius_at_ties(seed):
    # each replicate's sup deviation sits at one column and takes one of four
    # values, so many replicates tie at the k-th order statistic
    rng = np.random.default_rng(seed)
    B, T = 60, 12
    pilot = rng.random(T)
    curves = pilot + rng.uniform(-0.1, 0.1, (B, T))
    curves[:, 3] = pilot[3] + rng.choice([0.2, 0.3, -0.3, 0.4], B)
    grid = TimeGrid(np.arange(1.0, T + 1))
    sups = np.abs(pilot - curves).max(axis=1)
    for alpha in (0.05, 0.2, 0.5):
        lam = calibrate_lambda(pilot, curves, np.ones(T), alpha)
        assert lam == method2_radius(pilot, curves, grid, alpha)
        assert np.sum(sups == lam) > 1


class TestMethod2Radius:
    def test_single_replicate(self):
        grid = TimeGrid([1.0, 2.0])
        pilot = np.array([0.8, 0.6])
        curves = np.array([[0.7, 0.65]])
        assert method2_radius(pilot, curves, grid, 0.1) == pytest.approx(0.1)

    def test_hand_order_statistic_b5(self):
        grid = TimeGrid([1.0, 2.0])
        pilot = np.zeros(2)
        offsets = [0.5, 0.1, 0.4, 0.2, 0.3]
        curves = np.array([[o, 0.0] for o in offsets])
        # [B(1-alpha)] = 4 at B = 5, alpha = 0.2: fourth smallest of the sups
        assert method2_radius(pilot, curves, grid, 0.2) == pytest.approx(0.4)
        rng = np.random.default_rng(3)
        shuffled = curves[rng.permutation(5)]
        assert method2_radius(pilot, shuffled, grid, 0.2) == pytest.approx(0.4)

    def test_radius_weakly_decreasing_in_alpha(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(np.linspace(0.5, 3.0, 8))
        pilot = rng.random(8)
        curves = rng.random((30, 8))
        radii = [method2_radius(pilot, curves, grid, a) for a in (0.01, 0.05, 0.2, 0.5)]
        assert np.all(np.diff(radii) <= 1e-15)

    @pytest.mark.parametrize("alpha", [-0.1, 0.0, 1.0])
    def test_alpha_outside_unit_interval(self, alpha):
        grid = TimeGrid([1.0, 2.0])
        with pytest.raises(ValueError, match="alpha"):
            method2_radius(np.zeros(2), np.ones((4, 2)), grid, alpha)


class TestRegionBuilders:
    def setup_method(self):
        self.model = make_model("model1", 0.2)
        self.sample = generate_sample(self.model, 60, 15)
        self.grid = TimeGrid.uniform(self.model.t_max, 30)
        r = pilot_r(self.sample, self.model.pilot_c)
        self.plan = ResamplingPlan(SCHEME_BERAN, r, 5, 40)
        self.resamples = resample(self.sample, self.plan, support=self.model.support)[0]

    def test_method1_envelope_width(self):
        region = region_method1(
            self.sample, 0.6, 0.3, self.plan, self.grid,
            support=self.model.support, resamples=self.resamples,
        )
        lam = region.calibration
        interior = (region.lower > 0) & (region.upper < 1) & (region.lower < 1)
        assert interior.any()
        width = region.upper - region.lower
        assert_allclose(width[interior], 2 * lam * region.sigma_star[interior], atol=1e-12)
        assert np.all(region.lower <= region.upper)
        assert np.all((region.lower >= 0) & (region.upper <= 1))
        assert region.method == "method1"
        assert region.level == 0.95

    def test_method1_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            region_method1(
                self.sample, 0.6, 0.3, self.plan, self.grid,
                support=self.model.support, resamples=[self.sample] * 5,
            )

    def test_method2_constant_width_before_clamp(self):
        region = region_method2(
            self.sample, 0.6, 0.3, self.plan, self.grid,
            support=self.model.support, resamples=self.resamples,
        )
        rho = region.calibration
        interior = (region.lower > 0) & (region.upper < 1)
        width = region.upper - region.lower
        assert_allclose(width[interior], 2 * rho, atol=1e-12)
        assert np.max(width) <= 2 * rho + 1e-12
        assert region.method == "method2"

    def test_smoothed_region_requires_g(self):
        plan = ResamplingPlan(
            SCHEME_SMOOTHED, self.plan.pilot_r, 5, 40, pilot_s=pilot_s(self.sample)
        )
        with pytest.raises(ValueError):
            region_method1(
                self.sample, 0.6, 0.3, plan, self.grid,
                estimator="smoothed-beran", support=self.model.support,
            )

    @pytest.mark.parametrize("builder", [region_method1, region_method2])
    def test_beran_region_ignores_time_bandwidth(self, builder):
        kwargs = dict(support=self.model.support, resamples=self.resamples)
        plain = builder(self.sample, 0.6, 0.3, self.plan, self.grid, **kwargs)
        given_g = builder(self.sample, 0.6, 0.3, self.plan, self.grid, g=0.1, **kwargs)
        assert given_g.g is None
        assert given_g.calibration == plain.calibration
        for field in ("estimate", "lower", "upper"):
            assert np.array_equal(getattr(given_g, field), getattr(plain, field))

    @pytest.mark.parametrize("builder", [region_method1, region_method2])
    @pytest.mark.parametrize("h", [-0.3, 0.0, float("nan"), float("inf")])
    def test_covariate_bandwidth_must_be_positive(self, builder, h):
        with pytest.raises(ValueError, match="h must be"):
            builder(self.sample, 0.6, h, self.plan, self.grid,
                    support=self.model.support, resamples=self.resamples)

    @pytest.mark.parametrize("builder", [region_method1, region_method2])
    @pytest.mark.parametrize("g", [-0.08, 0.0, float("nan")])
    def test_time_bandwidth_must_be_positive(self, builder, g):
        plan = ResamplingPlan(SCHEME_SMOOTHED, self.plan.pilot_r, 5, 10, pilot_s=pilot_s(self.sample))
        with pytest.raises(ValueError, match="g must be"):
            builder(self.sample, 0.6, 0.3, plan, self.grid, g=g,
                    estimator="smoothed-beran", support=self.model.support)

    @pytest.mark.parametrize("builder", [region_method1, region_method2])
    def test_alpha_is_checked_before_any_resample_is_drawn(self, builder, monkeypatch):
        import condsurv.bandwidth

        def no_draw(*args, **kwargs):
            raise AssertionError("resamples were drawn before alpha was checked")

        monkeypatch.setattr(condsurv.bandwidth, "resample", no_draw)
        with pytest.raises(ValueError, match="alpha must"):
            builder(self.sample, 0.6, 0.3, self.plan, self.grid, alpha=1.5, support=self.model.support)

    def test_method1_needs_two_replicates_before_any_is_drawn(self, monkeypatch):
        import condsurv.bandwidth

        def no_draw(*args, **kwargs):
            raise AssertionError("resamples were drawn before B was checked")

        monkeypatch.setattr(condsurv.bandwidth, "resample", no_draw)
        plan = ResamplingPlan(SCHEME_BERAN, self.plan.pilot_r, 5, 1)
        with pytest.raises(ValueError, match="^B must be at least 2 for method 1, got 1$"):
            region_method1(self.sample, 0.6, 0.3, plan, self.grid, support=self.model.support)

    def test_method2_takes_one_replicate(self):
        plan = ResamplingPlan(SCHEME_BERAN, self.plan.pilot_r, 5, 1)
        region = region_method2(self.sample, 0.6, 0.3, plan, self.grid, support=self.model.support)
        assert np.all(region.lower <= region.upper)

    def test_scheme_estimator_mismatch(self):
        with pytest.raises(ValueError):
            region_method1(
                self.sample, 0.6, 0.3, self.plan, self.grid,
                estimator="smoothed-beran", g=0.1, support=self.model.support,
            )

    def test_region_csv_and_sidecar(self, tmp_path):
        region = region_method2(
            self.sample, 0.6, 0.3, self.plan, self.grid,
            support=self.model.support, resamples=self.resamples,
        )
        csv_path = tmp_path / "region.csv"
        json_path = tmp_path / "region.json"
        write_region_csv(region, csv_path, json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,lower,estimate,upper"
        assert len(lines) == 1 + self.grid.n_points
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(cells[:, 3] - cells[:, 1] >= 0)
        meta = json.loads(json_path.read_text())
        assert meta["method"] == "method2"
        assert meta["level"] == 0.95
        assert meta["lambda_or_rho"] == region.calibration
        assert meta["bandwidths"]["h"] == 0.3
        assert meta["seed"] == 5
