import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from condsurv import (
    SurvivalSample,
    TimeGrid,
    beran_survival,
    beran_weights,
    kaplan_meier,
    smoothed_beran_survival,
)
from condsurv.errors import DegenerateWeightsError
from condsurv.estimators import _jumps_from_survival, _product_limit_rows

from conftest import (
    eval_steps,
    pure_product_limit,
    random_sample,
    reference_product_limit_rows,
    reference_query_weights,
    reflect_covariates,
)


class TestBeranWeights:
    def test_single_point(self):
        s = SurvivalSample(x=[0.3], z=[1.0], delta=[1])
        assert_allclose(beran_weights(s, 0.9, 0.2).w, [1.0])

    def test_symmetry(self):
        s = SurvivalSample(x=[0.4, 0.8], z=[1.0, 2.0], delta=[1, 1])
        for h in (0.05, 0.3, 2.0):
            assert_allclose(beran_weights(s, 0.6, h).w, [0.5, 0.5], atol=1e-15)

    def test_hand_formula(self):
        # oracle: normalized phi(0), phi(1), phi(2); renormalization cancels
        s = SurvivalSample(x=[0.0, 0.5, 1.0], z=[1.0, 2.0, 3.0], delta=[1, 1, 1])
        phis = np.exp([-0.0, -0.5, -2.0])
        assert_allclose(beran_weights(s, 0.0, 0.5).w, phis / phis.sum(), rtol=1e-14)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = random_sample(rng, 37)
        w = beran_weights(s, 0.4, 0.1).w
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_degenerate_raises(self):
        s = SurvivalSample(x=[0.0], z=[1.0], delta=[1])
        with pytest.raises(DegenerateWeightsError):
            beran_weights(s, 10.0, 0.01)

    def test_bad_bandwidth(self):
        s = SurvivalSample(x=[0.0], z=[1.0], delta=[1])
        with pytest.raises(ValueError):
            beran_weights(s, 0.0, -1.0)


class TestBeranSurvival:
    def test_one_before_first_event(self, hand_sample):
        grid = TimeGrid([0.25, 0.5, 0.99])
        curve = beran_survival(hand_sample, 0.5, 1.0, grid)
        assert_allclose(curve.values, 1.0)

    def test_hand_three_point_curve(self, hand_sample, grid_4):
        # oracle: factor (1 - (1/3)/1) = 2/3 at z=1, censored z=2 contributes 1,
        # factor (1 - (1/3)/(1/3)) = 0 at z=3
        curve = beran_survival(hand_sample, 0.5, 1.0, grid_4)
        assert_allclose(curve.values, [2 / 3, 2 / 3, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_uncensored_equals_one_minus_ecdf(self):
        rng = np.random.default_rng(8)
        z = rng.exponential(1.0, 25)
        s = SurvivalSample(x=np.full(25, 0.5), z=z, delta=np.ones(25))
        grid = TimeGrid(np.sort(rng.exponential(1.0, 50)) + 1e-9)
        curve = beran_survival(s, 0.5, 5.0, grid)
        ecdf = np.searchsorted(np.sort(z), grid.points, side="right") / 25
        assert_allclose(curve.values, 1.0 - ecdf, atol=1e-12)

    def test_terminal_plateau_when_largest_censored(self):
        s = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 1, 0])
        grid = TimeGrid([2.5, 3.0, 10.0])
        curve = beran_survival(s, 0.5, 1.0, grid)
        assert curve.values[0] == pytest.approx(1 / 3)
        assert curve.values[1] == curve.values[0]
        assert curve.values[2] == curve.values[0]

    def test_right_continuity_at_jump(self, hand_sample):
        grid = TimeGrid([0.999999, 1.0])
        curve = beran_survival(hand_sample, 0.5, 1.0, grid)
        assert curve.values[0] == 1.0
        assert curve.values[1] == pytest.approx(2 / 3)

    def test_matches_reference_evaluator_with_kernel_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            s = random_sample(rng, rng.integers(2, 30))
            x0, h = rng.random(), 0.05 + rng.random()
            w = beran_weights(s, x0, h).w
            steps = pure_product_limit(list(s.z), list(s.delta), list(w))
            grid = TimeGrid(np.sort(rng.exponential(1.0, 12)) + 1e-12)
            curve = beran_survival(s, x0, h, grid)
            oracle = [eval_steps(steps, t) for t in grid.points]
            assert_allclose(curve.values, oracle, atol=1e-12)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(4)
        s = random_sample(rng, 30)
        perm = rng.permutation(30)
        shuffled = SurvivalSample(x=s.x[perm], z=s.z[perm], delta=s.delta[perm])
        grid = TimeGrid.uniform(3.0, 40)
        a = beran_survival(s, 0.4, 0.2, grid).values
        b = beran_survival(shuffled, 0.4, 0.2, grid).values
        assert_allclose(a, b, rtol=0, atol=0)

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            s = random_sample(rng, rng.integers(2, 50))
            grid = TimeGrid.uniform(float(s.z.max()* 1.2), 30)
            curve = beran_survival(s, rng.random(), 0.05 + rng.random(), grid)
            assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
            assert np.all(np.diff(curve.values) <= 0)


class TestKaplanMeier:
    def test_uncensored_three_points(self):
        s = SurvivalSample(x=[0, 0, 0], z=[1.0, 2.0, 3.0], delta=[1, 1, 1])
        grid = TimeGrid([0.5, 1.0, 2.0, 3.0, 5.0])
        assert_allclose(kaplan_meier(s, grid).values, [1.0, 2 / 3, 1 / 3, 0.0, 0.0])

    def test_censored_hand_case(self, hand_sample, grid_4):
        km = kaplan_meier(hand_sample, grid_4)
        assert_allclose(km.values, [2 / 3, 2 / 3, 0.0, 0.0])

    def test_km_is_large_bandwidth_beran(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_sample(rng, rng.integers(2, 50))
            grid = TimeGrid.uniform(float(s.z.max() * 1.1), 20)
            km = kaplan_meier(s, grid).values
            big = beran_survival(s, float(rng.random()), 1e9, grid).values
            assert np.max(np.abs(km - big)) <= 1e-12


class TestSmoothedBeran:
    def test_limits_far_left_and_right(self, hand_sample):
        g = 0.01
        grid = TimeGrid([1e-6, 0.3])
        assert_allclose(smoothed_beran_survival(hand_sample, 0.5, 1.0, g, grid).values, 1.0)
        grid_hi = TimeGrid([3.0 + 51 * g, 3.0 + 60 * g])
        vals = smoothed_beran_survival(hand_sample, 0.5, 1.0, g, grid_hi).values
        assert_allclose(vals, 0.0, atol=1e-15)  # Beran terminal value is 0 here

    def test_terminal_value_with_censored_tail(self):
        s = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 1, 0])
        g = 0.05
        grid = TimeGrid([3.0 + 51 * g, 3.0 + 60 * g])
        vals = smoothed_beran_survival(s, 0.5, 1.0, g, grid).values
        assert_allclose(vals, 1 / 3, atol=1e-14)

    def test_hand_value_at_t2(self, hand_sample):
        # oracle: jumps {1/3, 0, 2/3} at z = 1, 2, 3 with quadrature for the
        # integrated kernel at (2 - z)/g for g = 0.5
        ik2, _ = quad(lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi), -50.0, 2.0)
        ikm2, _ = quad(lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi), -50.0, -2.0)
        oracle = 1.0 - ((1 / 3) * ik2 + 0.0 * 0.5 + (2 / 3) * ikm2)
        grid = TimeGrid([1.5, 2.0])
        vals = smoothed_beran_survival(hand_sample, 0.5, 1.0, 0.5, grid).values
        assert_allclose(vals[1], oracle, atol=1e-9)

    def test_small_g_recovers_beran_off_jumps(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_sample(rng, 20)
            # grid points at least 1e-3 away from every observation
            pts = []
            t = 1e-3
            while len(pts) < 15:
                t += 0.07123
                if np.min(np.abs(s.z - t)) >= 1e-3:
                    pts.append(t)
            grid = TimeGrid(np.array(pts))
            x0, h = rng.random(), 0.3
            a = beran_survival(s, x0, h, grid).values
            b = smoothed_beran_survival(s, x0, h, 1e-6, grid).values
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_sample(rng, rng.integers(2, 40))
            grid = TimeGrid.uniform(float(s.z.max() * 1.3), 25)
            curve = smoothed_beran_survival(s, rng.random(), 0.2 + rng.random(), 0.01 + rng.random(), grid)
            assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
            assert np.all(np.diff(curve.values) <= 1e-12)

    def test_jump_mass_bookkeeping(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            s = random_sample(rng, 25)
            w = beran_weights(s, 0.5, 0.4).w
            order = np.lexsort((1.0 - s.delta, s.z))
            surv = _product_limit_rows(w[order][None, :], s.delta[order][None, :])[0]
            jumps = _jumps_from_survival(surv)
            assert abs(jumps.sum() - (1.0 - surv[-1])) <= 1e-12
            assert np.all(jumps >= -1e-15)


def test_folded_reflection_equals_explicit_reflection():
    rng = np.random.default_rng(42)
    for _ in range(10):
        s = random_sample(rng, 30)
        reflected = reflect_covariates(s, (0.0, 1.0))
        grid = TimeGrid.uniform(float(s.z.max()), 20)
        x0 = float(rng.random())
        a = beran_survival(s, x0, 0.15, grid, support=(0.0, 1.0)).values
        b = beran_survival(reflected, x0, 0.15, grid).values
        assert_allclose(a, b, atol=5e-15)
        c = smoothed_beran_survival(s, x0, 0.15, 0.1, grid, support=(0.0, 1.0)).values
        d = smoothed_beran_survival(reflected, x0, 0.15, 0.1, grid).values
        assert_allclose(c, d, atol=5e-15)


@pytest.mark.parametrize("censoring", [0.2, 0.5])
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_single_curve_is_a_batch_of_one(censoring, support):
    from condsurv.estimators import _CurveBatch
    from condsurv.simulation import generate_sample, make_model

    model = make_model("model1", censoring)
    grid = TimeGrid.uniform(model.t_max, 40)
    rng = np.random.default_rng(17)
    for _ in range(60):
        s = generate_sample(model, int(rng.integers(20, 120)), rng)
        x0, h, g = float(rng.random()), 0.05 + 0.5 * rng.random(), 0.02 + 0.3 * rng.random()
        batch = _CurveBatch([s], grid.points, support=support)
        step, ok = batch.values([(x0, (h,))])[0]
        smooth, _ = batch.values([(x0, (h, g))])[0]
        assert ok[0]
        np.testing.assert_array_equal(beran_survival(s, x0, h, grid, support=support).values, step[0])
        np.testing.assert_array_equal(
            smoothed_beran_survival(s, x0, h, g, grid, support=support).values, smooth[0]
        )


def test_jump_masses_on_tied_times_match_a_per_row_reference():
    from condsurv.estimators import _CurveBatch, _query_weights

    rng = np.random.default_rng(31)
    n = 120
    samples = [SurvivalSample(x=rng.random(n), z=rng.integers(0, 7, n), delta=rng.random(n) < 0.7)
               for _ in range(5)]
    samples.insert(2, SurvivalSample(x=rng.random(n), z=rng.integers(0, 7, n), delta=np.zeros(n)))
    # rows of one time each: a row's first event ties the row before's last time
    samples += [SurvivalSample(x=rng.random(n), z=np.full(n, 6.0), delta=rng.random(n) < p) for p in (1.0, 0.5)]
    batch = _CurveBatch(samples, np.linspace(0.0, 7.0, 15), support=(0.0, 1.0))
    ok, agg = batch._jump_masses(0.4, 0.2)
    # reference: each row's event runs found and summed on their own
    w, ok_ref = _query_weights(batch._x_kern, True, 0.4, 0.2)
    jumps = _jumps_from_survival(_product_limit_rows(w, batch.d))
    agg_ref, atoms_ref, longest = np.zeros_like(agg), np.full_like(agg, np.inf), 0
    for k in range(batch.B):
        idx = np.flatnonzero(batch.d[k] == 1.0)
        if idx.size:
            z_ev = batch.z[k, idx]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(z_ev) > 0.0) + 1))
            agg_ref[k, : starts.size] = np.add.reduceat(jumps[k, idx], starts)
            atoms_ref[k, : starts.size] = z_ev[starts]
            longest = max(longest, np.diff(np.append(starts, idx.size)).max())
    assert longest == n and agg.shape == (8, 7)
    np.testing.assert_array_equal(agg, agg_ref)
    np.testing.assert_array_equal(batch._atoms, atoms_ref)
    np.testing.assert_array_equal(ok, ok_ref)
    assert not agg[2].any() and np.isinf(batch._atoms[2]).all()


def test_one_call_builds_each_g_once_and_answers_in_query_order(monkeypatch):
    # with room for one tensor, interleaved g would rebuild g1 if queries ran in the order given
    import condsurv.estimators as estimators
    from condsurv.simulation import generate_sample, make_model

    model = make_model("model1", 0.2)
    grid = TimeGrid.uniform(model.t_max, 30)
    rng = np.random.default_rng(23)
    samples = [generate_sample(model, 60, rng) for _ in range(4)]
    monkeypatch.setattr(estimators, "_TENSOR_CACHE_BYTES", 1)
    queries = [(0.4, (0.2, 0.1)), (0.4, (0.3, 0.05)), (0.4, (0.25, 0.1))]
    batch = estimators._CurveBatch(samples, grid.points, model.support)
    found = batch.values(queries)
    assert sum(batch.tensor_builds.values()) == 2
    for query, (values, ok) in zip(queries, found, strict=True):
        alone, alone_ok = estimators._CurveBatch(samples, grid.points, model.support).values([query])[0]
        np.testing.assert_array_equal(values, alone)
        np.testing.assert_array_equal(ok, alone_ok)


def test_product_limit_rows_match_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 60):
        w = rng.random((40, n)) ** 4
        w[: n // 2 + 1, n // 2 :] *= 1e-14  # tails whose at-risk mass vanishes
        w[5] = 0.0
        w[6, 0] = 1.0
        tot = w.sum(axis=1, keepdims=True)
        w = np.divide(w, tot, out=np.zeros_like(w), where=tot > 0.0)
        w[7] = 2.0 / n  # mass 2: the at-risk mass vanishes while event mass remains
        for d in (np.ones(n), rng.integers(0, 2, n).astype(float),
                  rng.integers(0, 2, (40, n)).astype(float)):
            before = w.copy()
            np.testing.assert_array_equal(_product_limit_rows(w, d), reference_product_limit_rows(w, d))
            np.testing.assert_array_equal(w, before)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_query_weights_and_sorted_product_limit_match_reference(tied, support):
    from condsurv.estimators import _query_weights, _sort_order
    from condsurv.kernels import _mirrored

    rng = np.random.default_rng(9)
    for n in (3, 25, 120):
        s = random_sample(rng, n)
        z = np.round(s.z, 1) if tied else s.z
        order = _sort_order(z, s.delta)
        x_kern = _mirrored(s.x[order], support)
        folded = support is not None
        # a column of queries, some far enough out that every weight underflows
        queries = np.concatenate([rng.random(30), [40.0, -40.0]])[:, None]
        for h in (0.01, 0.2, 3.0):
            w, ok = _query_weights(x_kern, folded, queries, h)
            w_ref, ok_ref = reference_query_weights(x_kern, folded, queries, h)
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(ok, ok_ref)
            np.testing.assert_array_equal(
                _product_limit_rows(w, s.delta[order]),
                reference_product_limit_rows(w_ref, s.delta[order]),
            )
        # one scalar query against a matrix of per-sample covariates
        x_rows = np.stack([x_kern, x_kern[::-1]])
        w, ok = _query_weights(x_rows, folded, 0.3, 0.1)
        w_ref, ok_ref = reference_query_weights(x_rows, folded, 0.3, 0.1)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(ok, ok_ref)
