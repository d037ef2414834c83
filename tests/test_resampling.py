import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from condsurv import (
    SCHEME_BERAN,
    SCHEME_SMOOTHED,
    ResamplingPlan,
    StepCDF,
    SurvivalSample,
    TimeGrid,
    beran_survival,
    conditional_step_law,
    inverse_transform_sample,
    resample,
    substream,
)
from condsurv import make_model, generate_sample

from conftest import (
    pure_product_limit,
    random_sample,
    reference_product_limit_rows,
    reference_query_weights,
)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResamplingPlan("jackknife", 0.1, 0, 10)
        with pytest.raises(ValueError):
            ResamplingPlan(SCHEME_BERAN, -0.1, 0, 10)
        with pytest.raises(ValueError):
            ResamplingPlan(SCHEME_BERAN, 0.1, 0, 0)
        with pytest.raises(ValueError):
            ResamplingPlan(SCHEME_SMOOTHED, 0.1, 0, 10)
        ResamplingPlan(SCHEME_SMOOTHED, 0.1, 0, 10, pilot_s=0.2)

    @pytest.mark.parametrize("scheme, r, s", [
        (SCHEME_BERAN, np.inf, None),
        (SCHEME_SMOOTHED, np.inf, 0.2),
        (SCHEME_SMOOTHED, 0.1, np.inf),
        (SCHEME_SMOOTHED, np.nan, 0.2),
        (SCHEME_SMOOTHED, 0.1, np.nan),
    ])
    def test_pilots_must_be_finite(self, scheme, r, s):
        with pytest.raises(ValueError, match="finite"):
            ResamplingPlan(scheme, r, 0, 10, pilot_s=s)


class TestSubstream:
    def test_deterministic_and_distinct(self):
        a = substream(7, 3).random(5)
        b = substream(7, 3).random(5)
        c = substream(7, 4).random(5)
        assert_allclose(a, b, rtol=0, atol=0)
        assert np.max(np.abs(a - c)) > 1e-3


class TestInverseTransform:
    def test_step_single_atom(self):
        cdf = StepCDF(atoms=[2.0], cum=[1.0])
        value, saturated = inverse_transform_sample(cdf, 0.5)
        assert value == 2.0 and not saturated

    def test_step_generalized_inverse(self):
        cdf = StepCDF(atoms=[1.0, 2.0, 3.0], cum=[0.2, 0.7, 1.0])
        values, sat = inverse_transform_sample(cdf, np.array([0.1, 0.2, 0.5, 0.9]))
        assert_allclose(values, [1.0, 1.0, 2.0, 3.0])
        assert not sat.any()

    def test_step_saturation(self):
        cdf = StepCDF(atoms=[1.0, 2.0], cum=[0.3, 0.6])
        value, saturated = inverse_transform_sample(cdf, 0.8)
        assert value == 2.0 and saturated

    def test_non_step_cdf_is_rejected(self):
        with pytest.raises(TypeError, match="StepCDF"):
            inverse_transform_sample(lambda t: np.clip(t, 0.0, 1.0), 0.5)


def hand_law(sample, x0, r, censoring=False):
    """Pure-python conditional law table: (atoms, probs, deficit), atoms with mass only."""
    d = [1 - di if censoring else di for di in sample.delta]
    k = [math.exp(-0.5 * ((x0 - xi) / r) ** 2) for xi in sample.x]
    w = [ki / sum(k) for ki in k]
    steps = pure_product_limit(list(sample.z), d, w)
    atoms, probs, prev = [], [], 1.0
    for zi, si in steps:
        if prev - si > 0:
            atoms.append(zi)
            probs.append(prev - si)
        prev = si
    return atoms, probs, prev  # prev = terminal survival = saturation deficit


def law_to_atom_probs(atoms, cum, max_time):
    """Turn a cdf table into {atom: prob} with the saturation atom at max_time."""
    probs = np.diff(np.concatenate(([0.0], cum)))
    out = {}
    for a, p in zip(atoms, probs):
        if p > 0:
            out[a] = out.get(a, 0.0) + p
    deficit = 1.0 - cum[-1]
    if deficit > 0:
        out[max_time] = out.get(max_time, 0.0) + deficit
    return out


def combine_min_indicator(t_law: dict, c_law: dict) -> dict:
    """Exact law of (min(T, C), I(T <= C)) for independent discrete draws."""
    out = {}
    for t, pt in t_law.items():
        for c, pc in c_law.items():
            key = (min(t, c), 1.0 if t <= c else 0.0)
            out[key] = out.get(key, 0.0) + pt * pc
    return out


class TestLawCorrectness:
    def test_five_point_enumeration(self):
        sample = SurvivalSample(
            x=[0.1, 0.3, 0.5, 0.7, 0.9],
            z=[2.0, 1.0, 4.0, 3.0, 5.0],
            delta=[1, 0, 1, 1, 0],
        )
        r = 0.45
        max_time = float(sample.z.max())
        impl_marginal: dict = {}
        oracle_marginal: dict = {}
        for xj in sample.x:
            law_t = conditional_step_law(sample, r, xj)
            law_c = conditional_step_law(sample, r, xj, censoring=True)
            impl_t = law_to_atom_probs(law_t.atoms, law_t.cum, max_time)
            impl_c = law_to_atom_probs(law_c.atoms, law_c.cum, max_time)
            atoms, probs, deficit = hand_law(sample, xj, r)
            oracle_t = dict(zip(atoms, probs))
            if deficit > 0:
                oracle_t[max_time] = oracle_t.get(max_time, 0.0) + deficit
            atoms_c, probs_c, deficit_c = hand_law(sample, xj, r, censoring=True)
            oracle_c = dict(zip(atoms_c, probs_c))
            if deficit_c > 0:
                oracle_c[max_time] = oracle_c.get(max_time, 0.0) + deficit_c

            for impl, oracle in ((impl_t, oracle_t), (impl_c, oracle_c)):
                assert set(impl) == set(oracle)
                for atom in impl:
                    assert abs(impl[atom] - oracle[atom]) <= 1e-10

            for key, prob in combine_min_indicator(impl_t, impl_c).items():
                impl_marginal[key] = impl_marginal.get(key, 0.0) + prob / sample.n
            for key, prob in combine_min_indicator(oracle_t, oracle_c).items():
                oracle_marginal[key] = oracle_marginal.get(key, 0.0) + prob / sample.n

        assert set(impl_marginal) == set(oracle_marginal)
        for key in impl_marginal:
            assert abs(impl_marginal[key] - oracle_marginal[key]) <= 1e-10
        assert abs(sum(impl_marginal.values()) - 1.0) <= 1e-10

    def test_law_matches_public_estimator(self):
        rng = np.random.default_rng(2)
        sample = random_sample(rng, 15)
        law = conditional_step_law(sample, 0.3, 0.4)
        distinct = np.unique(law.atoms)
        grid = TimeGrid(distinct)
        curve = beran_survival(sample, 0.4, 0.3, grid)
        idx = np.searchsorted(law.atoms, distinct, side="right") - 1
        assert_allclose(law.cum[idx], 1.0 - curve.values, atol=1e-12)

    def test_ks_distance_of_inverse_transform_draws(self):
        rng = np.random.default_rng(17)
        z = rng.exponential(1.0, 12)
        sample = SurvivalSample(x=rng.random(12), z=z, delta=np.ones(12))
        x0 = float(sample.x[3])
        law = conditional_step_law(sample, 0.25, x0)
        draws, sat = inverse_transform_sample(law, substream(99).random(100_000))
        assert not sat.any()
        atoms = np.unique(law.atoms)
        ecdf = np.searchsorted(np.sort(draws), atoms, side="right") / draws.size
        idx = np.searchsorted(law.atoms, atoms, side="right") - 1
        ks = np.max(np.abs(ecdf - law.cum[idx]))
        assert ks <= 0.01


class TestResample:
    def test_single_point_all_events(self):
        sample = SurvivalSample(x=[0.5], z=[2.0], delta=[1])
        plan = ResamplingPlan(SCHEME_BERAN, 0.5, 11, 5)
        out, diag = resample(sample, plan)
        for rs in out:
            assert_allclose(rs.x, [0.5])
            assert_allclose(rs.z, [2.0])
            assert_allclose(rs.delta, [1.0])

    def test_deterministic_and_prefix_stable(self):
        rng = np.random.default_rng(5)
        sample = random_sample(rng, 25)
        plan5 = ResamplingPlan(SCHEME_BERAN, 0.2, 42, 5)
        plan3 = ResamplingPlan(SCHEME_BERAN, 0.2, 42, 3)
        first, _ = resample(sample, plan5)
        second, _ = resample(sample, plan5)
        shorter, _ = resample(sample, plan3)
        for a, b in zip(first, second):
            assert_allclose(a.x, b.x, rtol=0, atol=0)
            assert_allclose(a.z, b.z, rtol=0, atol=0)
            assert_allclose(a.delta, b.delta, rtol=0, atol=0)
        for a, b in zip(first, shorter):
            assert_allclose(a.z, b.z, rtol=0, atol=0)

    def test_beran_scheme_draws_live_on_sample_atoms(self):
        rng = np.random.default_rng(6)
        sample = random_sample(rng, 20)
        plan = ResamplingPlan(SCHEME_BERAN, 0.3, 1, 10)
        out, _ = resample(sample, plan)
        atoms = set(sample.z)
        for rs in out:
            assert set(rs.x) <= set(sample.x)
            assert set(rs.z) <= atoms

    def test_model1_censoring_fraction_preserved(self):
        model = make_model("model1", 0.2)
        sample = generate_sample(model, 400, 3)
        from condsurv import pilot_r

        plan = ResamplingPlan(SCHEME_BERAN, pilot_r(sample, model.pilot_c), 8, 200)
        out, _ = resample(sample, plan, support=model.support)
        fraction = np.mean([rs.censoring_fraction for rs in out])
        assert abs(fraction - sample.censoring_fraction) <= 0.03

    def test_smoothed_scheme_properties(self):
        model = make_model("model1", 0.2)
        sample = generate_sample(model, 150, 4)
        from condsurv import pilot_r, pilot_s

        plan = ResamplingPlan(
            SCHEME_SMOOTHED, pilot_r(sample, model.pilot_c), 9, 40, pilot_s=pilot_s(sample)
        )
        out, diag = resample(sample, plan, support=model.support)
        assert len(out) == 40
        for rs in out:
            assert np.all(rs.z >= 0.0)
            assert np.all((rs.x >= 0.0) & (rs.x <= 1.0))
            assert np.all((rs.delta == 0.0) | (rs.delta == 1.0))
        again, _ = resample(sample, plan, support=model.support)
        assert_allclose(out[7].z, again[7].z, rtol=0, atol=0)
        fraction = np.mean([rs.censoring_fraction for rs in out])
        assert abs(fraction - sample.censoring_fraction) <= 0.05


def reference_smoothed_resample(sample, plan, support):
    """The smoothed scheme written with the plain reference expressions, one gather per law."""
    from condsurv.kernels import _mirrored, _noise, fold_into_support

    n, max_time = sample.n, float(sample.z.max())
    x_kern = _mirrored(sample.x, support)
    laws = [(sample.delta, np.lexsort((1.0 - sample.delta, sample.z))),
            (1.0 - sample.delta, np.lexsort((sample.delta, sample.z)))]
    out = []
    for k in range(plan.B):
        rng = substream(plan.seed, k)
        j = rng.integers(0, n, size=n)
        x_star = fold_into_support(sample.x[j] + plan.pilot_r * _noise(rng, n), support)
        draws = [(rng.random(n), _noise(rng, n)) for _ in laws]
        w, ok = reference_query_weights(x_kern, True, x_star[:, None], plan.pilot_r)
        assert ok.all()
        times = []
        for (events, order), (u, eps) in zip(laws, draws):
            cum = 1.0 - reference_product_limit_rows(w[:, order], events[order])
            sat = u >= cum[:, -1]
            step = sample.z[order][np.minimum(np.sum(cum < u[:, None], axis=1), n - 1)]
            times.append(np.where(sat, max_time, np.maximum(0.0, step + plan.pilot_s * eps)))
        t_star, c_star = times
        out.append((x_star, np.minimum(t_star, c_star), (t_star <= c_star).astype(float)))
    return out


@pytest.mark.parametrize("tied", [False, True])
def test_smoothed_scheme_matches_reference_bit_for_bit(tied):
    from condsurv import pilot_r, pilot_s

    model = make_model("model1", 0.5)
    sample = generate_sample(model, 120, 12)
    if tied:
        sample = SurvivalSample(x=sample.x, z=np.round(sample.z, 1), delta=sample.delta)
        # ties between an event and a censoring give the two laws different orders
        assert not np.array_equal(np.lexsort((1.0 - sample.delta, sample.z)),
                                  np.lexsort((sample.delta, sample.z)))
    plan = ResamplingPlan(
        SCHEME_SMOOTHED, pilot_r(sample, model.pilot_c), 3, 15, pilot_s=pilot_s(sample)
    )
    out, diag = resample(sample, plan, support=model.support)
    assert diag.retried_draws == 0
    for rs, (x, z, delta) in zip(out, reference_smoothed_resample(sample, plan, model.support)):
        np.testing.assert_array_equal(rs.x, x)
        np.testing.assert_array_equal(rs.z, z)
        np.testing.assert_array_equal(rs.delta, delta)


def reference_beran_resample(sample, plan, support):
    """The beran scheme with the plain expressions: one table per law at the sample covariates."""
    from condsurv.kernels import _mirrored

    n, max_time = sample.n, float(sample.z.max())
    laws = []
    for events in (sample.delta, 1.0 - sample.delta):
        order = np.lexsort((1.0 - events, sample.z))
        x_kern = _mirrored(sample.x[order], support)
        w, ok = reference_query_weights(x_kern, support is not None, sample.x[:, None], plan.pilot_r)
        assert ok.all()
        laws.append((sample.z[order], 1.0 - reference_product_limit_rows(w, events[order])))
    out = []
    for k in range(plan.B):
        rng = substream(plan.seed, k)
        j = rng.integers(0, n, size=n)
        times = []
        for atoms, table in laws:
            u = rng.random(n)
            cum = table[j]
            step = atoms[np.minimum(np.sum(cum < u[:, None], axis=1), n - 1)]
            times.append(np.where(u >= cum[:, -1], max_time, step))
        t_star, c_star = times
        out.append((sample.x[j], np.minimum(t_star, c_star), (t_star <= c_star).astype(float)))
    return out


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_beran_scheme_matches_reference_bit_for_bit(tied, support):
    from condsurv import pilot_r

    model = make_model("model1", 0.5)
    sample = generate_sample(model, 150, 21)
    if tied:
        sample = SurvivalSample(x=sample.x, z=np.round(sample.z, 1), delta=sample.delta)
        assert not np.array_equal(np.lexsort((1.0 - sample.delta, sample.z)),
                                  np.lexsort((sample.delta, sample.z)))
    plan = ResamplingPlan(SCHEME_BERAN, pilot_r(sample, model.pilot_c), 4, 20)
    out, diag = resample(sample, plan, support=support)
    reference = reference_beran_resample(sample, plan, support)
    assert diag.saturated_time_draws + diag.saturated_censoring_draws > 0
    for rs, (x, z, delta) in zip(out, reference, strict=True):
        np.testing.assert_array_equal(rs.x, x)
        np.testing.assert_array_equal(rs.z, z)
        np.testing.assert_array_equal(rs.delta, delta)


def _plateau_table(rng, n_rows, m):
    """Nondecreasing rows in [0, 1] with plateaus, values repeated across rows and a short terminal."""
    steps = rng.integers(0, 3, size=(n_rows, m)) * rng.choice([0.0, 0.125, 0.3], size=(n_rows, 1))
    table = np.minimum(np.cumsum(steps, axis=1) / max(m, 1), 1.0)
    table[rng.random(n_rows) < 0.3] *= 0.9  # some rows end below one, so draws saturate
    return table


def _counted_below(table, rows, atoms, u):
    """The two formulas the inversion replaced: a compare-and-sum and a per-row searchsorted."""
    by_sum = np.sum(table[rows] < u[:, None], axis=1)
    by_search = np.array([np.searchsorted(table[r], ui, side="left") for r, ui in zip(rows, u)], dtype=np.intp)
    np.testing.assert_array_equal(by_sum, by_search)
    sat = u >= table[rows, -1]
    return np.where(sat, atoms[-1], atoms[np.minimum(by_sum, atoms.size - 1)]), sat


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 64, 150])
def test_rows_inverse_matches_the_formulas_it_replaces(m):
    from condsurv.resampling import _rows_inverse

    rng = np.random.default_rng(m)
    n_rows = 12
    table = _plateau_table(rng, n_rows, m)
    atoms = np.sort(rng.random(m)) + np.arange(m)  # distinct, so each count maps to its own atom
    rows = np.concatenate([np.repeat(rng.integers(0, n_rows), 5), rng.integers(0, n_rows, 200)])
    u = rng.random(rows.size)
    # u on table entries (ties with plateaus), at zero, at and above the terminal value
    u[:60] = table[rows[:60], rng.integers(0, m, 60)]
    u[60:70] = 0.0
    u[70:80] = table[rows[70:80], -1]
    u[80:85] = np.nextafter(table[rows[80:85], -1], 2.0)
    u[85:90] = 1.0
    vals, sat = _rows_inverse(table, rows, atoms, u)
    expected_vals, expected_sat = _counted_below(table, rows, atoms, u)
    np.testing.assert_array_equal(vals, expected_vals)
    np.testing.assert_array_equal(sat, expected_sat)
    assert sat.any() and not sat.all()


def test_rows_inverse_on_product_limit_rows():
    from condsurv.estimators import _product_limit_rows
    from condsurv.resampling import _rows_inverse

    rng = np.random.default_rng(31)
    n = 40
    w = rng.random((n, n)) ** 8
    w /= w.sum(axis=1, keepdims=True)
    delta = (rng.random(n) < 0.6).astype(float)
    table = 1.0 - _product_limit_rows(w, delta)
    assert np.all(np.diff(table, axis=1) >= 0.0)
    atoms = np.sort(rng.exponential(1.0, n))
    rows = rng.integers(0, n, 5000)
    u = rng.random(rows.size)
    for got, expected in zip(_rows_inverse(table, rows, atoms, u), _counted_below(table, rows, atoms, u)):
        np.testing.assert_array_equal(got, expected)


def test_step_inverse_matches_searchsorted_on_ties():
    cdf = StepCDF(atoms=[1.0, 2.0, 2.5, 3.0, 4.0, 5.0], cum=[0.2, 0.2, 0.5, 0.5, 0.5, 0.9])
    u = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.9, 0.95, 1.0])
    values, sat = inverse_transform_sample(cdf, u)
    idx = np.minimum(np.searchsorted(cdf.cum, u, side="left"), cdf.atoms.size - 1)
    np.testing.assert_array_equal(values, np.where(u >= 0.9, 5.0, cdf.atoms[idx]))
    np.testing.assert_array_equal(sat, u >= 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_inverse_transform_rejects_non_finite_u(bad, as_array):
    u = np.array([0.3, bad]) if as_array else bad
    with pytest.raises(ValueError, match="finite"):
        inverse_transform_sample(StepCDF(atoms=[1.0, 2.0], cum=[0.4, 1.0]), u)


@pytest.mark.parametrize("atoms, cum", [
    ([1.0, 2.0, 3.0], [np.nan, 0.5, 1.0]),
    ([1.0, 2.0, 3.0], [0.2, 0.5, np.inf]),
    ([1.0, np.nan, 3.0], [0.2, 0.5, 1.0]),
    ([-np.inf, 2.0, 3.0], [0.2, 0.5, 1.0]),
])
def test_step_cdf_rejects_non_finite_input(atoms, cum):
    # a nan cum would make every running maximum nan, and every u would invert to the first atom
    with pytest.raises(ValueError, match="finite"):
        StepCDF(atoms=atoms, cum=cum)


def test_step_inverse_is_the_generalized_inverse_on_a_tolerated_dip():
    # cum may dip by up to 1e-12; inf{t : F(t) >= u} is still the first atom
    cdf = StepCDF(atoms=[1.0, 2.0, 3.0], cum=[0.5, 0.5 - 1e-13, 1.0])
    assert inverse_transform_sample(cdf, 0.5 - 5e-14) == (1.0, False)
    np.testing.assert_array_equal(cdf.cum, [0.5, 0.5, 1.0])


def _block_budget(monkeypatch, sample, support, rows):
    """Shrink the resampler's block budget to `rows` query rows of kernel weights."""
    from condsurv import resampling

    width = sample.n * (3 if support is not None else 1)
    monkeypatch.setattr(resampling, "_BLOCK_BYTES", 8 * width * rows)


@pytest.mark.parametrize("rows", [1, 7, 64])
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_beran_scheme_matches_reference_in_small_blocks(monkeypatch, rows, tied, support):
    # 150 rows in blocks of 1, 7 (last block of 3) and 64 (last block of 22)
    model = make_model("model1", 0.5)
    sample = generate_sample(model, 150, 21)
    _block_budget(monkeypatch, sample, support, rows)
    test_beran_scheme_matches_reference_bit_for_bit(tied, support)
    # the reference test's row draws (seed 4, B=20) land in every block, so every block inverts some
    j = np.concatenate([substream(4, k).integers(0, sample.n, size=sample.n) for k in range(20)])
    assert np.unique(j // rows).size == -(-sample.n // rows)


@pytest.mark.parametrize("rows", [1, 7, 50])
@pytest.mark.parametrize("tied", [False, True])
def test_smoothed_scheme_matches_reference_in_small_blocks(monkeypatch, rows, tied):
    # 15 replicates of 120 draws: blocks of 7 and 50 rows straddle replicates
    model = make_model("model1", 0.5)
    _block_budget(monkeypatch, generate_sample(model, 120, 12), model.support, rows)
    test_smoothed_scheme_matches_reference_bit_for_bit(tied)


@pytest.mark.parametrize("rows", [1, 7, 33])
def test_retries_inside_small_blocks(monkeypatch, rows):
    # covariate noise pushed far outside the sample leaves rows with no kernel mass; each is retried
    # at the nearest sample covariate inside the block it falls in, whatever the block size
    from condsurv import kernels, pilot_r, pilot_s

    original = kernels._noise
    calls = []

    def far_noise(rng, size):
        noise = original(rng, size)
        if len(calls) % 3 == 0:  # the covariate noise comes first in each replicate
            noise[::9] = np.where(noise[::9] < 0.0, -1e3, 1e3)
        calls.append(size)
        return noise

    monkeypatch.setattr(kernels, "_noise", far_noise)
    model = make_model("model1", 0.5)
    sample = generate_sample(model, 100, 8)
    plan = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(sample, model.pilot_c), 5, 6, pilot_s=pilot_s(sample))
    whole, whole_diag = resample(sample, plan)
    calls.clear()
    _block_budget(monkeypatch, sample, None, rows)
    blocked, diag = resample(sample, plan)
    assert diag == whole_diag
    assert diag.retried_draws == plan.B * len(range(0, sample.n, 9))
    for a, b in zip(whole, blocked, strict=True):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.delta, b.delta)
        assert set(b.x[::9]) <= {sample.x.min(), sample.x.max()}
    # the retried rows draw from the laws at their new covariates; rows left without weights would saturate
    retried_z = np.concatenate([b.z[::9] for b in blocked])
    assert np.mean(retried_z == sample.z.max()) < 0.5


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_laws_equal_separate_cdf_rows(tied, support):
    # with one column order the laws share their at-risk mass; both must equal their own full-row cdf at
    # their event columns
    from condsurv.estimators import _product_limit_rows, _sort_order
    from condsurv.kernels import _mirrored
    from condsurv.resampling import _conditional_laws

    model = make_model("model1", 0.5)
    sample = generate_sample(model, 90, 3)
    if tied:
        sample = SurvivalSample(x=sample.x, z=np.round(sample.z, 1), delta=sample.delta)
    events = (sample.delta, 1.0 - sample.delta)
    orders = [_sort_order(sample.z, e) for e in events]
    assert np.array_equal(*orders) is not tied
    w, ok = reference_query_weights(_mirrored(sample.x, support), support is not None, sample.x[:, None], 0.1)
    assert ok.all()
    _, columns, _, laws = _conditional_laws(sample, 0.1, support)
    for law, cols, e, order in zip(laws(sample.x), columns, events, orders, strict=True):
        np.testing.assert_array_equal(law[:, 1:], (1.0 - _product_limit_rows(w[:, order], e[order]))[:, cols[1:]])


def test_step_law_without_kernel_mass_raises():
    from condsurv.errors import DegenerateWeightsError

    sample = random_sample(np.random.default_rng(4), 20)
    with pytest.raises(DegenerateWeightsError, match="no kernel mass"):
        conditional_step_law(sample, 0.01, 50.0)


def test_beran_resample_memory_is_bounded():
    # one n x 3n weight matrix would take 96 MB here; the row blocks need a few
    import tracemalloc

    from condsurv import pilot_r

    model = make_model("model1", 0.2)
    sample = generate_sample(model, 2000, 5)
    plan = ResamplingPlan(SCHEME_BERAN, pilot_r(sample, model.pilot_c), 1, 2)
    tracemalloc.start()
    try:
        resample(sample, plan, support=model.support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# Each law's table holds only its event columns.  `full_row_laws` is the builder it replaced: every
# column of each law's order through the full-row product-limit, with the same retries and blocks.
def full_row_laws(sample, bandwidth, support):
    from condsurv import resampling
    from condsurv.estimators import _product_limit_rows, _query_weights, _sort_order
    from condsurv.kernels import _mirrored

    x_kern, folded = _mirrored(sample.x, support), support is not None
    laws = [(e, _sort_order(sample.z, e)) for e in (sample.delta, 1.0 - sample.delta)]

    def rows(block, diag=None):
        w, ok = _query_weights(x_kern, folded, block[:, None], bandwidth)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            diag.retried_draws += bad.size
            block[bad] = sample.x[np.abs(sample.x[None, :] - block[bad, None]).argmin(axis=1)]
            w[bad] = _query_weights(x_kern, folded, block[bad, None], bandwidth)[0]
        return [1.0 - _product_limit_rows(w[:, order], e[order]) for e, order in laws]

    block_rows = max(1, resampling._BLOCK_BYTES // (8 * x_kern.size))
    return [sample.z[order] for _, order in laws], [np.arange(sample.n)] * 2, block_rows, rows


def _event_column_case(name):
    sample = generate_sample(make_model("model1", 0.5), 120, 12)
    if name == "tied":
        sample = SurvivalSample(x=sample.x, z=np.round(sample.z, 1), delta=sample.delta)
    elif name == "all-events":  # the censoring law has no event column
        sample = SurvivalSample(x=sample.x, z=sample.z, delta=np.ones(sample.n))
    elif name == "largest-censored":  # a saturated lifetime draw returns a censored time
        delta = sample.delta.copy()
        delta[np.argmax(sample.z)] = 0.0
        sample = SurvivalSample(x=sample.x, z=sample.z, delta=delta)
    return sample


EVENT_COLUMN_CASES = ["untied", "tied", "all-events", "largest-censored"]


@pytest.mark.parametrize("case", EVENT_COLUMN_CASES)
@pytest.mark.parametrize("support", [None, (0.0, 1.0)])
def test_event_column_tables_and_inversion_equal_full_rows(case, support):
    from condsurv.estimators import _sort_order
    from condsurv.resampling import _conditional_laws, _rows_inverse

    sample = _event_column_case(case)
    queries = np.linspace(0.0, 1.0, 23)
    atoms, columns, _, laws = _conditional_laws(sample, 0.1, support)
    full_atoms, _, _, full_rows = full_row_laws(sample, 0.1, support)
    for law, (table, full) in enumerate(zip(laws(queries.copy()), full_rows(queries.copy()), strict=True)):
        events = (sample.delta, 1.0 - sample.delta)[law]
        np.testing.assert_array_equal(atoms[law], full_atoms[law])
        np.testing.assert_array_equal(columns[law][1:], np.flatnonzero(events[_sort_order(sample.z, events)]))
        assert not table[:, 0].any()
        np.testing.assert_array_equal(table[:, 1:], full[:, columns[law][1:]])
        # per row: u = 0, every table value and the next double above it, the terminal value, and beyond it
        u = np.concatenate([np.concatenate([[0.0], t, np.nextafter(t, 2.0), [t[-1], 1.0 - 1e-16]]) for t in table])
        rows = np.repeat(np.arange(queries.size), 2 * table.shape[1] + 3)
        draw_atoms = np.append(atoms[law][columns[law]], atoms[law][-1])
        got, got_sat = _rows_inverse(table, rows, draw_atoms, u)
        expected, expected_sat = _rows_inverse(full, rows, full_atoms[law], u)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got_sat, expected_sat)
        # u = 0 reads the first atom, unless the law has no event and every draw saturates
        assert np.all(got[(u == 0.0) & ~got_sat] == atoms[law][0]) and got_sat.any()
        if case == "largest-censored" and law == 0:
            assert np.all(got[got_sat] == sample.z.max()) and sample.z.max() not in draw_atoms[:-1]
        # the step law expands the table to every atom, so it is the full row
        for q in range(0, queries.size, 5):
            step = conditional_step_law(sample, 0.1, queries[q], support, censoring=bool(law))
            np.testing.assert_array_equal(step.cum, full[q])


@pytest.mark.parametrize("case, scheme", [(c, s) for c in EVENT_COLUMN_CASES for s in (SCHEME_BERAN, SCHEME_SMOOTHED)]
                         + [("retried", SCHEME_SMOOTHED)])
@pytest.mark.parametrize("rows", [7, None])
def test_resample_draws_equal_full_row_draws(monkeypatch, case, scheme, rows):
    from condsurv import kernels, resampling

    sample = _event_column_case("untied" if case == "retried" else case)
    # reflection would fold the far covariates of the retried case back into the support
    support = None if case == "retried" else (0.0, 1.0)
    if case == "retried":
        original = kernels._noise
        calls = []

        def far_noise(rng, size):  # as in test_retries_inside_small_blocks
            noise = original(rng, size)
            if len(calls) % 3 == 0:
                noise[::9] = np.where(noise[::9] < 0.0, -1e3, 1e3)
            calls.append(size)
            return noise

        monkeypatch.setattr(kernels, "_noise", far_noise)
    if rows is not None:  # blocks of 7 rows straddle the smoothed scheme's replicates
        _block_budget(monkeypatch, sample, support, rows)
    plan = ResamplingPlan(scheme, 0.1, 6, 8, pilot_s=0.05 if scheme == SCHEME_SMOOTHED else None)
    out, diag = resample(sample, plan, support=support)
    monkeypatch.setattr(resampling, "_conditional_laws", full_row_laws)
    if case == "retried":
        calls.clear()
    expected, expected_diag = resample(sample, plan, support=support)
    assert diag == expected_diag
    assert (diag.retried_draws > 0) == (case == "retried")
    if case == "largest-censored":
        assert diag.saturated_time_draws > 0
    if case == "all-events":
        assert diag.saturated_censoring_draws == plan.B * sample.n
    for a, b in zip(out, expected, strict=True):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.delta, b.delta)
