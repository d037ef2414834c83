import numpy as np
import pytest

from condsurv import (
    SCHEME_BERAN,
    SCHEME_SMOOTHED,
    ResamplingPlan,
    SurvivalSample,
    TimeGrid,
    default_covariate_box,
    default_time_box,
    integrate_on_grid,
    pilot_r,
    pilot_s,
    select_bandwidth_1d,
    select_bandwidth_2d,
)
from condsurv import bandwidth
from condsurv.bandwidth import _best_traced, _mean_integrated_sq, _quantile, _search
from condsurv.estimators import _CurveBatch, _sample_curves
from condsurv.resampling import resample
from condsurv.errors import NoEventsError, SelectionFailedError

from conftest import eval_steps, pure_product_limit, random_sample


@pytest.mark.parametrize("values", [
    np.random.default_rng(4).normal(size=40),  # a lerp from the lower end alone is off by an ulp at q = 0.025, 0.5
    np.round(np.random.default_rng(4).exponential(size=40), 1),  # ties
    [2.5, -1.0],
    [0.7],
])
@pytest.mark.parametrize("q", [0.025, 0.5, 0.95, 0.975])
def test_quantile_equals_numpys_linear_quantile_bit_for_bit(values, q):
    assert _quantile(values, q) == np.quantile(values, q)


class TestPilots:
    def test_pilot_r_fixture(self):
        # spread is exactly 0.95 for linspace(0, 1, 64); 64 events give 1/4
        s = SurvivalSample(x=np.linspace(0, 1, 64), z=np.ones(64), delta=np.ones(64))
        assert pilot_r(s, 1.5) == pytest.approx(1.5 * 0.475 * 0.25, rel=1e-12)
        assert pilot_r(s, 1.5) == pytest.approx(0.178125, rel=1e-12)

    def test_pilot_r_single_event(self):
        s = SurvivalSample(x=np.linspace(0, 1, 41), z=np.ones(41), delta=[1] + [0] * 40)
        spread = 0.95
        assert pilot_r(s, 1.5) == pytest.approx(1.5 * spread / 2, rel=1e-12)

    def test_pilot_r_scale_equivariance(self):
        rng = np.random.default_rng(1)
        s = random_sample(rng, 60)
        scaled = SurvivalSample(x=3.5 * s.x, z=s.z, delta=s.delta)
        assert pilot_r(scaled, 1.5) == pytest.approx(3.5 * pilot_r(s, 1.5), rel=1e-12)

    def test_pilot_s_fixture(self):
        z = np.linspace(1.0, 1.0 + 2.0 / 0.95, 128)
        s = SurvivalSample(x=np.zeros(128), z=z, delta=np.ones(128))
        assert pilot_s(s) == pytest.approx(0.75, rel=1e-12)

    def test_pilot_s_single_event(self):
        z = np.linspace(0.0, 1.0, 41)
        s = SurvivalSample(x=np.zeros(41), z=z, delta=[1] + [0] * 40)
        assert pilot_s(s) == pytest.approx(0.75 * 0.95, rel=1e-12)

    def test_pilot_s_scale_equivariance(self):
        rng = np.random.default_rng(2)
        s = random_sample(rng, 60)
        scaled = SurvivalSample(x=s.x, z=2.25 * s.z, delta=s.delta)
        assert pilot_s(scaled) == pytest.approx(2.25 * pilot_s(s), rel=1e-12)

    def test_no_events(self):
        s = SurvivalSample(x=[0.1, 0.2], z=[1.0, 2.0], delta=[0, 0])
        with pytest.raises(NoEventsError):
            pilot_r(s, 1.5)
        with pytest.raises(NoEventsError):
            pilot_s(s)


def hand_mise(resamples, pilot_steps, h_weights_uniform_n, grid, pilot_at):
    """Reference bootstrap MISE via the plain-loop product limit."""
    total = 0.0
    widths = np.diff(grid.points, prepend=0.0)
    for rs in resamples:
        steps = pure_product_limit(list(rs.z), list(rs.delta), [1 / rs.n] * rs.n)
        vals = np.array([eval_steps(steps, t) for t in grid.points])
        total += float(((vals - pilot_at) ** 2) @ widths)
    return total / len(resamples)


def objective_at(sample, x0, bandwidths, plan, grid, resamples=None):
    """The bootstrap MISE at (h,) or (h, g), read off a grid selection whose boxes start there.

    Each box runs on to 1000, where the weights are near uniform and the value
    is finite, so the search has a finite point even when the candidate has none.
    """
    select = select_bandwidth_1d if len(bandwidths) == 1 else select_bandwidth_2d
    selection = select(sample, x0, *((b, 1e3) for b in bandwidths), plan, grid, strategy="grid", grid_size=2,
                       resamples=resamples)
    *point, value = selection.objective_trace[0]
    assert tuple(point) == bandwidths
    return value


class TestObjectives:
    def setup_method(self):
        self.sample = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 0, 1])
        self.grid = TimeGrid([1.0, 2.0, 3.0, 4.0])
        self.plan = ResamplingPlan(SCHEME_BERAN, 0.4, 0, 2)

    def test_zero_when_resample_is_sample_and_h_is_r(self):
        plan = ResamplingPlan(SCHEME_BERAN, 0.4, 0, 1)
        value = objective_at(self.sample, 0.5, (0.4,), plan, self.grid, resamples=[self.sample])
        assert value == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 5, 8)
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        for h in (0.05, 0.2, 1.0):
            assert objective_at(s, 0.5, (h,), plan, grid) >= 0.0

    def test_hand_riemann_sum(self):
        rs1 = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 1, 1])
        rs2 = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[0, 1, 1])
        pilot_steps = pure_product_limit([1.0, 2.0, 3.0], [1, 0, 1], [1 / 3] * 3)
        pilot_at = np.array([eval_steps(pilot_steps, t) for t in self.grid.points])
        oracle = hand_mise([rs1, rs2], pilot_steps, None, self.grid, pilot_at)
        value = objective_at(self.sample, 0.5, (2.0,), self.plan, self.grid, resamples=[rs1, rs2])
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_candidate_is_infinite(self):
        s = SurvivalSample(x=[0.0, 1.0], z=[1.0, 2.0], delta=[1, 1])
        plan = ResamplingPlan(SCHEME_BERAN, 0.5, 0, 3)
        grid = TimeGrid([0.5, 1.5, 2.5])
        assert objective_at(s, 0.5, (0.004,), plan, grid) == np.inf

    def test_common_random_numbers(self):
        rng = np.random.default_rng(4)
        s = random_sample(rng, 25)
        plan = ResamplingPlan(SCHEME_BERAN, 0.3, 77, 10)
        grid = TimeGrid.uniform(2.0, 15)
        a = objective_at(s, 0.4, (0.22,), plan, grid)
        b = objective_at(s, 0.4, (0.22,), plan, grid)
        assert a == b

    def test_mise_2d_zero_and_hand_sum(self):
        plan = ResamplingPlan(SCHEME_SMOOTHED, 0.4, 0, 1, pilot_s=0.3)
        value = objective_at(self.sample, 0.5, (0.4, 0.3), plan, self.grid, resamples=[self.sample])
        assert value == pytest.approx(0.0, abs=1e-28)
        from scipy.special import ndtr

        rs1 = SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 1, 1])
        plan2 = ResamplingPlan(SCHEME_SMOOTHED, 0.4, 0, 1, pilot_s=0.5)
        g = 0.5

        def smooth_vals(z, delta):
            steps = pure_product_limit(list(z), list(delta), [1 / 3] * 3)
            prev, jumps = 1.0, []
            for _, s_val in steps:
                jumps.append(prev - s_val)
                prev = s_val
            zs = [zi for zi, _ in steps]
            return np.array(
                [1.0 - sum(j * ndtr((t - zi) / g) for j, zi in zip(jumps, zs)) for t in self.grid.points]
            )

        pilot = smooth_vals([1.0, 2.0, 3.0], [1, 0, 1])
        vals = smooth_vals([1.0, 2.0, 3.0], [1, 1, 1])
        widths = np.diff(self.grid.points, prepend=0.0)
        oracle = float(((vals - pilot) ** 2) @ widths)
        value = objective_at(self.sample, 0.5, (0.4, g), plan2, self.grid, resamples=[rs1])
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_scheme_mismatch_rejected(self):
        plan = ResamplingPlan(SCHEME_SMOOTHED, 0.4, 0, 2, pilot_s=0.3)
        with pytest.raises(ValueError, match="^select_bandwidth_1d requires a beran-scheme plan$"):
            select_bandwidth_1d(self.sample, 0.5, (0.3, 1.0), plan, self.grid)
        with pytest.raises(ValueError, match="^select_bandwidth_2d requires a smoothed-beran-scheme plan$"):
            select_bandwidth_2d(self.sample, 0.5, (0.3, 1.0), (0.2, 1.0), self.plan, self.grid)


class TestRiemannRule:
    def test_doubling_grid_changes_little_on_smooth_curves(self):
        from condsurv import make_model

        model = make_model("model1", 0.2)
        t_max = model.t_max

        def integral(n_pts):
            grid = TimeGrid.uniform(t_max, n_pts)
            f = (model.true_survival(grid.points, 0.6) - model.true_survival(grid.points, 0.4)) ** 2
            return integrate_on_grid(f, grid)

        a, b = integral(100), integral(200)
        assert abs(b - a) / a <= 0.01


def _best_of(objective, boxes, strategy, grid_size, trace):
    """The best entry of one search of `objective` by the search driver; its evaluations go to `trace`."""
    trace += _search(lambda queries: [objective(*point) for _, point in queries], [0.5], boxes, strategy,
                     grid_size)[0]
    return _best_traced(trace)


class TestMinimizers:
    def test_grid_parabola_middle_point(self):
        trace = []
        best, _ = _best_of(lambda h: (h - 0.5) ** 2, ((0.0001, 1.0),), "grid", 3, trace)
        assert best == pytest.approx(0.50005, abs=1e-12)
        assert len(trace) == 3

    def test_separable_quadratic_2d(self):
        a, b = 0.4, 0.7
        trace = []
        h, g, _ = _best_of(
            lambda x, y: (x - a) ** 2 + (y - b) ** 2,
            ((0.1, 1.0), (0.1, 1.0)), "grid", 4, trace,
        )
        assert h == pytest.approx(0.4, abs=1e-12)
        assert g == pytest.approx(0.7, abs=1e-12)
        assert len(trace) == 16

    def test_multistart_on_smooth_objective(self):
        trace = []
        best, _ = _best_of(lambda h: (h - 0.37) ** 2, ((0.01, 2.0),), "multistart", 0, trace)
        assert best == pytest.approx(0.37, abs=1e-4)

    @pytest.mark.parametrize("objective", [
        lambda h, g: h + g,
        lambda h, g: -h - g,
        lambda h, g: np.sin(9.0 * h) * np.cos(7.0 * g) + 0.3 * h,
    ])
    def test_multistart_is_deterministic_and_stays_in_the_box(self, objective):
        boxes = ((0.05, 1.3), (0.02, 0.9))
        traces = ([], [])
        results = [_best_of(objective, boxes, "multistart", 0, trace) for trace in traces]
        assert results[0] == results[1] and traces[0] == traces[1]
        points = np.array(traces[0])[:, :2]
        lo, hi = np.array(boxes).T
        assert (points >= lo).all() and (points <= hi).all()
        assert len({tuple(p) for p in points}) == len(points)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_multistart_finds_the_global_well(self, dims):
        local, deep = np.array([0.4, 0.7])[:dims], np.array([1.6, 0.2])[:dims]

        def two_wells(*theta):
            p = np.array(theta)
            return float(-np.exp(-np.sum((p - local) ** 2) / 0.1)
                         - 1.5 * np.exp(-np.sum((p - deep) ** 2) / 0.03))

        best = _best_of(two_wells, ((0.05, 2.0), (0.01, 1.0))[:dims], "multistart", 0, [])
        assert np.allclose(best[:-1], deep, rtol=0, atol=1e-3)

    def test_all_infinite_raises(self):
        with pytest.raises(SelectionFailedError):
            _best_of(lambda h: float("inf"), ((0.01, 1.0),), "grid", 4, [])


class TestSelection:
    def test_respects_bounds_and_trace(self):
        rng = np.random.default_rng(5)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 3, 10)
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        box = default_covariate_box(s)
        sel = select_bandwidth_1d(s, 0.5, box, plan, grid, strategy="grid", grid_size=17)
        assert box[0] <= sel.h_star <= box[1]
        assert len(sel.objective_trace) == 17
        assert sel.B == 10 and sel.seed == 3
        assert sel.pilot_r == plan.pilot_r

    def test_grid_and_multistart_agree_within_one_cell(self):
        rng = np.random.default_rng(6)
        hits = 0
        for trial in range(20):
            s = random_sample(rng, 30)
            plan = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 100 + trial, 10)
            grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
            box = default_covariate_box(s)
            cell = (box[1] - box[0]) / 63
            a = select_bandwidth_1d(s, 0.5, box, plan, grid, strategy="grid", grid_size=64)
            b = select_bandwidth_1d(s, 0.5, box, plan, grid, strategy="multistart")
            if abs(a.h_star - b.h_star) <= cell:
                hits += 1
        # the bootstrap objective can be multimodal at tiny B; most runs agree
        assert hits >= 16

    def test_selection_deterministic(self):
        rng = np.random.default_rng(7)
        s = random_sample(rng, 25)
        plan = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 11, 8)
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 15)
        box = default_covariate_box(s)
        a = select_bandwidth_1d(s, 0.5, box, plan, grid)
        b = select_bandwidth_1d(s, 0.5, box, plan, grid)
        assert a.h_star == b.h_star

    def test_a_beran_plan_rejects_a_pilot_s(self):
        # neither the beran resampler nor its pilot curve uses pilot_s, so a plan carrying one would misrecord it
        with pytest.raises(ValueError, match="^beran plans take no pilot_s, got 0.2$"):
            ResamplingPlan(SCHEME_BERAN, 0.1, 12, 6, pilot_s=0.2)

    def test_an_unknown_strategy_is_rejected_before_any_resample(self, monkeypatch):
        monkeypatch.setattr(bandwidth, "resample", lambda *a, **k: pytest.fail("resamples were drawn"))
        s = random_sample(np.random.default_rng(8), 30)
        plan = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 12, 6)
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 15)
        with pytest.raises(ValueError, match="^unknown strategy: 'bogus'$"):
            select_bandwidth_1d(s, 0.5, (0.1, 0.5), plan, grid, strategy="bogus")

    def test_selection_failed_when_pilot_far(self):
        s = SurvivalSample(x=[0.0, 1.0], z=[1.0, 2.0], delta=[1, 1])
        plan = ResamplingPlan(SCHEME_BERAN, 0.5, 0, 3)
        grid = TimeGrid([0.5, 1.5, 2.5])
        with pytest.raises(SelectionFailedError):
            select_bandwidth_1d(s, 0.5, (0.002, 0.006), plan, grid, strategy="grid", grid_size=4)

    def test_search_boxes_must_be_finite(self):
        rng = np.random.default_rng(9)
        s = random_sample(rng, 30)
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 10)
        beran = ResamplingPlan(SCHEME_BERAN, pilot_r(s, 1.5), 21, 3)
        smoothed = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(s, 1.5), 21, 3, pilot_s=pilot_s(s))
        with pytest.raises(ValueError, match="finite bounds"):
            select_bandwidth_1d(s, 0.5, (0.1, np.inf), beran, grid, strategy="grid", grid_size=3)
        with pytest.raises(ValueError, match="finite bounds"):
            select_bandwidth_2d(s, 0.5, (0.1, 0.5), (0.05, np.inf), smoothed, grid, strategy="grid", grid_size=3)

    def test_select_2d_box_and_mesh(self):
        rng = np.random.default_rng(9)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(
            SCHEME_SMOOTHED, pilot_r(s, 1.5), 21, 8, pilot_s=pilot_s(s)
        )
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        box_h = default_covariate_box(s)
        box_g = default_time_box(s)
        sel = select_bandwidth_2d(s, 0.5, box_h, box_g, plan, grid, strategy="grid", grid_size=7)
        assert len(sel.objective_trace) == 49
        assert box_h[0] <= sel.h_star <= box_h[1]
        assert box_g[0] <= sel.g_star <= box_g[1]
        assert sel.pilot_s == plan.pilot_s

    def _search_2d(self, seed):
        rng = np.random.default_rng(seed)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(s, 1.5), 21, 8, pilot_s=pilot_s(s))
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        rs = resample(s, plan)[0]
        sel = select_bandwidth_2d(s, 0.5, default_covariate_box(s), default_time_box(s), plan, grid,
                                  resamples=rs)
        return s, plan, grid, rs, sel

    def test_2d_search_builds_each_tensor_once(self):
        for seed in (9, 10):
            sel = self._search_2d(seed)[-1]
            trace = sel.objective_trace
            assert sel.search == {
                "objective_evals": len(trace),
                "nonfinite_evals": sum(not np.isfinite(entry[-1]) for entry in trace),
                "tensor_builds": len({entry[1] for entry in trace}),
            }

    def test_a_tensor_build_is_ndtr_of_the_offsets_over_g(self):
        from scipy.special import ndtr

        s, plan, grid, rs, sel = self._search_2d(9)
        batch = _CurveBatch(rs, grid.points)
        batch.values([(0.5, (0.3, 0.1))])
        for g in (0.1, sel.g_star):
            expected = ndtr((grid.points[None, :, None] - batch._atoms[:, None, :]) / g)
            assert batch._ik_tensor(g).tobytes() == expected.tobytes()
        assert sel.search["tensor_builds"] == 40  # the search's 40 distinct g, each built once

    def test_2d_grid_computes_each_h_jump_masses_once(self, monkeypatch):
        # g is the outer loop, so every h of the 32-point axis is asked for once per g
        calls = []
        original = _CurveBatch._jump_masses

        def counted(batch, x0, h):
            calls.append(h)
            return original(batch, x0, h)

        monkeypatch.setattr(_CurveBatch, "_jump_masses", counted)
        rng = np.random.default_rng(9)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(s, 1.5), 21, 4, pilot_s=pilot_s(s))
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        box_h = default_covariate_box(s)
        select_bandwidth_2d(s, 0.5, box_h, default_time_box(s), plan, grid, strategy="grid",
                            grid_size=32)
        # one computation per grid h, plus the pilot curve's at pilot_r
        assert sorted(calls) == sorted([*(float(h) for h in np.linspace(*box_h, 32)), plan.pilot_r])

    @pytest.mark.parametrize("seed", [9, 10])
    def test_2d_multistart_computes_each_h_jump_masses_once(self, monkeypatch, seed):
        calls = []
        original = _CurveBatch._jump_masses

        def counted(batch, x0, h):
            if batch.B > 1:  # not the pilot curve's batch of one
                calls.append(h)
            return original(batch, x0, h)

        monkeypatch.setattr(_CurveBatch, "_jump_masses", counted)
        sel = self._search_2d(seed)[-1]
        assert sorted(calls) == sorted({entry[0] for entry in sel.objective_trace})

    def test_a_full_tensor_budget_frees_a_tensor_before_building_one(self, monkeypatch):
        import gc
        import weakref

        import condsurv.estimators as estimators

        s, plan, grid, rs, sel = self._search_2d(9)
        probe = _CurveBatch(rs, grid.points)
        probe.values([(0.5, (0.3, 0.1))])
        monkeypatch.setattr(estimators, "_TENSOR_CACHE_BYTES", 2 * next(iter(probe._tensors.values())).nbytes)
        built = []
        original = _CurveBatch._ik_tensor

        def tracked(batch, g):
            if batch.B == 1:  # the pilot curve's batch
                return original(batch, g)
            gc.collect()
            assert sum(ref() is not None for ref in built) <= 1
            tensor = original(batch, g)
            built.append(weakref.ref(tensor))
            return tensor

        monkeypatch.setattr(_CurveBatch, "_ik_tensor", tracked)
        again = select_bandwidth_2d(s, 0.5, default_covariate_box(s), default_time_box(s), plan, grid,
                                    resamples=rs)
        assert again.objective_trace == sel.objective_trace
        assert again.search["tensor_builds"] > sel.search["tensor_builds"]

    def test_a_level_drops_the_tensors_it_does_not_use_before_it_builds(self, monkeypatch):
        import gc
        import weakref

        from condsurv.bandwidth import _select

        s, plan, grid, rs, _ = self._search_2d(9)
        level: dict = {}
        built = []  # (g, weak reference to the tensor)
        checked = []  # the tensors alive at each level's first build
        original_values, original_build = _CurveBatch.values, _CurveBatch._ik_tensor

        def values(batch, queries, *rest):
            if batch.B > 1:
                queries = list(queries)
                level.update(g={point[1] for _, point in queries}, first=True)
            return original_values(batch, queries, *rest)

        def tracked(batch, g):
            if batch.B > 1 and level.pop("first", False):
                gc.collect()
                alive = [held for held, ref in built if ref() is not None]
                assert set(alive) <= level["g"]
                checked.append(alive)
            tensor = original_build(batch, g)
            if batch.B > 1:
                built.append((g, weakref.ref(tensor)))
            return tensor

        monkeypatch.setattr(_CurveBatch, "values", values)
        monkeypatch.setattr(_CurveBatch, "_ik_tensor", tracked)
        _select(s, [0.3, 0.5, 0.7], (default_covariate_box(s), default_time_box(s)), plan, grid,
                "multistart", 20, None, rs)
        assert len(checked) > 1 and any(checked)  # later levels build while reused tensors are held

    def test_2d_grid_beyond_the_default_cache_computes_each_h_once(self, monkeypatch):
        # a 33-point h axis: each h recurs once per g within the one mesh level
        calls = []
        original = _CurveBatch._jump_masses

        def counted(batch, x0, h):
            calls.append((x0, h))
            return original(batch, x0, h)

        monkeypatch.setattr(_CurveBatch, "_jump_masses", counted)
        rng = np.random.default_rng(9)
        s = random_sample(rng, 30)
        plan = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(s, 1.5), 21, 4, pilot_s=pilot_s(s))
        grid = TimeGrid.uniform(float(np.quantile(s.z, 0.9)), 20)
        box_h = default_covariate_box(s)
        sel = select_bandwidth_2d(s, 0.5, box_h, default_time_box(s), plan, grid, strategy="grid",
                                  grid_size=33)
        assert len(sel.objective_trace) == 33 * 33
        assert len(calls) == len(set(calls))
        assert sorted(h for _, h in calls) == sorted([*(float(h) for h in np.linspace(*box_h, 33)), plan.pilot_r])

    def test_trace_values_equal_fresh_batches_bit_for_bit(self):
        s, plan, grid, rs, sel = self._search_2d(9)
        pilot = _sample_curves(s, [(0.5, (plan.pilot_r, plan.pilot_s))], grid.points, None)[0]
        warm = _CurveBatch(rs, grid.points)
        for h, g, value in sel.objective_trace:
            cold_values, cold_ok = _CurveBatch(rs, grid.points).values([(0.5, (h, g))])[0]
            warm.values([(0.5, (h, 1.5 * g))])  # the per-h part is now cached
            warm_values, warm_ok = warm.values([(0.5, (h, g))])[0]
            assert np.array_equal(warm_values, cold_values) and np.array_equal(warm_ok, cold_ok)
            assert _mean_integrated_sq(cold_values, cold_ok, pilot, grid.cell_widths) == value
