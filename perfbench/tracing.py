"""Spans around calls into condsurv's layers, and the per-layer metrics.

A span records name (``<module>.<function>``), start, end, parent and run
id.  Spans stay in memory and are written out once, when the run ends.  The
traced run replays the workload in-process (see ``workloads.replay``) and
then probes every layer the replay did not reach, so that each per-layer
metric is measured on every workload.  Probes work on the workload's first
dataset and plan; those standing in for a whole layer are kept small, so the
layers the workload really uses keep the largest times.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import workloads
from workloads import N_GRID, SUPPORT, PARAMS

# Probes of layers a workload does not use stay small, so that they cannot
# outweigh the layers the workload does use: a 4 x 4 (or 4-point) grid search
# on 5 of the workload's resamples, and a two-sample simulation study.
PROBE_B = 5
PROBE_GRID = 4
PROBE_SIM = dict(n=200, censoring=0.2, n_samples=2, B=10, mise_samples=10, mise_grid=8,
                 workers=2)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; with ``enabled=False`` it only calls through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.run = ""

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.run, next(self._ids))
        self._stack.append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return {s.id: s.duration - child.get(s.id, 0.0) for s in self.spans}

    def named(self, name: str, run: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (run is None or s.run == run)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def _median_ms(tracer: Tracer, name: str, fn, *args, reps: int = 5, **kwargs) -> float:
    for _ in range(reps):
        tracer.call(name, fn, *args, **kwargs)
    return 1e3 * statistics.median(s.duration for s in tracer.named(name, tracer.run))


def _selection_counts(selections) -> dict:
    trace = [tuple(entry) for sel in selections for entry in sel.objective_trace]
    values = [entry[-1] for entry in trace]
    finite = [v for v in values if np.isfinite(v)]
    distinct_g = {entry[1] for entry in trace if len(entry) == 3}
    return {
        "bandwidth.objective_evals": len(trace),
        "bandwidth.distinct_g": len(distinct_g),
        "bandwidth.distinct_ratio": len({entry[:-1] for entry in trace}) / max(1, len(trace)),
        "bandwidth.nonfinite_evals": len(values) - len(finite),
        "bandwidth.search_mise": sum(min(e[-1] for e in sel.objective_trace
                                         if np.isfinite(e[-1])) for sel in selections),
    }


def traced_metrics(name: str, scale: str, seed: int, csvs: list[str], tracer: Tracer,
                   untraced_wall: float) -> tuple[dict, dict, dict]:
    """Replay the workload traced, probe the remaining layers, derive the metrics.

    ``untraced_wall`` is the replay's wall time with tracing off; the
    difference to the traced replay is reported as the tracing overhead.
    Returns the per-layer metrics, what the replay produced, and the replay's
    wall and self time per layer.
    """
    from condsurv.bandwidth import (default_covariate_box, default_time_box, pilot_r,
                                    select_bandwidth_1d, select_bandwidth_2d)
    from condsurv.benchmark import mise_optimal_1d, run_benchmark
    from condsurv.estimators import beran_survival, smoothed_beran_survival
    from condsurv.kernels import DEFAULT_KERNEL, eval_integrated_kernel, eval_kernel
    from condsurv.regions import bootstrap_sigma, calibrate_lambda, region_method1, region_method2
    from condsurv.resampling import SCHEME_BERAN, ResamplingPlan, resample
    from condsurv.samples import TimeGrid
    from condsurv.simulation import generate_sample, make_model

    p = PARAMS[name][scale]
    m: dict = {}

    tracer.run = "replay"
    with tracer.span(f"replay.{name}"):
        got = workloads.replay(name, scale, seed, csvs, tracer)
    root = tracer.named(f"replay.{name}", "replay")[0]
    m["trace.overhead_s"] = root.duration - untraced_wall
    selfs = tracer.self_times()

    def replay_self(prefix: str) -> float:
        return sum(selfs[s.id] for s in tracer.spans
                   if s.run == "replay" and s.name.startswith(prefix))

    tracer.run = "probe"
    sample, grid, plan = got["sample"], got["grid"], got["plan"]
    x0 = 0.6
    h = p.get("h", plan.pilot_r)
    g = p.get("g", plan.pilot_s or 0.05)
    smoothed = plan.scheme != SCHEME_BERAN

    loads = tracer.named("dataio.load_csv", "replay")
    m["dataio.load_ms"] = 1e3 * statistics.median(s.duration for s in loads)
    m["dataio.rows"] = sample.n

    # kernels: one replicate's n x 3n weight argument, and one B x grid x atoms tensor
    x = sample.x
    x_aug = np.concatenate([x, -x, 2.0 - x])
    u = (x[:, None] - x_aug[None, :]) / plan.pilot_r
    m["kernels.kernel_ms"] = _median_ms(tracer, "kernels.eval_kernel", eval_kernel,
                                        DEFAULT_KERNEL, u)
    atoms = np.unique(sample.z[sample.delta == 1.0])
    tensor_arg = np.broadcast_to((grid.points[:, None] - atoms[None, :]) / g,
                                 (plan.B, grid.n_points, atoms.size))
    m["kernels.integrated_ms"] = _median_ms(tracer, "kernels.eval_integrated_kernel",
                                            eval_integrated_kernel, DEFAULT_KERNEL, tensor_arg,
                                            reps=3)
    m["kernels.tensor_mb"] = tensor_arg.size * 8 / 1e6

    m["estimators.beran_ms"] = _median_ms(tracer, "estimators.beran_survival", beran_survival,
                                          sample, x0, h, grid, support=SUPPORT)
    m["estimators.smoothed_ms"] = _median_ms(tracer, "estimators.smoothed_beran_survival",
                                             smoothed_beran_survival, sample, x0, h, g, grid,
                                             support=SUPPORT)

    # resampling: the replay's draws, or one probe draw under the workload's scheme
    resamples, diags, drawn = got["resamples"], got["diagnostics"], got["B_drawn"]
    resample_s = replay_self("resampling.")
    if resamples is None:
        with tracer.span("resampling.resample"):
            resamples, diag = resample(sample, plan, support=SUPPORT)
        resample_s = tracer.named("resampling.resample", "probe")[0].duration
        diags, drawn = [diag], plan.B
    m["resampling.resample_s"] = resample_s
    m["resampling.replicates_per_s"] = drawn / resample_s
    m["resampling.table_mb"] = sample.n * sample.n * 8 / 1e6
    for key in ("saturated_time_draws", "saturated_censoring_draws", "retried_draws"):
        m[f"resampling.{key}"] = sum(getattr(d, key) for d in diags)

    # bandwidth: the replay's selections, or one probe selection on the workload's draws
    selections = got["selections"]
    select_s = replay_self("bandwidth.")
    if not selections:
        if smoothed:
            fn, name2, args = select_bandwidth_2d, "bandwidth.select_bandwidth_2d", (
                sample, x0, default_covariate_box(sample), default_time_box(sample), plan, grid)
        else:
            fn, name2, args = select_bandwidth_1d, "bandwidth.select_bandwidth_1d", (
                sample, x0, default_covariate_box(sample), plan, grid)
        selections = [tracer.call(name2, fn, *args, support=SUPPORT, strategy="grid",
                                  grid_size=PROBE_GRID, resamples=resamples[:PROBE_B])]
        select_s = tracer.named(name2, "probe")[0].duration
    m.update(_selection_counts(selections))
    m["bandwidth.select_s"] = select_s
    m["bandwidth.eval_ms"] = 1e3 * select_s / m["bandwidth.objective_evals"]

    # regions: per-call time with resamples given, and the lambda calibration alone
    estimator = "smoothed-beran" if smoothed else "beran"
    for method, build in ((1, region_method1), (2, region_method2)):
        span = f"regions.region_method{method}"
        if not tracer.named(span, "replay"):
            for _ in range(3):
                tracer.call(span, build, sample, x0, h, plan, grid, g=g if smoothed else None,
                            estimator=estimator, support=SUPPORT, resamples=resamples)
        runs = tracer.named(span, "replay") or tracer.named(span, "probe")
        m[f"regions.method{method}_ms"] = 1e3 * statistics.median(s.duration for s in runs)
    if smoothed:
        curves = [smoothed_beran_survival(r, x0, h, g, grid, support=SUPPORT).values
                  for r in resamples]
        pilot = smoothed_beran_survival(sample, x0, plan.pilot_r, plan.pilot_s, grid,
                                        support=SUPPORT)
    else:
        curves = [beran_survival(r, x0, h, grid, support=SUPPORT).values for r in resamples]
        pilot = beran_survival(sample, x0, plan.pilot_r, grid, support=SUPPORT)
    curves = np.stack(curves)
    sigma = bootstrap_sigma(curves)
    m["regions.calibrate_ms"] = _median_ms(tracer, "regions.calibrate_lambda", calibrate_lambda,
                                           pilot.values, curves, sigma, 0.05)

    model = make_model("model1", p["censoring"])
    m["simulation.generate_ms"] = _median_ms(tracer, "simulation.generate_sample",
                                             generate_sample, model, p["n"], seed)

    # benchmark: the simulate configuration at 1 and at 2 workers.  On sim-beran
    # the replay already ran it at 2 workers; elsewhere PROBE_SIM stands in.
    sim = PARAMS["sim-beran"][scale] if name == "sim-beran" else PROBE_SIM
    two = tracer.named("benchmark.run_benchmark", "replay")
    if two:
        report = got["report"]
    else:
        report = tracer.call("benchmark.run_benchmark", run_benchmark,
                             workloads.sim_config(sim, seed, 2))
        two = tracer.named("benchmark.run_benchmark", "probe")
    tracer.run = "probe-1w"
    tracer.call("benchmark.run_benchmark", run_benchmark, workloads.sim_config(sim, seed, 1))
    one = tracer.named("benchmark.run_benchmark", "probe-1w")
    tracer.run = "probe"
    m["benchmark.speedup_2w"] = one[0].duration / two[0].duration
    m["benchmark.rmise_selected"] = report.bandwidth_metrics.mean_rmise_selected
    sim_model = make_model("model1", sim["censoring"])
    sim_grid = TimeGrid.uniform(sim_model.t_max, N_GRID)
    sim_sample = generate_sample(sim_model, sim["n"], seed)
    # run_benchmark searches h up to one covariate spread, half the default box
    lo, hi = default_covariate_box(sim_sample)
    box = (lo, hi / 2.0)
    with tracer.span("benchmark.mise_optimal_1d"):
        mise_optimal_1d(sim_model, box, sim_grid, n_samples=sim["mise_samples"], n=sim["n"],
                        n_candidates=sim["mise_grid"], seed=seed)
    m["benchmark.mise_optimal_s"] = tracer.named("benchmark.mise_optimal_1d", "probe")[0].duration
    # one per-sample selection task, as run_benchmark runs it for each sample
    with tracer.span("benchmark.select_task"):
        task_plan = ResamplingPlan(SCHEME_BERAN, pilot_r(sim_sample, sim_model.pilot_c), seed,
                                   sim["B"])
        select_bandwidth_1d(sim_sample, sim_model.x0, box, task_plan, sim_grid,
                            support=sim_model.support)
    m["benchmark.task_s"] = tracer.named("benchmark.select_task", "probe")[0].duration

    m["trace.spans"] = len(tracer.spans)
    info = {
        "replay_s": root.duration,
        "replay_layers_s": root.duration - selfs[root.id],
        "layer_self_s": {
            layer: replay_self(layer + ".")
            for layer in ("dataio", "estimators", "resampling", "bandwidth", "regions",
                          "benchmark")
        },
    }
    return m, got, info
