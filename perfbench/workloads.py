"""The benchmark's workloads.

A workload is a fixed sequence of ``condsurv`` CLI commands run on CSV files
generated from the benchmark seed, plus an in-process replay of the same
steps through the library's public functions for the traced run.  The replay
calls each layer the way a library user would, so work that the CLI repeats
(for example one resample draw per x0 and per region method) appears in the
CLI pass but not in the replay's spans.

Sizes are chosen so that one pass lasts seconds rather than minutes on a
2-core machine, and so that twelve bandwidth searches add up in one
smoothed-select pass: the number of objective evaluations of one 2-D
multistart search varies by about 14% (one standard deviation) from one
dataset to the next, and the sum keeps that input variation from setting the
spread between runs.  Each dataset gets its own CLI seed; with one seed for
all, the shared bootstrap draws made the searches' costs move together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORT = (0.0, 1.0)
SUPPORT_FLAG = "0,1"
N_GRID = 100

# Parameters per scale.  "full" is what the benchmark measures; "smoke" is the
# self-test size that only has to exercise every code path quickly.  Why each
# workload exists is recorded in BENCHMARK.json.
PARAMS = {
    "smoothed-select": {
        "full": dict(n=200, censoring=0.5, datasets=3, x0=(0.3, 0.45, 0.6, 0.75), B=10),
        "smoke": dict(n=80, censoring=0.5, datasets=1, x0=(0.6,), B=3),
    },
    "smoothed-regions": {
        "full": dict(n=400, censoring=0.2, datasets=1, x0=(0.4, 0.6, 0.8), B=40, h=0.2, g=0.08),
        "smoke": dict(n=80, censoring=0.2, datasets=1, x0=(0.6,), B=10, h=0.3, g=0.1),
    },
    "beran-large": {
        "full": dict(n=1600, censoring=0.2, datasets=1, fit_x0=(0.2, 0.4, 0.6, 0.8), x0=(0.6,),
                     h=0.1, g=0.05, B=24),
        "smoke": dict(n=150, censoring=0.2, datasets=1, fit_x0=(0.4, 0.6), x0=(0.6,),
                      h=0.3, g=0.1, B=10),
    },
    "sim-beran": {
        "full": dict(n=400, censoring=0.2, datasets=1, n_samples=6, B=50, mise_samples=50,
                     mise_grid=24, workers=2),
        "smoke": dict(n=80, censoring=0.2, datasets=1, n_samples=2, B=5, mise_samples=5,
                      mise_grid=6, workers=2),
    },
}

WORKLOAD_IDS = {name: i for i, name in enumerate(PARAMS)}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, flags (without --out), output stem, x0 values."""

    sub: str
    args: tuple
    out: str
    x0: tuple = ()


def program_seed(seed: int, k: int) -> int:
    """The CLI --seed for dataset k: independent bootstrap draws for each dataset."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _x0_flag(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def make_inputs(name: str, scale: str, seed: int, directory) -> list[str]:
    """Write the workload's CSV files, generated from the benchmark seed."""
    from condsurv.dataio import save_csv
    from condsurv.simulation import generate_sample, make_model

    p = PARAMS[name][scale]
    model = make_model("model1", p["censoring"])
    paths = []
    for k in range(p["datasets"]):
        rng = np.random.default_rng([seed, WORKLOAD_IDS[name], k])
        path = f"{directory}/{name}-{k}.csv"
        save_csv(generate_sample(model, p["n"], rng), path)
        paths.append(path)
    return paths


def commands(name: str, scale: str, seed: int, csvs: list[str]) -> list[Command]:
    """The CLI commands of one pass, in order."""
    p = PARAMS[name][scale]
    common = ("--support", SUPPORT_FLAG, "--n-grid", str(N_GRID))
    if name == "smoothed-select":
        return [
            Command("select-bandwidth",
                    ("--data", csv, "--estimator", "smoothed-beran", "--x0", _x0_flag(p["x0"]),
                     "--B", str(p["B"]), "--seed", str(program_seed(seed, k))) + common,
                    f"select{k}", p["x0"])
            for k, csv in enumerate(csvs)
        ]
    if name == "smoothed-regions":
        return [
            Command("region",
                    ("--data", csvs[0], "--method", str(method), "--estimator", "smoothed-beran",
                     "--x0", _x0_flag(p["x0"]), "--h", str(p["h"]), "--g", str(p["g"]),
                     "--B", str(p["B"]), "--seed", str(program_seed(seed, 0))) + common,
                    f"region-m{method}", p["x0"])
            for method in (1, 2)
        ]
    if name == "beran-large":
        fit = ("--data", csvs[0], "--x0", _x0_flag(p["fit_x0"]), "--h", str(p["h"])) + common
        return [
            Command("fit", fit + ("--estimator", "beran"), "fit-beran", p["fit_x0"]),
            Command("fit", fit + ("--estimator", "smoothed-beran", "--g", str(p["g"])),
                    "fit-smoothed", p["fit_x0"]),
            Command("select-bandwidth",
                    ("--data", csvs[0], "--estimator", "beran", "--x0", _x0_flag(p["x0"]),
                     "--B", str(p["B"]), "--seed", str(program_seed(seed, 0))) + common,
                    "select", p["x0"]),
            Command("region",
                    ("--data", csvs[0], "--method", "1", "--estimator", "beran",
                     "--x0", _x0_flag(p["x0"]), "--h", str(p["h"]), "--B", str(p["B"]),
                     "--seed", str(program_seed(seed, 0))) + common,
                    "region", p["x0"]),
        ]
    if name == "sim-beran":
        return [
            Command("simulate",
                    ("--mode", "bandwidth", "--estimator", "beran", "--model", "model1",
                     "--censoring", str(p["censoring"]), "--n", str(p["n"]),
                     "--n-samples", str(p["n_samples"]), "--B", str(p["B"]),
                     "--mise-samples", str(p["mise_samples"]), "--mise-grid", str(p["mise_grid"]),
                     "--seed", str(program_seed(seed, 0)), "--workers", str(p["workers"])),
                    "simulate")
        ]
    raise KeyError(name)


def sim_config(p: dict, seed: int, workers: int):
    """The BenchConfig that ``condsurv simulate`` builds from the sim-beran flags."""
    from condsurv.benchmark import BenchConfig

    return BenchConfig(
        model="model1", censoring=p["censoring"], estimator="beran", mode="bandwidth",
        n=p["n"], n_samples=p["n_samples"], B=p["B"], n_grid=N_GRID, seed=seed,
        mise_samples=p["mise_samples"], mise_grid=p["mise_grid"], workers=workers,
    )


def replay(name: str, scale: str, seed: int, csvs: list[str], tracer) -> dict:
    """Run the workload's steps in-process, one span per call into a layer.

    Returns what the probes and the per-layer metrics need: the first
    sample, its grid and plan, the resamples drawn, the resampling
    diagnostics, the selections and the regions.
    """
    from condsurv.bandwidth import (default_covariate_box, default_time_box, pilot_r, pilot_s,
                                    select_bandwidth_1d, select_bandwidth_2d)
    from condsurv.benchmark import run_benchmark, write_report
    from condsurv.dataio import load_csv
    from condsurv.estimators import beran_survival, smoothed_beran_survival
    from condsurv.regions import region_method1, region_method2
    from condsurv.resampling import SCHEME_BERAN, SCHEME_SMOOTHED, ResamplingPlan, resample
    from condsurv.samples import TimeGrid

    p = PARAMS[name][scale]
    got = {"diagnostics": [], "selections": [], "regions": [], "resamples": None, "B_drawn": 0}
    smoothed = name in ("smoothed-select", "smoothed-regions")
    for k, csv in enumerate(csvs):
        prog_seed = program_seed(seed, k)
        sample = tracer.call("dataio.load_csv", load_csv, csv).sample
        grid = TimeGrid.uniform(float(np.quantile(sample.z, 0.95)), N_GRID)
        if smoothed:
            plan = ResamplingPlan(SCHEME_SMOOTHED, pilot_r(sample), prog_seed, p["B"],
                                  pilot_s=pilot_s(sample))
        else:
            plan = ResamplingPlan(SCHEME_BERAN, pilot_r(sample), prog_seed, p["B"])
        if k == 0:
            got.update(sample=sample, grid=grid, plan=plan)
        if name == "sim-beran":
            # the CSV only feeds set-up and the probes; simulate draws its own samples
            report = tracer.call("benchmark.run_benchmark", run_benchmark,
                                 sim_config(p, prog_seed, p["workers"]))
            got["report"] = report
            tracer.call("benchmark.write_report", write_report, report, csv + ".report")
            continue
        if name == "beran-large":
            for x0 in p["fit_x0"]:
                tracer.call("estimators.beran_survival", beran_survival,
                            sample, x0, p["h"], grid, support=SUPPORT)
            for x0 in p["fit_x0"]:
                tracer.call("estimators.smoothed_beran_survival", smoothed_beran_survival,
                            sample, x0, p["h"], p["g"], grid, support=SUPPORT)
        resamples, diag = tracer.call("resampling.resample", resample, sample, plan,
                                      support=SUPPORT)
        got["diagnostics"].append(diag)
        got["B_drawn"] += plan.B
        if k == 0:
            got["resamples"] = resamples
        if name == "smoothed-select":
            for x0 in p["x0"]:
                got["selections"].append(tracer.call(
                    "bandwidth.select_bandwidth_2d", select_bandwidth_2d,
                    sample, x0, default_covariate_box(sample), default_time_box(sample), plan,
                    grid, support=SUPPORT, resamples=resamples))
        if name == "beran-large":
            for x0 in p["x0"]:
                got["selections"].append(tracer.call(
                    "bandwidth.select_bandwidth_1d", select_bandwidth_1d,
                    sample, x0, default_covariate_box(sample), plan, grid,
                    support=SUPPORT, resamples=resamples))
        methods = {"smoothed-regions": (1, 2), "beran-large": (1,)}.get(name, ())
        for method in methods:
            build = region_method1 if method == 1 else region_method2
            for x0 in p["x0"]:
                got["regions"].append(tracer.call(
                    f"regions.region_method{method}", build,
                    sample, x0, p["h"], plan, grid, g=p.get("g") if smoothed else None,
                    estimator="smoothed-beran" if smoothed else "beran",
                    support=SUPPORT, resamples=resamples))
    return got
