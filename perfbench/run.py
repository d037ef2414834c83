#!/usr/bin/env python3
"""End-to-end benchmark of the condsurv CLI, with a traced per-layer replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smoothed-select --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --smoke        # every workload once, tiny sizes

With ``--trace 0`` the benchmark generates the workload's CSV files from the
seed, measures set-up (fresh interpreter, ``import condsurv`` and
``load_csv``) several times, then repeats passes of the workload's CLI
command sequence for ``--seconds`` seconds.  Every command is a separate
``python -m condsurv`` process whose own resource usage is collected with
``os.wait4``.  Every output is checked and hashed.  With ``--trace 1`` it
runs one CLI pass, then replays the same steps in-process with a span around
each call into a layer (see ``tracing.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  Progress goes to standard error.
Outputs, span dumps and one record per run (output digests, quality figures,
per-subcommand times, versions) go to ``.perfbench/`` in the checkout.
Thread settings such as ``OMP_*`` and ``OPENBLAS_*`` are recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 5
STARTUP_REPS = 3
RUN_LIMIT_S = 170.0
SETUP_CODE = "import sys, condsurv; from condsurv.dataio import load_csv; load_csv(sys.argv[1])"


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


@dataclass
class Child:
    """One finished child process: wall, its own CPU and max RSS, exit code, stderr."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Pass:
    """One pass of the command sequence: a Child per command, in order."""

    children: list = field(default_factory=list)
    failed: int = 0
    quality: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)


class Run:
    """State of one benchmark run: its scratch directory, child environment and deadline."""

    def __init__(self, workload: str, scale: str, seed: int):
        self.workload, self.scale, self.seed = workload, scale, seed
        self.t0 = time.perf_counter()
        STATE.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=STATE))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(self.tmp)
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def python(self, *args: str) -> Child:
        """Run the interpreter with ``args`` as a child process and account for it alone."""
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        with open(self.tmp / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            text = err.read().decode(errors="replace")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, text)

    def timed_median(self, reps: int, *args: str) -> float:
        walls = []
        for _ in range(reps):
            c = self.python(*args)
            if c.code != 0:
                raise RuntimeError(f"set-up command failed ({c.code}): {c.stderr.strip()[-500:]}")
            walls.append(c.wall)
        return statistics.median(walls)

    def cli_pass(self, index: int, cmds, keep: bool = False) -> tuple[Pass, Path]:
        from checks import check_command, digest

        pass_dir = self.tmp / f"pass{index}"
        pass_dir.mkdir()
        p = Pass()
        for cmd in cmds:
            c = self.python("-m", "condsurv", cmd.sub, *cmd.args, "--out", str(pass_dir / cmd.out))
            p.children.append(c)
            problems = []
            if c.code != 0:
                problems.append(f"{cmd.out}: exit code {c.code}")
            if "Traceback" in c.stderr:
                problems.append(f"{cmd.out}: traceback on stderr")
            if not problems:
                problems = check_command(cmd, pass_dir, p.quality)
            if problems:
                p.failed += 1
                self.problems += problems
                log(f"FAILED {' '.join(problems)} :: {c.stderr.strip()[-300:]}")
        p.digest = digest(pass_dir)
        if not keep:
            shutil.rmtree(pass_dir)
        return p, pass_dir

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_"))},
    }


def check_against_records(record: dict) -> list[str]:
    """Compare the output digest with earlier runs of the same sources, workload and seed."""
    path = STATE / "records.jsonl"
    key = ("source", "workload", "scale", "seed", "trace")
    problems = []
    if path.exists():
        for line in path.read_text().splitlines():
            old = json.loads(line)
            if all(old.get(k) == record[k] for k in key) and old["digest"] != record["digest"]:
                problems.append(f"output digest {record['digest'][:12]} differs from an earlier "
                                f"run's {old['digest'][:12]} on the same source and seed")
                break
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return problems


def replay_mismatches(name: str, got: dict, cmds, pass_dir: Path) -> list[str]:
    """The replay must reproduce the CLI's selected bandwidths and region calibrations."""
    from checks import x0_tag

    cli, rep = [], []
    for cmd in cmds:
        if cmd.sub == "simulate":
            report = json.loads((pass_dir / cmd.out / "report.json").read_text())
            cli.append(report["h_stars"])
            rep.append(got["report"].h_stars)
        for x0 in cmd.x0 if cmd.sub in ("select-bandwidth", "region") else ():
            meta = json.loads((pass_dir / f"{cmd.out}_x{x0_tag(x0)}.json").read_text())
            cli.append([meta["h_star"], meta["g_star"]] if cmd.sub == "select-bandwidth"
                       else meta["lambda_or_rho"])
    rep += [[s.h_star, s.g_star] for s in got["selections"]]
    rep += [r.calibration for r in got["regions"]]
    return [] if cli == rep else [f"{name}: in-process replay differs from the CLI outputs"]


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import workloads

    run = Run(workload, scale, seed)
    try:
        env = environment()
        log(f"{workload} seed={seed} trace={int(trace)} scale={scale} {json.dumps(env)}")
        csvs = workloads.make_inputs(workload, scale, seed, run.tmp)
        if trace:
            # the traced run covers the first dataset only, to stay as short as a timed run
            csvs = csvs[:1]
        cmds = workloads.commands(workload, scale, seed, csvs)
        run.python("-c", "import condsurv")  # compiles bytecode once, untimed
        record = {"workload": workload, "scale": scale, "seed": seed, "trace": int(trace),
                  "source": source_digest(), "env": env}
        if trace:
            metrics = traced_run(run, cmds, csvs, record)
        else:
            metrics = timed_run(run, cmds, csvs, seconds, record)
        run.problems += check_against_records(record)
        attempted, failed = record.pop("attempted"), record.pop("failed")
        log(f"{workload} done in {run.elapsed():.1f}s, {attempted} commands, {failed} failed")
        return {"correct": failed == 0 and not run.problems, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        run.close()


def timed_run(run: Run, cmds, csvs, seconds: float, record: dict) -> dict:
    setup_s = run.timed_median(SETUP_REPS, "-c", SETUP_CODE, csvs[0])
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        p, _ = run.cli_pass(len(passes), cmds)
        passes.append(p)
        used = time.perf_counter() - start
        log(f"{run.workload} pass {len(passes)} (about {max(len(passes), int(seconds // p.wall))}"
            f" in {seconds:g}s) {p.wall:.2f}s wall, elapsed {run.elapsed():.1f}s")
        if used + p.wall > seconds or run.elapsed() + p.wall > RUN_LIMIT_S - 10:
            break
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        run.problems.append(f"output digests differ across passes: {digests}")
    attempted = len(cmds) * len(passes)
    failed = sum(p.failed for p in passes)

    # each command's median over the passes, so that a burst of load from
    # elsewhere on the machine during one command does not move the result
    def per_command(attr: str) -> list[float]:
        return [statistics.median(getattr(p.children[i], attr) for p in passes)
                for i in range(len(cmds))]

    walls = per_command("wall")
    by_sub: dict = {}
    for cmd, wall in zip(cmds, walls):
        by_sub[cmd.sub] = by_sub.get(cmd.sub, 0.0) + wall
    record.update(
        digest=digests[0], attempted=attempted, failed=failed, passes=len(passes),
        pass_wall_s=[p.wall for p in passes], subcommand_s=by_sub,
        quality=passes[0].quality, problems=run.problems)
    values = {
        "wall_s": sum(walls),
        "setup_s": setup_s,
        "cpu_s": sum(per_command("cpu")),
        "peak_rss_mb": max(per_command("rss_mb")),
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    return with_units(values, "end_to_end")


def traced_run(run: Run, cmds, csvs, record: dict) -> dict:
    import workloads
    from tracing import Tracer, traced_metrics

    startup_s = run.timed_median(STARTUP_REPS, "-m", "condsurv", "--version")
    p, pass_dir = run.cli_pass(0, cmds, keep=True)
    log(f"{run.workload} CLI pass {p.wall:.2f}s wall, elapsed {run.elapsed():.1f}s")
    t = time.perf_counter()
    workloads.replay(run.workload, run.scale, run.seed, csvs, Tracer(enabled=False))
    untraced = time.perf_counter() - t
    log(f"{run.workload} untraced replay {untraced:.2f}s, elapsed {run.elapsed():.1f}s")
    tracer = Tracer()
    m, got, info = traced_metrics(run.workload, run.scale, run.seed, csvs, tracer, untraced)
    log(f"{run.workload} traced replay and probes done, elapsed {run.elapsed():.1f}s")
    run.problems += replay_mismatches(run.workload, got, cmds, pass_dir)
    shutil.rmtree(pass_dir)
    m["cli.startup_s"] = startup_s
    # what the CLI pass spends outside the layer calls the replay makes:
    # interpreter start-up, argument handling and work the CLI repeats
    m["cli.self_s"] = p.wall - info["replay_layers_s"]
    tracer.dump(STATE / f"spans-{run.workload}-{run.scale}-{run.seed}.json")
    record.update(digest=p.digest, attempted=len(cmds), failed=p.failed,
                  cli_pass_wall_s=p.wall, quality=p.quality,
                  problems=run.problems, **info)
    return with_units(m, "per_layer")


def with_units(values: dict, kind: str) -> dict:
    """The declared metrics of ``kind`` with their units; each must be measured and finite."""
    units = declared_metrics(kind)
    bad = sorted(name for name in units
                 if not math.isfinite(values.get(name, math.nan)))
    if bad:
        raise ValueError(f"metrics missing or not finite: {bad}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def smoke() -> int:
    """Run every workload once at tiny sizes, traced and untraced.

    ``with_units`` raises unless every metric BENCHMARK.json declares was
    measured, so a run that returns has the full metric set with its units.
    """
    import workloads

    ok = True
    for name in workloads.PARAMS:
        for trace in (False, True):
            result = measure(name, 1, 1.0, trace, "smoke")
            good = result["correct"] and result["failed"] == 0
            log(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "condsurv" / "__init__.py").is_file():
        log(f"no condsurv sources under {SRC}; run from the root of a condsurv checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.PARAMS:
        parser.error(f"--workload must be one of {sorted(workloads.PARAMS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
