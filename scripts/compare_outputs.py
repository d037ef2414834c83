#!/usr/bin/env python3
"""Compare the CLI outputs of two condsurv source trees on the benchmark's commands.

    python3 scripts/compare_outputs.py SRC_A SRC_B --seeds 1,2,3

SRC_A and SRC_B are checkouts, each holding ``src/condsurv``.  For every seed
and workload of ``perfbench/workloads.py`` the input CSV files are generated
once, with SRC_A's sources, and the workload's full-scale commands run once
against each tree.  The commands of ``EXTRA`` follow: two on model1 samples
large enough that the resampler builds its laws in several row blocks under
both schemes (the benchmark's smoothed inputs fit in one); a smoothed
``select-bandwidth --strategy grid`` at two x0, whose one-level mesh no
workload searches; and two small smoothed studies that read no data file,
``simulate --mode regions`` and ``simulate --mode bandwidth``, which cover the
benchmark module's region path and its ground-truth and selection searches
of (h, g); a smoothed ``region`` and ``select-bandwidth`` on times rounded
to one decimal, whose runs of tied events (up to about 50 long) no other
input has; a Kaplan-Meier ``fit``; a beran ``simulate --mode regions``
given both ``--h`` and ``--g``, whose report records ``bandwidth_g`` as
null; a smoothed ``region`` on an input whose statuses are all 1, so the
censoring law has no event column and every censoring draw saturates; and a
beran ``region`` on times rounded to one decimal, whose beran-scheme laws
have tied times.  No workload runs these last four.  Every command that reads
a data file passes ``--support 0,1`` but the last two: a smoothed ``fit`` at
three x0 and a smoothed ``region --method 1`` at two x0, which compare the
curves of an unreflected sample.  ``smoothed-region-study-pool`` repeats
the smoothed ``simulate --mode regions`` with ``--workers 2``, so the study
tasks run in a process pool; the benchmark's ``sim-beran`` workload pools
only a bandwidth study.  ``--seed`` is passed to every
command but ``fit``, which takes none.  Every output file is then
compared: the script prints whether its bytes are equal and, when they are
not, the largest |difference| over its numbers (CSV cells and JSON numbers)
with the place where it occurs (left out when no number moved), every place
whose numbers moved (list indices and CSV row numbers collapsed to ``*``, so
``objective_trace[*][*]``) with how many moved there and their largest
|difference|, the JSON keys found on one side only (``added`` when only
SRC_B has them, ``removed`` when only SRC_A has them), and the other places
whose shape differs (for example objective traces of different length,
which are not compared entry by entry).  For a ``select-bandwidth``
file it also prints |dh*| and |dg*| in cells of its search box, a cell being
(high - low)/31 (the default 32-point grid), and the smallest finite
objective of each trace.  ``timings.json`` is skipped.  The last line counts
the files compared, the byte-identical and differing ones, and the commands
that failed.  A file whose bytes differ while all its numbers and strings
agree is reported as ``same values; line endings differ`` when the bytes
agree once CRLF is read as LF, and as ``same values; text differs``
otherwise.  Exit status 0 means every file is byte-identical, 1 that some
file differs, 2 that a command failed.  Every command runs with
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
removed from its environment, so that each tree's CLI applies its own
thread rule; a variable preset in the caller's shell would otherwise hide
a change to that rule.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SKIPPED = {"timings.json"}
# name: (subcommand, flags besides --seed (for subcommands that take it) and --out,
#        (sample size, censoring[, "tied" for times rounded to one decimal, "all-events" for every
#        status 1 or "no-support" for a command without --support]) of its --data CSV or None)
EXTRA = {
    "smoothed-region-1600": ("region", ("--method", "1", "--estimator", "smoothed-beran", "--x0", "0.5",
                                        "--h", "0.15", "--g", "0.08", "--B", "10"), (1600, 0.2)),
    "beran-select-4000": ("select-bandwidth", ("--estimator", "beran", "--x0", "0.5", "--B", "8"), (4000, 0.2)),
    "smoothed-region-study": ("simulate", ("--mode", "regions", "--estimator", "smoothed-beran", "--n", "80",
                                           "--n-samples", "2", "--B", "10", "--h", "0.2", "--g", "0.1"), None),
    "smoothed-region-study-pool": ("simulate", ("--mode", "regions", "--estimator", "smoothed-beran", "--n", "80",
                                                "--n-samples", "2", "--B", "10", "--h", "0.2", "--g", "0.1",
                                                "--workers", "2"), None),
    "smoothed-select-grid": ("select-bandwidth", ("--estimator", "smoothed-beran", "--x0", "0.4,0.6",
                                                  "--strategy", "grid", "--grid-size", "12", "--B", "10"),
                             (200, 0.2)),
    "tied-region": ("region", ("--method", "1", "--estimator", "smoothed-beran", "--x0", "0.3,0.6",
                               "--h", "0.15", "--g", "0.08", "--B", "10"), (400, 0.2, "tied")),
    "tied-select-grid": ("select-bandwidth", ("--estimator", "smoothed-beran", "--x0", "0.5", "--strategy", "grid",
                                              "--grid-size", "8", "--B", "10"), (400, 0.2, "tied")),
    "smoothed-select-study": ("simulate", ("--mode", "bandwidth", "--estimator", "smoothed-beran", "--n", "80",
                                           "--n-samples", "2", "--B", "10", "--n-grid", "30",
                                           "--mise-samples", "20", "--mise-grid", "8"), None),
    "kaplan-meier-fit": ("fit", ("--estimator", "kaplan-meier"), (400, 0.2)),
    "beran-region-study": ("simulate", ("--mode", "regions", "--estimator", "beran", "--n", "80", "--n-samples", "2",
                                        "--B", "10", "--h", "0.2", "--g", "0.1"), None),
    "all-events-region": ("region", ("--method", "1", "--estimator", "smoothed-beran", "--x0", "0.3,0.6",
                                     "--h", "0.15", "--g", "0.08", "--B", "10"), (400, 0.2, "all-events")),
    "tied-beran-region": ("region", ("--method", "1", "--estimator", "beran", "--x0", "0.3,0.6", "--h", "0.15",
                                     "--B", "10"), (400, 0.2, "tied")),
    "no-support-fit": ("fit", ("--estimator", "smoothed-beran", "--x0", "0.05,0.5,0.95", "--h", "0.15",
                               "--g", "0.08"), (400, 0.2, "no-support")),
    "no-support-region": ("region", ("--method", "1", "--estimator", "smoothed-beran", "--x0", "0.05,0.6",
                                     "--h", "0.15", "--g", "0.08", "--B", "10"), (400, 0.2, "no-support")),
}


def _json_deltas(a, b, path: str, deltas: dict, mismatched: list, one_sided: dict) -> None:
    """|a - b| for every number at the same place of two JSON documents.

    A key present in one document only is listed in `one_sided["added"]` (in
    `b` alone) or `one_sided["removed"]` (in `a` alone).  Other places whose
    shape differs (lists of different length, a changed string) are listed in
    `mismatched` and not descended into.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _json_deltas(a[key], b[key], sub, deltas, mismatched, one_sided)
            else:
                one_sided["added" if key in b else "removed"].append(sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            mismatched.append(f"{path} ({len(a)} vs {len(b)} entries)")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _json_deltas(x, y, f"{path}[{i}]", deltas, mismatched, one_sided)
    elif _is_number(a) and _is_number(b):
        deltas[path] = _delta(float(a), float(b))
    elif a != b:
        mismatched.append(path)


def _delta(x: float, y: float) -> float:
    """|x - y|: 0 for equal values, infinities and a pair of nans included; inf when one side alone is nan."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _csv_deltas(a: Path, b: Path, deltas: dict, mismatched: list) -> None:
    rows = []
    for path in (a, b):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
        mismatched.append(f"rows or header ({len(rows[0])} vs {len(rows[1])} rows)")
        return
    header = rows[0][0]
    for r, (row_a, row_b) in enumerate(zip(rows[0][1:], rows[1][1:]), start=1):
        for c, (x, y) in enumerate(zip(row_a, row_b)):
            try:
                deltas[f"row {r} {header[c]}"] = _delta(float(x), float(y))
            except ValueError:
                if x != y:
                    mismatched.append(f"row {r} {header[c]}")


def _search_moves(a: dict, b: dict) -> list[str]:
    """How far the selected bandwidths moved, in search-box cells, and the best objectives."""
    parts = []
    for key, (lo, hi) in zip(("h_star", "g_star"), b["search_box"]):
        parts.append(f"|d{key[0]}*|={abs(a[key] - b[key]) / ((hi - lo) / 31):.3g} cells")
    best = [min(e[-1] for e in doc["objective_trace"] if math.isfinite(e[-1])) for doc in (a, b)]
    verdict = "lower" if best[1] < best[0] else "equal" if best[1] == best[0] else "HIGHER"
    parts.append(f"best objective {best[0]:.17g} -> {best[1]:.17g} ({verdict})")
    return parts


def _collapsed(place: str) -> str:
    """A place with its list indices and CSV row numbers replaced by *: 'trace[3][2]' -> 'trace[*][*]'."""
    return re.sub(r"^row \d+", "row *", re.sub(r"\[\d+\]", "[*]", place))


def compare_file(a: Path, b: Path) -> tuple[bool, str]:
    """(bytes equal, description) for one output file present in both trees."""
    texts = [path.read_bytes() for path in (a, b)]
    if texts[0] == texts[1]:
        return True, "equal"
    deltas: dict = {}
    mismatched: list = []
    one_sided: dict = {"added": [], "removed": []}
    parts = []
    if a.suffix == ".json":
        docs = [json.loads(path.read_text()) for path in (a, b)]
        _json_deltas(*docs, "", deltas, mismatched, one_sided)
        if all(isinstance(doc, dict) and doc.get("command") == "select-bandwidth" for doc in docs):
            parts += _search_moves(*docs)
    else:
        _csv_deltas(a, b, deltas, mismatched)
    moved: dict = {}
    for place, d in deltas.items():
        if d != 0.0:
            place = _collapsed(place)
            count, largest = moved.get(place, (0, 0.0))
            moved[place] = (count + 1, max(largest, d))
    if not (moved or mismatched or any(one_sided.values())):  # the bytes differ, but no number, string or key does
        same_lines = texts[0].replace(b"\r\n", b"\n") == texts[1].replace(b"\r\n", b"\n")
        return False, "same values; " + ("line endings differ" if same_lines else "text differs")
    if moved:
        worst = max(deltas, key=deltas.get)
        parts.append(f"max|d|={deltas[worst]:.3g} at {worst}")
        parts.append("moved: " + ", ".join(f"{place} ({count}, max|d|={d:.3g})"
                                           for place, (count, d) in moved.items()))
    parts += [f"{kind} " + ", ".join(places) for kind, places in one_sided.items() if places]
    if mismatched:
        parts.append("shape differs at " + ", ".join(mismatched))
    return False, "; ".join(parts)


def run_commands(tree: Path, cmds, out_dir: Path) -> list[str]:
    """Run the commands against one source tree; returns the failures.

    The BLAS thread variables are removed from the commands' environment, so each tree applies its own rule.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES} | {"PYTHONPATH": str(tree / "src")}
    failures = []
    for cmd in cmds:
        argv = [sys.executable, "-m", "condsurv", cmd.sub, *cmd.args, "--out", str(out_dir / cmd.out)]
        proc = subprocess.run(argv, cwd=out_dir, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"{tree}: {cmd.sub} {cmd.out} exited {proc.returncode}: {proc.stderr.strip()}")
    return failures


def extra_job(name: str, seed: int, directory: Path):
    """The one command of an EXTRA entry, with its input CSV generated from the seed when it reads one."""
    import workloads
    from condsurv.dataio import save_csv
    from condsurv.samples import SurvivalSample
    from condsurv.simulation import generate_sample, make_model

    sub, flags, data = EXTRA[name]
    args = flags if sub == "fit" else (*flags, "--seed", str(workloads.program_seed(seed, data[0] if data else 0)))
    if data is not None:
        n, censoring, *variant = data
        csv_path = str(directory / f"{name}.csv")
        sample = generate_sample(make_model("model1", censoring), n, np.random.default_rng([seed, n]))
        sample = SurvivalSample(x=sample.x, z=np.round(sample.z, 1) if "tied" in variant else sample.z,
                                delta=np.ones(n) if "all-events" in variant else sample.delta)
        save_csv(sample, csv_path)
        support = () if "no-support" in variant else ("--support", workloads.SUPPORT_FLAG)
        args += ("--data", csv_path, *support, "--n-grid", str(workloads.N_GRID))
    return [workloads.Command(sub, args, name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seeds", default="1,2,3", help="benchmark seeds, comma separated")
    args = parser.parse_args(argv)
    trees = [args.src_a.resolve(), args.src_b.resolve()]
    for tree in trees:
        if not (tree / "src" / "condsurv" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/condsurv")
    sys.path[:0] = [str(ROOT / "perfbench"), str(trees[0] / "src")]
    import workloads

    compared = identical = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (int(s) for s in args.seeds.split(",")):
            for name in [*workloads.PARAMS, *EXTRA]:
                base = Path(tmp) / f"{name}-{seed}"
                dirs = [base / "a", base / "b"]
                for d in dirs:
                    d.mkdir(parents=True)
                if name in EXTRA:
                    cmds = extra_job(name, seed, base)
                else:
                    cmds = workloads.commands(name, "full", seed, workloads.make_inputs(name, "full", seed, base))
                failures = [f for tree, d in zip(trees, dirs) for f in run_commands(tree, cmds, d)]
                for failure in failures:
                    print(f"seed {seed} {name}: FAILED {failure}")
                failed += len(failures)
                files = sorted({p.relative_to(d) for d in dirs for p in d.rglob("*") if p.is_file()})
                for rel in files:
                    if rel.name in SKIPPED:
                        continue
                    a, b = (d / rel for d in dirs)
                    if not (a.exists() and b.exists()):
                        equal, text = False, "only in " + ("SRC_A" if a.exists() else "SRC_B")
                    else:
                        equal, text = compare_file(a, b)
                    print(f"seed {seed} {name} {rel}: {text}", flush=True)
                    compared += 1
                    identical += equal
    print(f"{compared} files compared: {identical} byte-identical, {compared - identical} differing; "
          f"{failed} commands failed")
    return 2 if failed else 1 if identical < compared else 0


if __name__ == "__main__":
    sys.exit(main())
