"""Checks on the files one CLI command wrote, and the digest of a pass's outputs.

Each check returns a list of problems (empty when the output is correct) and
the quality figures the run record keeps: the smallest finite bootstrap
objective of each selection and the simulate report's RMISE at the selected
bandwidths.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# timings.json is the one output outside the byte-identity guarantee
UNHASHED = {"timings.json"}


def x0_tag(x0: float) -> str:
    """The CLI's file-name tag for an x0 value (0.6 -> 0p6)."""
    return f"{x0:g}".replace("-", "m").replace(".", "p")


def _columns(path: Path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def _check_fit(stem: Path) -> list[str]:
    s = _columns(stem.with_suffix(".csv"))["s_hat"]
    problems = []
    if not (np.all(np.isfinite(s)) and s.min() >= 0.0 and s.max() <= 1.0):
        problems.append(f"{stem.name}: curve leaves [0, 1]")
    if np.any(np.diff(s) > 1e-12):
        problems.append(f"{stem.name}: curve increases")
    return problems


def _inside(value, box) -> bool:
    return value is not None and math.isfinite(value) and box[0] <= value <= box[1]


def _check_selection(stem: Path, quality: dict) -> list[str]:
    sel = json.loads(stem.with_suffix(".json").read_text())
    problems = []
    boxes = sel["search_box"]
    if not _inside(sel["h_star"], boxes[0]):
        problems.append(f"{stem.name}: h* outside the search box")
    if len(boxes) > 1 and not _inside(sel["g_star"], boxes[1]):
        problems.append(f"{stem.name}: g* outside the search box")
    finite = [entry[-1] for entry in sel["objective_trace"]
              if entry[-1] is not None and math.isfinite(entry[-1])]
    star = tuple(v for v in (sel["h_star"], sel["g_star"]) if v is not None)
    at_star = [entry[-1] for entry in sel["objective_trace"] if tuple(entry[:-1]) == star]
    if not finite or not at_star or not math.isfinite(at_star[0]):
        problems.append(f"{stem.name}: no finite objective at the selected bandwidths")
    else:
        quality.setdefault("search_mise", []).append(min(finite))
    return problems


def _check_region(stem: Path) -> list[str]:
    cols = _columns(stem.with_suffix(".csv"))
    lower, upper = cols["lower"], cols["upper"]
    meta = json.loads(stem.with_suffix(".json").read_text())
    problems = []
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
            and np.all(0.0 <= lower) and np.all(lower <= upper) and np.all(upper <= 1.0)):
        problems.append(f"{stem.name}: region violates 0 <= lower <= upper <= 1")
    calibration = meta["lambda_or_rho"]
    if not (isinstance(calibration, (int, float)) and math.isfinite(calibration)
            and calibration > 0.0):
        problems.append(f"{stem.name}: lambda*/rho* is not finite and positive")
    return problems


def _check_simulate(out: Path, quality: dict) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = []
    if report["incomplete"] or report["samples_completed"] != report["n_samples"]:
        problems.append("simulate: report is incomplete")
    metrics = report.get("bandwidth_metrics") or {}
    rmise = metrics.get("mean_rmise_selected")
    if rmise is None or not math.isfinite(rmise):
        problems.append("simulate: no finite mean_rmise_selected")
    else:
        quality["rmise_selected"] = rmise
    return problems


def check_command(command, pass_dir: Path, quality: dict) -> list[str]:
    """Problems in the outputs of one command (empty list when all is well)."""
    out = pass_dir / command.out
    try:
        if command.sub == "simulate":
            return _check_simulate(out, quality)
        problems = []
        for x0 in command.x0:
            stem = pass_dir / f"{command.out}_x{x0_tag(x0)}"
            if command.sub == "fit":
                problems += _check_fit(stem)
            elif command.sub == "select-bandwidth":
                problems += _check_selection(stem, quality)
            else:
                problems += _check_region(stem)
        return problems
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command.out}: unreadable output ({type(exc).__name__}: {exc})"]


def digest(pass_dir: Path) -> str:
    """sha256 over every output file of a pass, by relative name, timings.json excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in pass_dir.rglob("*") if p.is_file()):
        if path.name in UNHASHED:
            continue
        h.update(str(path.relative_to(pass_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
