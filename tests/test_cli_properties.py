"""Property tests: malformed CLI input ends in a documented exit code, never a traceback.

Every run calls ``cli.main`` in-process and must return 0, 2, 3 or 4 without
an exception escaping; whenever it is not 0, the ``--error-json`` record
must exist and carry the same exit code.  Example counts are capped and the
search is derandomized, so the suite stays quick and repeatable.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from condsurv.cli import main

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# 40 rows from model 1 (covariate in [0, 1]), written once as the valid base input
_rng = np.random.default_rng(8)
_T, _C = _rng.exponential(1.0, 40), _rng.exponential(2.0, 40)
ROWS = [[repr(float(x)), repr(float(min(t, c))), str(int(t <= c))] for x, t, c in zip(_rng.random(40), _T, _C)]

SPECIAL = ["", " ", "nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1", "2", "0.5", "1e300", "1e-300",
           "1e400", "abc", "1,2", "0x10", "1_0", '"', "\t0.3"]
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
cell = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr), text)
# integers stay small: a flag such as --B or --n-grid sets an amount of work
number = st.one_of(st.sampled_from(SPECIAL), st.floats(width=32).map(str), st.integers(-3, 12).map(str))


def run(argv, files=None):
    """Run the CLI in a scratch directory; return the exit code, the error record and the JSON outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in (files or {}).items():
            (tmp / name).write_text(content, encoding="utf-8")
        err_path = tmp / "err.json"
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        code = main([*argv, "--out", str(tmp / "out"), "--error-json", str(err_path)])
        record = json.loads(err_path.read_text()) if err_path.exists() else None
        outputs = [json.loads(path.read_text()) for path in sorted(tmp.glob("out*.json"))]
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert record is None
    else:
        assert record["exit_code"] == code and record["message"]
    return code, record, outputs


def csv_text(rows):
    return "x,z,delta\n" + "".join(",".join(row) + "\n" for row in rows)


@SETTINGS
@given(
    edits=st.lists(st.tuples(st.integers(0, len(ROWS) - 1), st.integers(0, 2), cell), max_size=3),
    extra=st.lists(st.lists(cell, min_size=0, max_size=4), max_size=2),
    estimator=st.sampled_from(["beran", "smoothed-beran", "kaplan-meier"]),
)
def test_malformed_csv_cells(edits, extra, estimator):
    rows = [list(row) for row in ROWS]
    for i, j, value in edits:
        rows[i][j] = value
    files = {"data.csv": csv_text(rows + extra)}
    run(["fit", "--data", "{tmp}/data.csv", "--estimator", estimator, "--x0", "0.5",
         "--h", "0.3", "--g", "0.2", "--n-grid", "6"], files)


json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(), text),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(text, inner, max_size=2)),
    max_leaves=4,
)
# every flag of fit except the paths, plus names that are no flag
config_key = st.sampled_from(["x0", "h", "g", "n_grid", "n-grid", "t_max", "t-max", "estimator", "support",
                              "filter", "x_col", "z_col", "status_col", "hh", "B", "seed", ""])


@SETTINGS
@given(entries=st.one_of(st.dictionaries(config_key, json_value, max_size=3), json_value))
def test_malformed_config_entries(entries):
    files = {"data.csv": csv_text(ROWS), "run.json": json.dumps(entries)}
    run(["fit", "--data", "{tmp}/data.csv", "--estimator", "beran", "--x0", "0.5", "--h", "0.3",
         "--n-grid", "6", "--config", "{tmp}/run.json"], files)


@SETTINGS
@given(
    flags=st.dictionaries(
        st.sampled_from(["--h", "--g", "--alpha", "--B", "--c", "--n-grid", "--t-max", "--x0", "--seed",
                         "--method", "--support"]),
        number,
        max_size=3,
    ),
    estimator=st.sampled_from(["beran", "smoothed-beran"]),
)
def test_malformed_region_flags(flags, estimator):
    argv = {"--h": "0.3", "--g": "0.2", "--B": "6", "--n-grid": "6", "--x0": "0.5", "--seed": "1"} | flags
    run(["region", "--data", "{tmp}/data.csv", "--estimator", estimator,
         *[part for item in argv.items() for part in item]], {"data.csv": csv_text(ROWS)})


@SETTINGS
@given(
    flags=st.dictionaries(
        st.sampled_from(["--B", "--c", "--grid-size", "--box", "--box-g", "--x0", "--t-max", "--n-grid"]),
        number,
        max_size=3,
    ),
    estimator=st.sampled_from(["beran", "smoothed-beran"]),
)
def test_malformed_select_bandwidth_flags(flags, estimator):
    argv = {"--B": "4", "--grid-size": "3", "--n-grid": "6", "--x0": "0.5"} | flags
    run(["select-bandwidth", "--data", "{tmp}/data.csv", "--estimator", estimator, "--seed", "2",
         "--strategy", "grid", *[part for item in argv.items() for part in item]],
        {"data.csv": csv_text(ROWS)})


interval = st.tuples(number, number).map(",".join)


@SETTINGS
@given(box=interval, box_g=interval, estimator=st.sampled_from(["beran", "smoothed-beran"]))
def test_select_bandwidth_stays_in_its_search_boxes(box, box_g, estimator):
    code, _, outputs = run(["select-bandwidth", "--data", "{tmp}/data.csv", "--estimator", estimator,
                            "--seed", "2", "--strategy", "grid", "--B", "4", "--grid-size", "3",
                            "--n-grid", "6", "--x0", "0.5", "--box", box, "--box-g", box_g],
                           {"data.csv": csv_text(ROWS)})
    if code == 0:
        (selection,) = outputs
        chosen = [selection["h_star"], selection["g_star"]][: len(selection["search_box"])]
        for value, (low, high) in zip(chosen, selection["search_box"]):
            assert np.isfinite(value) and low <= value <= high
