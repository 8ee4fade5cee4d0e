import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from killedwalk import cli, tree
from killedwalk.cli import CSV_COLUMNS, main
from killedwalk.env import make_distribution
from killedwalk.lyapunov import estimate_alpha_ergodic, estimate_alpha_mc

BERN_SPEC = {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
CONST_SPEC = {"kind": "point", "value": -math.log(0.8)}


def run_cli(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_selftest_passes(tmp_path, capsys):
    code = run_cli(tmp_path, "selftest", "--out", "st")
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    header = (tmp_path / "st.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS["selftest"])


def test_malformed_atoms_fail_with_field_name(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {"command": "alpha", "params": {"distribution": {"kind": "finite", "atoms": [[-1.0, 1.0]]}}},
    )
    code = run_cli(tmp_path, "--config", cfg)
    err = capsys.readouterr().err
    assert code == 2
    record = json.loads(err)
    assert record["field"] == "distribution"
    assert "atom value" in record["error"]


def test_nan_rate_fails_with_field_name(tmp_path, capsys):
    code = run_cli(tmp_path, "alpha", "-P", 'distribution={"kind":"exponential","rate":NaN}')
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "distribution"
    assert "rate" in record["error"]


def test_wide_seed_matches_library_and_narrow_seed(tmp_path):
    params = ["-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", "n_samples=40", "-P", "tol=1e-6"]
    for seed, out in ((2**64 + 7, "wide"), (7, "narrow")):
        assert run_cli(tmp_path, "alpha", "--seed", str(seed), "--format", "json", "--out", out, *params) == 0
    wide = json.loads((tmp_path / "wide.json").read_text())["summary"]
    narrow = json.loads((tmp_path / "narrow.json").read_text())["summary"]
    library = estimate_alpha_mc(make_distribution(BERN_SPEC), n_samples=40, tol=1e-6, seed=2**64 + 7)
    assert wide["value"] == narrow["value"] == library.value


def test_missing_distribution_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, "none.json", {"command": "alpha", "params": {}})
    assert run_cli(tmp_path, "--config", cfg) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "distribution"


def test_alpha_subcommand_writes_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        "alpha.json",
        {
            "command": "alpha",
            "params": {"distribution": CONST_SPEC, "n_samples": 8, "tol": 1e-9},
            "seed": 3,
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "a") == 0
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS["alpha"])
    value = float(lines[1].split(",")[1])
    assert value == pytest.approx(math.log(2.0), abs=1e-7)
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["run_config"]["seed"] == 3
    assert manifest["killedwalk_version"]


def test_alpha_ergodic_emits_ratio_curve(tmp_path):
    cfg = write_config(
        tmp_path,
        "erg.json",
        {
            "command": "alpha",
            "params": {"distribution": BERN_SPEC, "method": "ergodic", "n": 50, "r_offset": 32},
            "seed": 4,
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "e") == 0
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[0] == "k,a_over_k"
    assert len(lines) == 51
    assert int(lines[1].split(",")[0]) == 1


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "odd.json", {"command": "entropy-only", "params": {}})
    assert run_cli(tmp_path, "--config", cfg) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "command"


def test_missing_config_file_reports_cleanly(tmp_path, capsys):
    assert run_cli(tmp_path, "alpha", "--config", str(tmp_path / "absent.json")) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["exit_code"] == 1 and "absent.json" in record["error"]


def test_beta_columns_follow_contract(tmp_path):
    cfg = write_config(
        tmp_path,
        "beta.json",
        {
            "command": "beta",
            "params": {"distribution": BERN_SPEC, "n_grid": [2, 3], "r_ratio": 3.0},
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "b") == 0
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "n,b_over_n,method,stat_err,trunc_err"
    assert len(lines) == 3


@pytest.mark.parametrize("spec", [BERN_SPEC, {"kind": "exponential", "rate": 1.0}])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_beta_rows_keep_zero_stat_err_and_the_transfer_method(tmp_path, spec, fmt):
    # every row is exact; a Jensen check reads stat_err and method from this file
    argv = ["beta", "-P", f"distribution={json.dumps(spec)}", "-P", "n_grid=[2,3,5]", "--format", fmt, "--out", "b"]
    assert run_cli(tmp_path, *argv) == 0
    text = (tmp_path / f"b.{fmt}").read_text()
    if fmt == "csv":
        header, *lines = text.splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    else:
        rows = json.loads(text)["rows"]
    assert len(rows) == 3
    assert all(float(row["stat_err"]) == 0.0 and row["method"] == "annealed-transfer" for row in rows)


def test_bad_beta_grid_and_barrier_ratio_fail_with_parameter_name(tmp_path, capsys):
    cases = [
        ("beta", "n_grid=[2,4,4]", "n_grid"),
        ("beta", "r_ratio=Infinity", "r_ratio"),
        ("beta", "r_ratio=NaN", "r_ratio"),
        ("beta", "r_ratio=0", "r_ratio"),
        ("tree-reduce", "r_ratio=Infinity", "r_ratio"),
        ("tree-reduce", "r_ratio=NaN", "r_ratio"),
        ("tree-reduce", "r_ratio=-1", "r_ratio"),
    ]
    for command, param, name in cases:
        dist = f"distribution={json.dumps(BERN_SPEC)}"
        assert run_cli(tmp_path, command, "-P", dist, "-P", param, "-P", "n=2", "--out", "x") == 2
        record = json.loads(capsys.readouterr().err)
        assert name in record["error"], (command, param, record)
    assert not (tmp_path / "x.csv").exists()


def test_beta_accepts_and_ignores_method_and_n_paths(tmp_path):
    base = ["beta", "-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", "n_grid=[2,3]", "-P", "r_ratio=3.0"]
    assert run_cli(tmp_path, *base, "--out", "plain") == 0
    assert run_cli(tmp_path, *base, "-P", 'method="enum"', "-P", "n_paths=10", "--out", "knobs") == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "knobs.csv").read_bytes()


def test_variational_columns_follow_contract(tmp_path):
    cfg = write_config(
        tmp_path,
        "var.json",
        {
            "command": "variational",
            "params": {
                "distribution": CONST_SPEC,
                "n_samples": 4,
                "tol": 1e-9,
                "n_grid": 5,
                "max_evals": 12,
                "beta": {"n_grid": [2, 4]},
            },
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "v", "--format", "json") == 0
    payload = json.loads((tmp_path / "v.json").read_text())
    assert set(payload["rows"][0]) == {"theta", "E_Q_F", "kl_per_site", "objective"}
    s = payload["summary"]
    assert s["alpha_hat"] == pytest.approx(math.log(2.0), abs=1e-7)
    assert s["beta_hat"] == pytest.approx(math.log(2.0), abs=1e-4)
    assert s["var_min_value"] == pytest.approx(math.log(2.0), abs=1e-7)


def test_variational_survives_a_tilt_that_empties_an_atom(tmp_path):
    # at theta = 1000 the tilt of Bernoulli{0,1} puts weight 0 on the atom at 1:
    # the point mass at 0, whose limit is 0 exactly, at the default n_samples
    argv = ["variational", "-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", "theta_hi=1000", "-P", "n_grid=2"]
    argv += ["-P", "max_evals=0", "-P", "beta=false", "--format", "json", "--out", "v"]
    start = time.perf_counter()
    assert run_cli(tmp_path, *argv) == 0
    assert time.perf_counter() - start < 60.0  # every row down to r = -2^20 would take minutes
    rows = json.loads((tmp_path / "v.json").read_text())["rows"]
    assert [row["theta"] for row in rows] == [-1.0, 0.0, 1000.0]
    assert rows[-1]["E_Q_F"] == 0.0
    assert rows[-1]["kl_per_site"] == pytest.approx(math.log(2.0), rel=1e-14)


def test_tree_reduce_emits_consumable_environment(tmp_path):
    cfg = write_config(
        tmp_path,
        "tree.json",
        {
            "command": "tree-reduce",
            "params": {"distribution": BERN_SPEC, "d": 3, "n": 3, "depth_cap": 8},
            "seed": 5,
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "t") == 0
    assert (tmp_path / "t.rho-env.json").exists()
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS["tree-reduce"])

    green_cfg = write_config(
        tmp_path,
        "green.json",
        {
            "command": "green",
            "params": {"environment_file": str(tmp_path / "t.rho-env.json"), "n_values": [1, 2]},
        },
    )
    assert run_cli(tmp_path, "--config", green_cfg, "--out", "g") == 0
    glines = (tmp_path / "g.csv").read_text().splitlines()
    assert glines[0] == ",".join(CSV_COLUMNS["green"])
    assert len(glines) == 3


def test_green_ratio_close_to_one_for_constant_potential(tmp_path):
    cfg = write_config(
        tmp_path,
        "green.json",
        {
            "command": "green",
            "params": {
                "distribution": CONST_SPEC,
                "window": [-100, 100],
                "n_values": [5, 10, 20],
            },
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "g") == 0
    rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
    ratios = [float(line.split(",")[3]) for line in rows]
    assert abs(ratios[0] - 1.0) <= 0.15
    assert abs(ratios[0] - 1.0) >= abs(ratios[1] - 1.0) >= abs(ratios[2] - 1.0)


def test_bad_green_n_values_fail_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    for values in ("[0,3]", "[3,-2]", "[2.5]", "[true]", "4", '["3"]'):
        assert run_cli(tmp_path, "green", "-P", dist, "-P", f"n_values={values}", "--out", "g") == 2, values
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "n_values", (values, record)
        assert "n_values" in record["error"]
    assert not (tmp_path / "g.csv").exists()


def test_green_n_at_or_past_the_window_end_fails_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    for values, window in (("[200]", "[-100,100]"), ("[3,10]", "[-20,10]"), ("[5]", "[-5,5]")):
        argv = ["green", "-P", dist, "-P", f"n_values={values}", "-P", f"window={window}", "--out", "g"]
        assert run_cli(tmp_path, *argv) == 2, values
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "n_values", (values, record)
        assert "n_values" in record["error"]
    assert not (tmp_path / "g.csv").exists()


def test_tree_reduce_range_errors_name_their_field(tmp_path, capsys):
    dist = f"distribution={json.dumps(BERN_SPEC)}"
    cases = [
        ("tree-reduce", "n=0", "n"),
        ("tree-reduce", "n=-3", "n"),
        ("tree-reduce", "r_ratio=0", "r_ratio"),
        ("tree-reduce", "r_ratio=NaN", "r_ratio"),
        ("beta", "r_ratio=0", "r_ratio"),
    ]
    for command, param, name in cases:
        assert run_cli(tmp_path, command, "-P", dist, "-P", param, "--out", "x") == 2, param
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == name and record["exit_code"] == 2, (command, param, record)
    assert not (tmp_path / "x.csv").exists()


def test_huge_depth_cap_fails_at_once_naming_the_depth(tmp_path, capsys, monkeypatch):
    # a depth past the forest budget is a bad value, refused before any
    # forest is built and naming the deepest depth that fits
    monkeypatch.setattr(tree, "_run_levels", None)
    dist = f"distribution={json.dumps(BERN_SPEC)}"
    for d, depth, deepest in ((3, 26, 25), (3, 30, 25), (3, 20000, 25), (4, 16, 15)):
        argv = ["tree-reduce", "-P", dist, "-P", f"d={d}", "-P", f"depth_cap={depth}", "--out", "x"]
        assert run_cli(tmp_path, *argv) == 2, depth
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "depth_cap" and f"at most {deepest}," in record["error"], record
        assert f"got {depth}" in record["error"] and "vertices" in record["error"], record
    assert not (tmp_path / "x.csv").exists()
    # a one-atom law collapses to a scalar recursion, one step a level,
    # which takes any depth up to the vertex budget
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    budget = tree._FOREST_VERTEX_BUDGET
    assert run_cli(tmp_path, "tree-reduce", "-P", dist, "-P", f"depth_cap={budget + 1}", "--out", "x") == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "depth_cap" and f"at most {budget} for a one-atom law" in record["error"], record
    assert run_cli(tmp_path, "tree-reduce", "-P", dist, "-P", "depth_cap=20000", "-P", "n=2", "--out", "x") == 0


def test_one_atom_finite_spelling_takes_the_point_depth_bound(tmp_path, capsys):
    # both spellings of one law run the scalar recursion: the forest bound
    # (25 at d = 3) once refused the finite one
    specs = {"point": {"kind": "point", "value": 0.3}, "finite": {"kind": "finite", "atoms": [[0.3, 1.0]]}}
    for name, spec in specs.items():
        argv = ["tree-reduce", "-P", f"distribution={json.dumps(spec)}", "-P", "depth_cap=30", "-P", "n=4"]
        assert run_cli(tmp_path, *argv, "--out", name) == 0, capsys.readouterr().err
    assert (tmp_path / "finite.csv").read_bytes() == (tmp_path / "point.csv").read_bytes()


def test_bad_beta_grids_fail_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(BERN_SPEC)}"
    cases = [
        ("beta", "n_grid=[2,4,4]", "n_grid"),
        ("beta", "n_grid=[]", "n_grid"),
        ("beta", "n_grid=[0,2]", "n_grid"),
        ("beta", "n_grid=[[2],4]", "n_grid"),
        ("beta", "n_grid=8", "n_grid"),
        ("beta", f"n_grid=[{10**400}]", "n_grid"),
        ("variational", 'beta={"n_grid":[2,2]}', "beta.n_grid"),
        ("variational", 'beta={"n_grid":[1.5]}', "beta.n_grid"),
        ("variational", f'beta={{"n_grid":[2,{10**400}]}}', "beta.n_grid"),
        ("variational", 'beta={"r_ratio":0}', "beta.r_ratio"),
        ("variational", 'beta={"r_ratio":-2}', "beta.r_ratio"),
    ]
    for command, param, name in cases:
        argv = [command, "-P", dist, "-P", "n_samples=4", "-P", param, "--out", "x"]
        assert run_cli(tmp_path, *argv) == 2, param
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == name and name in record["error"], (command, param, record)
    assert not (tmp_path / "x.csv").exists()


def test_variational_beta_block_must_be_an_object_null_or_false(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    small = ["-P", "n_samples=4", "-P", "n_grid=3", "-P", "max_evals=4", "-P", 'beta={"n_grid":[2]}']
    for value in ("true", "1", "[2,4]", '"yes"'):
        argv = ["variational", "-P", dist, *small, "-P", f"beta={value}", "--out", "v"]
        assert run_cli(tmp_path, *argv) == 2, value
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "beta" and "beta" in record["error"], (value, record)
    assert not (tmp_path / "v.csv").exists()
    for value, has_beta in (("null", True), ("false", False), ('{"n_grid":[2]}', True)):
        argv = ["variational", "-P", dist, *small, "-P", f"beta={value}", "--format", "json", "--out", "v"]
        assert run_cli(tmp_path, *argv) == 0, value
        summary = json.loads((tmp_path / "v.json").read_text())["summary"]
        assert (summary["beta_hat"] is not None) == has_beta, value


def test_sample_and_grid_sizes_fail_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    cases = [
        ("alpha", ["n_samples=1"], "n_samples"),
        ("alpha", ["n_samples=0"], "n_samples"),
        ("variational", ["n_samples=1"], "n_samples"),
        ("variational", ["n_grid=0"], "n_grid"),
        ("variational", ["n_grid=1"], "n_grid"),
        ("variational", ["n_grid=0", "theta_lo=0.5"], "n_grid"),
    ]
    for command, params, name in cases:
        argv = [command, "-P", dist, "-P", "beta=false"] if command == "variational" else [command, "-P", dist]
        for param in params:
            argv += ["-P", param]
        assert run_cli(tmp_path, *argv, "--out", "x") == 2, params
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == name and record["exit_code"] == 2, (command, params, record)
    assert not (tmp_path / "x.csv").exists()


BAD_VALUES = [
    # (command, -P overrides, config-file entries or text, field): each
    # value was once silently truncated or misread, failed without a field
    # name, or raised a traceback
    ("alpha", ["n_samples=2.9"], {}, "n_samples"),
    ("alpha", ["n_samples=abc"], {}, "n_samples"),
    ("alpha", ["n_samples=2", "tol=NaN"], {}, "tol"),
    ("alpha", ["tol=abc"], {}, "tol"),
    ("alpha", ["tol=-1"], {}, "tol"),
    ("alpha", ['method="ergodic"', "r_offset=0"], {}, "r_offset"),
    ("alpha", ["n_samples=2"], {"seed": 1.5}, "seed"),
    ("alpha", ["n_samples=2"], {"seed": "abc"}, "seed"),
    ("alpha", ['distribution={"kind":"finite","atoms":[[0]]}'], {}, "distribution"),
    ("alpha", ['distribution={"kind":"finite","atoms":[5]}'], {}, "distribution"),
    ("alpha", ['distribution={"kind":"exponential","rate":[1]}'], {}, "distribution"),
    ("alpha", ['distribution={"kind":"point","value":null}'], {}, "distribution"),
    ("alpha", ['distribution={"kind":"point"}'], {}, "distribution"),
    ("variational", ["max_evals=1.5"], {}, "max_evals"),
    ("variational", ["theta_lo=NaN"], {}, "theta_lo"),
    ("variational", ['family="bogus"'], {}, "family"),
    ("tree-reduce", ["n=2.5"], {}, "n"),
    ("tree-reduce", ["d=3.7"], {}, "d"),
    ("tree-reduce", ["d=2"], {}, "d"),
    ("tree-reduce", ["depth_cap=2.5"], {}, "depth_cap"),
    ("tree-reduce", ["drift_p=abc"], {}, "drift_p"),
    ("green", ["stream_id=1.5"], {}, "stream_id"),
    ("green", ["alpha_ref=-1"], {}, "alpha_ref"),
    ("green", ["alpha_ref=0"], {}, "alpha_ref"),
    ("green", ["alpha_ref=abc"], {}, "alpha_ref"),
    ("alpha", [], {"params": [1, 2]}, "config"),
    ("alpha", [], "[]", "config"),
    ("alpha", [], "not json", "config"),
]


@pytest.mark.parametrize(
    "command, overrides, entries, name", BAD_VALUES, ids=[f"{c} {' '.join(o)} {json.dumps(e)}" for c, o, e, _ in BAD_VALUES]
)
def test_every_rejected_value_exits_2_and_names_its_field(tmp_path, capsys, command, overrides, entries, name):
    small = {
        "alpha": ["n_samples=4"],
        "variational": ["n_samples=4", "n_grid=3", "max_evals=4", "beta=false"],
        "tree-reduce": ["n=2", "depth_cap=4"],
        "green": ["n_values=[2]", "window=[-20,20]"],
    }[command]
    if isinstance(entries, dict):
        entries = json.dumps({"command": command, "params": {"distribution": CONST_SPEC}, **entries})
    (tmp_path / "cfg.json").write_text(entries)
    argv = ["--config", str(tmp_path / "cfg.json"), "--out", "x"]
    for text in small + overrides:
        argv += ["-P", text]
    assert run_cli(tmp_path, *argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == name and record["exit_code"] == 2, record
    assert name in record["error"], record
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_integers_keep_every_bit_and_no_float_overflows(tmp_path, capsys):
    stream = 2**64 - 1  # a float round trip would give 2**64
    argv = ["alpha", "-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", 'method="ergodic"', "-P", "n=20"]
    assert run_cli(tmp_path, *argv, "-P", f"stream_id={stream}", "--format", "json", "--out", "e") == 0
    rows = json.loads((tmp_path / "e.json").read_text())["rows"]
    library = estimate_alpha_ergodic(make_distribution(BERN_SPEC), n=20, seed=0, stream_id=stream)
    assert [row["a_over_k"] for row in rows] == [v for _, v in library]
    assert run_cli(tmp_path, "beta", "-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", f"r_ratio={10**400}") == 2
    assert json.loads(capsys.readouterr().err)["field"] == "r_ratio"


def test_a_refusal_that_depends_on_the_data_exits_1(tmp_path, capsys):
    # the window is a valid value; no barrier fits left of the origin in it
    argv = ["green", "-P", f"distribution={json.dumps(CONST_SPEC)}", "-P", "window=[-1,5]", "-P", "n_values=[2]"]
    assert run_cli(tmp_path, *argv, "--out", "g") == 1
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "" and record["exit_code"] == 1, record
    assert not (tmp_path / "g.csv").exists()


def test_a_run_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array too large to allocate
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def too_large(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_run_alpha", too_large)
    assert run_cli(tmp_path, "alpha", "-P", f"distribution={json.dumps(BERN_SPEC)}", "--out", "m") == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": message, "field": "", "command": "alpha", "exit_code": 1}
    assert not (tmp_path / "m.csv").exists()


def test_bad_green_window_fails_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    for window in ("[5]", "[-5,5,9]", "[3,10]", "[-10,-3]", "[-5,0]", "[-5.5,5]", "[false,5]", "7"):
        assert run_cli(tmp_path, "green", "-P", dist, "-P", f"window={window}", "--out", "g") == 2, window
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "window", (window, record)
        assert "window" in record["error"]
    assert not (tmp_path / "g.csv").exists()


MALFORMED_ENVIRONMENTS = [
    # (file text, what the error names): each once ended in a traceback, an
    # exit 1 without a field, or a silently truncated window end
    ('{"window_lo": -3, "window_hi": 3}', "values"),
    ('{"window_lo": -3, "values": [0, 0, 0, 0, 0, 0, 0]}', "window_hi"),
    ("[1, 2]", "object"),
    ('{"window_lo": -3.5, "window_hi": 3, "values": [0, 0, 0, 0, 0, 0, 0]}', "window_lo"),
    ('{"window_lo": -3, "window_hi": "3", "values": [0, 0, 0, 0, 0, 0, 0]}', "window_hi"),
    ('{"window_lo": -3, "window_hi": 3, "values": {"a": 1}}', "values"),
    ("not json", "Expecting value"),
]


@pytest.mark.parametrize(
    "text, key",
    MALFORMED_ENVIRONMENTS,
    ids=["no-values", "no-window_hi", "a-list", "float-window_lo", "string-window_hi", "values-object", "not-json"],
)
def test_malformed_environment_file_exits_2_naming_it(tmp_path, capsys, text, key):
    (tmp_path / "env.json").write_text(text)
    argv = ["green", "-P", f"environment_file={json.dumps(str(tmp_path / 'env.json'))}", "-P", "n_values=[1]"]
    assert run_cli(tmp_path, *argv, "--out", "g") == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "environment_file" and record["exit_code"] == 2, record
    assert key in record["error"], record
    assert not (tmp_path / "g.csv").exists()


def test_missing_environment_file_exits_1(tmp_path, capsys):
    argv = ["green", "-P", f"environment_file={json.dumps(str(tmp_path / 'absent.json'))}", "-P", "n_values=[1]"]
    assert run_cli(tmp_path, *argv, "--out", "g") == 1
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "" and record["exit_code"] == 1 and "absent.json" in record["error"], record


@pytest.mark.parametrize(
    "spec, got",
    [
        (CONST_SPEC, "got 1"),
        ({"kind": "exponential", "rate": 1.0}, "got an exponential law"),
        ({"kind": "finite", "atoms": [[float(v), 0.2] for v in range(5)]}, "got 5"),
    ],
    ids=["point", "exponential", "five-atoms"],
)
def test_free_simplex_on_a_law_it_cannot_take_exits_2_before_beta(tmp_path, capsys, monkeypatch, spec, got):
    monkeypatch.setattr(cli, "estimate_beta", None)  # the refusal comes before the beta block
    argv = ["variational", "-P", f"distribution={json.dumps(spec)}", "-P", 'family="free-simplex"']
    assert run_cli(tmp_path, *argv, "--out", "v") == 2
    record = json.loads(capsys.readouterr().err)
    assert record["field"] == "family" and record["exit_code"] == 2, record
    assert f"needs 2 to 4 atoms, {got}" in record["error"], record
    assert not (tmp_path / "v.csv").exists()


def test_bad_green_step_prob_fails_with_field_name(tmp_path, capsys):
    dist = f"distribution={json.dumps(CONST_SPEC)}"
    for step in ("1.5", "0", "1", "-0.2", "NaN", "Infinity", '"half"', "[0.5]"):
        assert run_cli(tmp_path, "green", "-P", dist, "-P", f"step_right_prob={step}", "--out", "g") == 2, step
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "step_right_prob", (step, record)
        assert "step_right_prob" in record["error"]
    assert not (tmp_path / "g.csv").exists()


def test_flag_overrides_beat_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "alpha.json",
        {
            "command": "alpha",
            "params": {"distribution": CONST_SPEC, "n_samples": 8, "tol": 1e-9},
            "seed": 1,
            "format": "csv",
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "o", "--format", "json", "-P", "n_samples=4") == 0
    payload = json.loads((tmp_path / "o.json").read_text())
    assert payload["summary"]["n_samples"] == 4


def test_manifest_rerun_is_bit_identical_and_thread_independent(tmp_path):
    cfg = write_config(
        tmp_path,
        "alpha.json",
        {
            "command": "alpha",
            "params": {"distribution": BERN_SPEC, "n_samples": 60, "tol": 1e-6},
            "seed": 9,
        },
    )
    assert run_cli(tmp_path, "--config", cfg, "--out", "one", "--threads", "1") == 0
    assert run_cli(tmp_path, "--config", str(tmp_path / "one.manifest.json"), "--out", "two", "--threads", "4") == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    # an integral float is the same count
    assert run_cli(tmp_path, "--config", cfg, "--out", "three", "-P", "n_samples=60.0") == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes()


def test_tree_reduce_ignores_threads(tmp_path):
    # --threads is accepted and ignored: data, rho-env and manifest files
    # are the same bytes at any value, and a manifest that still carries a
    # "threads" entry replays to the same data
    base = ["tree-reduce", "-P", f"distribution={json.dumps(BERN_SPEC)}", "-P", "n=4", "-P", "depth_cap=6", "--seed", "3"]
    assert run_cli(tmp_path, *base, "--threads", "1", "--out", "t") == 0
    (tmp_path / "one").mkdir()
    assert run_cli(tmp_path / "one", *base, "--threads", "4", "--out", "t") == 0
    for suffix in (".csv", ".rho-env.json", ".manifest.json"):
        assert (tmp_path / f"t{suffix}").read_bytes() == (tmp_path / "one" / f"t{suffix}").read_bytes(), suffix
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert "threads" not in manifest["run_config"]
    manifest["run_config"]["threads"] = 2
    old = write_config(tmp_path, "old.manifest.json", manifest)
    assert run_cli(tmp_path, "--config", old, "--out", "replay") == 0
    for suffix in (".csv", ".rho-env.json"):
        assert (tmp_path / f"t{suffix}").read_bytes() == (tmp_path / f"replay{suffix}").read_bytes(), suffix


def test_package_import_leaves_scipy_out():
    # setup time and resident memory of every CLI run depend on this; the
    # thread pool's concurrent.futures stays out too
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, killedwalk, killedwalk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
