import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def _write_run(folder: Path, data: bytes, manifest: dict) -> Path:
    folder.mkdir()
    (folder / "run.json").write_bytes(data)
    (folder / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return folder


def test_compare_masks_paths_and_timings_but_not_data(tmp_path):
    def manifest(folder, wall_s):
        return {"outputs": {"data": f"{folder}/run.json"}, "telemetry": {"wall_s": wall_s, "rows": 4}}

    a = _write_run(tmp_path / "a", b'{"value": 1.0}', manifest(tmp_path / "a", 0.5))
    b = _write_run(tmp_path / "b", b'{"value": 1.0}', manifest(tmp_path / "b", 0.7))
    assert ab.compare_outputs(a, b) == []
    c = _write_run(tmp_path / "c", b'{"value": 1.0000000000000002}', manifest(tmp_path / "c", 0.5))
    assert ab.compare_outputs(a, c) == ["data"]
    d = _write_run(tmp_path / "d", b'{"value": 1.0}', {**manifest(tmp_path / "d", 0.5), "master_seed": 3})
    (d / "run.rho-env.json").write_text("{}", encoding="utf-8")
    assert ab.compare_outputs(a, d) == ["files", "manifest"]


def test_a_row_that_fails_or_writes_nothing_fails_on_both_sides(tmp_path):
    # two runs that exit with the same error and write nothing once read as
    # the same; a byte-identity gate must not pass a row with no output
    a = _write_run(tmp_path / "a", b'{"value": 1.0}', {})
    b = _write_run(tmp_path / "b", b'{"value": 1.0}', {})
    assert ab.verdict(a, b, (0, 0)) is None
    empty = [tmp_path / "e", tmp_path / "f"]
    for folder in empty:
        folder.mkdir()
    assert ab.verdict(*empty, (1, 1)) == "FAILED: base exited with code 1, head exited with code 1"
    assert ab.verdict(*empty, (0, 0)) == "FAILED: base wrote no run.json, head wrote no run.json"
    assert ab.verdict(a, empty[1], (0, 2)) == "FAILED: head exited with code 2"
    c = _write_run(tmp_path / "c", b'{"value": 2.0}', {})
    assert ab.verdict(a, c, (0, 0)) == "DIFFERS in data"


def test_two_matrix_rows_match_between_two_checkouts_of_head():
    # both sides run from HEAD, each checked out in a temporary worktree, so
    # uncommitted edits to the checkout cannot change the verdict; the tool
    # must find the same bytes and leave the checkout and its worktrees as
    # they were
    if _git("rev-parse", "--verify", "HEAD").returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    before = (_git("status", "--porcelain").stdout, _git("worktree", "list", "--porcelain").stdout)
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "ab.py"),
            "--base",
            "HEAD",
            "--head",
            "HEAD",
            "--rows",
            "alpha-point,tree-reduce",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "alpha-point: same\n" in done.stdout and "tree-reduce: same\n" in done.stdout
    assert "2 of 2 rows the same" in done.stdout
    assert (_git("status", "--porcelain").stdout, _git("worktree", "list", "--porcelain").stdout) == before


def test_a_library_row_writes_the_reprs_of_its_study_at_seeds_0_to_2(tmp_path):
    # a library row runs a study no subcommand reaches; its data file is
    # what a byte compare needs: the full result of each seed, budget included
    import killedwalk as kw

    assert ab.run_row(ROOT, "geodesic-passage", tmp_path / "run") == 0
    got = json.loads((tmp_path / "run" / "run.json").read_text(encoding="utf-8"))
    bern, cfg = kw.make_distribution(ab.BERN), kw.TreeConfig(d=3, depth_cap_D=10)
    want = []
    for seed in range(3):
        result = kw.simulate_geodesic_passage(cfg, bern, target=2, n_walks=1000, seed=seed)
        want.append(repr((*result, result.trunc_budget, result.lost_by_cause)))
    assert got == want
