"""Byte-identity A/B of the killedwalk CLI against a base commit.

Checks REF out with `git worktree add --detach` into a temporary directory
outside the checkout, runs a fixed matrix of CLI configurations (MATRIX)
and of library studies no subcommand runs (LIBRARY) with the base tree's
src/ and with the head's, and compares each row's outputs:

- the data file and tree-reduce's rho-env file, byte for byte;
- the manifest, as JSON with the output paths and any timing masked.

A library row writes only a data file: the repr of its study's result
at seeds 0-2, WalkerEstimate's trunc_budget and lost_by_cause included.

The head is the checkout's working tree, uncommitted edits included, or
with --head REF2 a second commit, checked out the same way.  A row whose
run exits non-zero or writes no data file on either side fails, since
two runs that produced nothing show nothing.  Prints one verdict a row
and exits 1 if any row differs or fails.  The worktrees are removed
again, so the checkout is left as it was.

    python tools/ab.py [--base REF] [--head REF2] [--rows NAME,NAME,...]

REF defaults to HEAD~1, the parent of the checked-out commit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

BERN = {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
EXP1 = {"kind": "exponential", "rate": 1.0}
POINT = {"kind": "point", "value": 0.2231435513142097}  # -ln 0.8: alpha = beta = ln 2

# name: (command, params); every row runs at --seed 11 --format json
MATRIX = {
    "alpha-bernoulli": ("alpha", {"distribution": BERN, "n_samples": 1000}),
    "alpha-exp1": ("alpha", {"distribution": EXP1, "n_samples": 1000}),
    "alpha-point": ("alpha", {"distribution": POINT, "n_samples": 1000}),
    "alpha-ergodic": ("alpha", {"distribution": BERN, "method": "ergodic", "n": 500}),
    "beta-bernoulli": ("beta", {"distribution": BERN, "n_grid": [2, 4, 8]}),
    "variational-tilt": (
        "variational",
        {"distribution": BERN, "n_samples": 300, "theta_hi": 4.0, "n_grid": 19, "max_evals": 20, "beta": False},
    ),
    "variational-simplex": (
        "variational",
        {"distribution": BERN, "family": "free-simplex", "n_samples": 200, "n_grid": 5, "max_evals": 8, "beta": False},
    ),
    "tree-reduce": ("tree-reduce", {"distribution": BERN, "d": 3, "n": 32, "depth_cap": 16}),
    "green": ("green", {"distribution": BERN, "n_values": [5, 10, 20]}),
    "selftest": ("selftest", {}),
}

# name: a library study at the tree benchmark's config, an expression in
# kw (the package), BERN and seed; each row writes the repr of its results
# at seeds 0-2 to run.json
_WALKERS = "kw.TreeConfig(d=3, depth_cap_D=10), BERN"
LIBRARY = {
    "excursions": f"kw.simulate_excursions({_WALKERS}, site_index=0, n_excursions=5000, seed=seed)",
    "geodesic-passage": f"kw.simulate_geodesic_passage({_WALKERS}, target=2, n_walks=1000, seed=seed)",
    "turning-point": (
        "kw.turning_point_decompose(kw.GeodesicSpec('turning-point', turning_index_k=2, target_index=4),"
        " kw.TreeConfig(d=3, drift_p=0.45), BERN, seed=seed, barrier_r=-3)"
    ),
}
_LIBRARY_SCRIPT = """\
import json
import killedwalk as kw
BERN = kw.make_distribution({bern!r})
results = []
for seed in range(3):
    result = {call}
    if isinstance(result, kw.WalkerEstimate):
        result = (*result, result.trunc_budget, result.lost_by_cause)
    results.append(repr(result))
with open("run.json", "w", encoding="utf-8") as out:
    json.dump(results, out, indent=1)
"""

# a manifest entry whose key names a time is masked, as is every output path
_TIMING_KEY = re.compile(r"(^|_)(s|seconds|time|times|wall|elapsed)$")


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def run_row(tree: Path, name: str, out_dir: Path) -> int:
    """Run matrix or library row name with tree's src/ on the path,
    writing its outputs under out_dir; returns the exit code."""
    out_dir.mkdir(parents=True)
    if name in LIBRARY:
        argv = [sys.executable, "-c", _LIBRARY_SCRIPT.format(bern=BERN, call=LIBRARY[name])]
    else:
        command, params = MATRIX[name]
        argv = [sys.executable, "-m", "killedwalk.cli", command, "--seed", "11", "--format", "json", "--out", "run"]
        for key, value in params.items():
            argv += ["-P", f"{key}={json.dumps(value)}"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=out_dir, env=env, capture_output=True, text=True)
    return done.returncode


def _masked(value, out_dir: str):
    """value with every occurrence of out_dir in a string and every
    timing entry replaced by a placeholder."""
    if isinstance(value, dict):
        return {k: "<time>" if _TIMING_KEY.search(k) else _masked(v, out_dir) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v, out_dir) for v in value]
    if isinstance(value, str):
        return value.replace(out_dir, "<out>")
    return value


def compare_outputs(base: Path, head: Path) -> list[str]:
    """The names of the outputs that differ between two run directories
    of one matrix row: 'data', 'rho-env', 'manifest', and 'files' if the
    two wrote different file names."""
    names = sorted(p.name for p in base.iterdir()), sorted(p.name for p in head.iterdir())
    diffs = [] if names[0] == names[1] else ["files"]
    for label, pattern in (("data", "run.json"), ("rho-env", "run.rho-env.json")):
        a, b = base / pattern, head / pattern
        if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
            diffs.append(label)
    a, b = base / "run.manifest.json", head / "run.manifest.json"
    if a.exists() and b.exists():
        sides = [_masked(json.loads(p.read_text(encoding="utf-8")), str(p.parent)) for p in (a, b)]
        if sides[0] != sides[1]:
            diffs.append("manifest")
    return diffs


def verdict(base: Path, head: Path, codes: tuple[int, int]) -> str | None:
    """None if one matrix row's runs in base and head, which exited with
    codes, wrote the same outputs, else what failed or differs."""
    failed = [
        f"{side} {f'exited with code {code}' if code else 'wrote no run.json'}"
        for side, folder, code in (("base", base, codes[0]), ("head", head, codes[1]))
        if code or not (folder / "run.json").exists()
    ]
    if failed:
        return f"FAILED: {', '.join(failed)}"
    diffs = compare_outputs(base, head)
    return f"DIFFERS in {', '.join(diffs)}" if diffs else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="byte-identity A/B of the CLI matrix and library rows against a base commit")
    parser.add_argument("--base", default="HEAD~1", help="the commit to compare against (default: HEAD~1)")
    parser.add_argument("--head", help="the commit to compare (default: the working tree)")
    rows = [*MATRIX, *LIBRARY]
    parser.add_argument("--rows", default=",".join(rows), help="comma-separated rows (default: all)")
    args = parser.parse_args(argv)
    unknown = [row for row in args.rows.split(",") if row not in rows]
    if unknown:
        parser.error(f"unknown rows {unknown}; the rows are {rows}")
    rows = args.rows.split(",")
    sides = {"base": args.base} if args.head is None else {"base": args.base, "head": args.head}
    commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}") for side, ref in sides.items()}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="killedwalk-ab-") as tmp:
        trees, runs, checked_out = {"head": REPO}, Path(tmp) / "runs", []
        try:
            for side, commit in commits.items():
                trees[side] = Path(tmp) / side
                _git("worktree", "add", "--detach", str(trees[side]), commit)
                checked_out.append(trees[side])
            head = f"{args.head} = {commits['head'][:12]}" if "head" in commits else f"the working tree at {REPO}"
            print(f"base {args.base} = {commits['base'][:12]}, head {head}")
            for row in rows:
                folders = runs / "base" / row, runs / "head" / row
                codes = run_row(trees["base"], row, folders[0]), run_row(trees["head"], row, folders[1])
                found = verdict(*folders, codes)
                bad += found is not None
                print(f"{row}: {found or 'same'}")
        finally:
            for tree in checked_out:
                _git("worktree", "remove", "--force", str(tree))
    print(f"{len(rows) - bad} of {len(rows)} rows the same")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
