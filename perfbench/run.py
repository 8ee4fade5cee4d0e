"""killedwalk benchmark.

    python3 perfbench/run.py --workload {quenched,annealed,tree} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  A run repeats rounds of studies until the
next round would end after S seconds (at least one round), then replays one
study from its manifest at --threads 2 and requires byte-identical data.

--trace 0 prints the end-to-end metrics, with timings in reference seconds
(wall time scaled to a fixed machine speed, see SpeedSampler and
measure_setup); --trace 1 prints the per-layer metrics of a traced run (see
perfbench/README.md).  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
details and the run environment go to the lines above it and to
`.bench_out/`.  Exit status: 0 when every study and check passed, 1 when
one failed, 2 when the checkout holds no `src/killedwalk`.
"""

import os

# pin BLAS before numpy is imported, here and in every child process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 60
CAL_REF_S = 0.003
SETUP_REF_S = 0.150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("quenched", "annealed", "tree"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- run environment ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_environment(seed: int) -> dict:
    import numpy
    import scipy

    import killedwalk

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "killedwalk": killedwalk.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "study_threads": 1,
    }


# -- statistics --------------------------------------------------------------


def timing(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"p50": statistics.median(samples), "n": len(samples), "samples": samples}
    n = len(samples)
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        if p > 50:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            out[f"p{p}"] = cuts[p - 1]
    return out


# -- timing ------------------------------------------------------------------


def _kernel() -> None:
    """Many numpy calls on 48-element arrays, as in per-sample window code."""
    acc = 0.0
    for j in range(150):
        x = np.arange(j % 7, j % 7 + 48, dtype=np.uint64)
        u = ((x * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        v = -np.log1p(-u)
        acc += float(np.cumsum(v)[-1]) + float(np.searchsorted(v, 0.5)) + sum(v[:8].tolist())


class SpeedSampler:
    """Samples the machine's speed while a study runs.

    The machine's speed swings by up to 1.6x within seconds (neighbouring
    load), in process CPU time as well as in wall time.  While active, a
    SIGALRM handler runs a fixed calibration kernel every PERIOD_S.
    `timed` subtracts the handler's time from the study's wall time and
    converts the rest to reference seconds: wall * CAL_REF_S / (the
    kernel's mean time during the study), i.e. the time at the speed at
    which the kernel takes CAL_REF_S.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def timed(self, fn):
        """(result, wall seconds, reference seconds) of fn(), handler time excluded."""
        self._sample()
        first = len(self.samples) - 1
        spent = self.spent
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self.spent - spent)
        self._sample()
        return result, wall, wall * CAL_REF_S / statistics.fmean(self.samples[first:])


# -- set-up ------------------------------------------------------------------


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes that import the package, build the
    workload's distributions and resolve its configs: (raw wall seconds,
    reference seconds).

    Process start-up drifts with the machine too (0.45 s to 0.70 s within
    minutes), but not the way the SpeedSampler kernel does.  So each probe
    runs between two fresh `python3 -c "import numpy"` processes, and its
    wall time is scaled to the speed at which that process takes
    SETUP_REF_S.
    """

    def wall(argv) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    reference = [sys.executable, "-c", "import numpy"]
    raw, ref = [], []
    before = wall(reference)
    for _ in range(SETUP_PROCESSES):
        raw.append(wall([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload]))
        after = wall(reference)
        ref.append(raw[-1] * SETUP_REF_S / (0.5 * (before + after)))
        before = after
    return raw, ref


# -- rounds ------------------------------------------------------------------


class Runner:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, workload, seed: int, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def round(self, index: int, traced: bool = False) -> dict:
        """Run one round: speed-sampled when untraced, span-traced when traced."""
        from workloads import derive_seed

        rdir = self.workdir / f"round{index}{'-traced' if traced else ''}"
        rdir.mkdir()
        tracer = self.tracer if traced else None
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        sampler = None if traced else SpeedSampler()
        raws, study_s, study_ref_s = [], {}, {}
        if tracer:
            tracer.begin_round(index)
            tracer.install()
        try:
            with sampler or contextlib.nullcontext(), span("bench.round"):
                for j, study in enumerate(self.workload.studies):
                    seed = derive_seed(self.seed, index, j)

                    def run(study=study, seed=seed):
                        with span(f"bench.study.{study.label}"):
                            return study.run(seed, str(rdir / study.label))

                    try:
                        if sampler:
                            raw, wall, ref = sampler.timed(run)
                            study_ref_s[study.label] = ref
                        else:
                            t0 = time.perf_counter()
                            raw = run()
                            wall = time.perf_counter() - t0
                    except Exception:  # a failed study is counted, the round goes on
                        traceback.print_exc()
                        raw, wall, study_ref_s[study.label] = None, 0.0, 0.0
                    study_s[study.label] = wall
                    raws.append((study, seed, raw))
        finally:
            if tracer:
                tracer.uninstall()
        out = {"round_s": sum(study_s.values()), "study_s": study_s, "dir": rdir}
        if sampler:
            stages = {study.label: study.stage for study in self.workload.studies}
            out["study_ref_s"] = study_ref_s
            out["round_ref_s"] = sum(study_ref_s.values())
            out["kernel_s"] = statistics.fmean(sampler.samples)
            for stage in ("primary", "secondary"):
                out[f"{stage}_ref_s"] = sum(v for k, v in study_ref_s.items() if stages[k] == stage)
        if tracer:
            out["tally"] = tracer.end_round()

        budget = 0.0
        for study, seed, raw in raws:
            self.attempted += 1
            if raw is None:
                self._fail(f"round {index} study {study.label} raised")
                continue
            try:
                outcome = study.outcome(seed, raw)
            except Exception:
                traceback.print_exc()
                self._fail(f"round {index} study {study.label} output unreadable")
                continue
            budget += outcome.budget
            for name, ok, detail in outcome.checks:
                self.attempted += 1
                if not ok:
                    self._fail(f"round {index} check {name}: {detail}")
        out["budget"] = budget
        return out

    def probe(self, first_round: dict) -> float | None:
        """Replay round 0's probe study from its manifest at --threads 2.

        Returns the speed-up of --threads 2 over the timed --threads 1 run,
        or None if the replay failed or its data differ.
        """
        from workloads import run_cli

        self.attempted += 1
        label = self.workload.probe
        manifest = f"{first_round['dir'] / label}.manifest.json"
        replay = self.workdir / f"probe-{label}"
        try:
            t0 = time.perf_counter()
            rc = run_cli(["--config", manifest, "--threads", "2", "--out", str(replay)])
            t2 = time.perf_counter() - t0
            with open(manifest, encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            pairs = [(outputs["data"], f"{replay}.json")]
            if "environment" in outputs:
                pairs.append((outputs["environment"], f"{replay}.rho-env.json"))
            same = rc == 0 and all(filecmp.cmp(a, b, shallow=False) for a, b in pairs)
        except (OSError, KeyError, ValueError):
            traceback.print_exc()
            same = False
        if not same:
            self._fail(f"probe: {label} replayed at --threads 2 is not byte-identical")
            return None
        return first_round["study_s"][label] / t2


def run_rounds(runner: Runner, seconds: float, traced: bool) -> tuple[list, list]:
    """Rounds until the next one would end after `seconds`; in a traced run
    each traced round follows an untraced round of identical work."""
    plain, with_trace, lap_s = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(runner.round(len(plain)))
        if traced:
            with_trace.append(runner.round(len(with_trace), traced=True))
        lap_s.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(lap_s) > seconds:
            return plain, with_trace


# -- main --------------------------------------------------------------------


def end_to_end(rounds: list, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """(metrics for the result line, details with sample counts).

    Timings are in reference seconds (see SpeedSampler and measure_setup);
    the details also give the raw wall times.  Round 0 is a warm-up (it ran
    tree-reduce 1.18x slower than later rounds), so its times are left out
    when the run has more rounds.
    """
    timed = rounds[1:] or rounds
    details = {
        "setup_s": timing(setup[1]) | {"unit": "s"},
        "round_s": timing([r["round_ref_s"] for r in timed]) | {"unit": "s"},
        "primary_s": timing([r["primary_ref_s"] for r in timed]) | {"unit": "s"},
        "secondary_s": timing([r["secondary_ref_s"] for r in timed]) | {"unit": "s"},
    }
    for label in timed[0]["study_s"]:
        details[f"study.{label}_s"] = timing([r["study_ref_s"][label] for r in timed]) | {"unit": "s"}
    details["raw.setup_s"] = timing(setup[0]) | {"unit": "s"}
    details["raw.round_s"] = timing([r["round_s"] for r in timed]) | {"unit": "s"}
    details["raw.kernel_s"] = timing([r["kernel_s"] for r in timed]) | {"unit": "s"}
    details["error_budget"] = error_budget(rounds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details["peak_rss_mb"] = {"value": peak, "n": 1, "unit": "MB"}
    metrics = {
        "setup_s": {"value": details["setup_s"]["p50"], "unit": "s"},
        "round_s.p50": {"value": details["round_s"]["p50"], "unit": "s"},
        "primary_s.p50": {"value": details["primary_s"]["p50"], "unit": "s"},
        "secondary_s.p50": {"value": details["secondary_s"]["p50"], "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    return metrics, details


def error_budget(rounds: list) -> dict:
    budgets = [r["budget"] for r in rounds]
    return {"mean": statistics.fmean(budgets), "n": len(budgets), "samples": budgets, "unit": "1"}


def per_layer(traced: list, plain: list, speedup) -> dict:
    """Median over traced rounds of each per-round layer metric, plus the
    run-level ones: tracing overhead, the --threads 2 speed-up, the error budget."""
    import tracing

    rows = [tracing.layer_metrics(r["tally"]) for r in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.overhead_frac"] = (
        statistics.median(t["round_s"] for t in traced) / statistics.median(p["round_s"] for p in plain) - 1.0
    )
    values["parallel.ordered_map.speedup_2t"] = speedup or 0.0
    values["studies.error_budget"] = error_budget(plain)["mean"]
    return {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "killedwalk" / "__init__.py").is_file():
        print(f"no killedwalk sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import killedwalk
    import tracing
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    env = run_environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    setup = None if args.trace else measure_setup(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{args.workload}.csv"  # one file per workload bounds disk use
    tracer = tracing.Tracer(killedwalk, spans_path) if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        runner = Runner(workload, args.seed, workdir, tracer)
        plain, traced = run_rounds(runner, args.seconds, bool(args.trace))
        speedup = runner.probe(plain[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.close()

    if args.trace:
        metrics = per_layer(traced, plain, speedup)
        details = {"spans": str(spans_path.relative_to(ROOT)), "traced_rounds": len(traced)}
    else:
        metrics, details = end_to_end(plain, setup)
    details["speedup_2t"] = speedup
    details["attempted"] = runner.attempted
    details["failed"] = len(runner.failures)
    details["fail_frac"] = len(runner.failures) / runner.attempted
    details["failures"] = runner.failures
    record = {"workload": args.workload, "environment": env, "details": details, "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, row in details.items():
        print(f"{name}: {json.dumps(row, sort_keys=True)}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
