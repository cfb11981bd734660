"""ardlab benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload run is a fresh process
(child.py) that imports ardlab from ./src and runs the workload's presets
back to back through `ardlab.presets.run_preset`.  The seed is added to
each preset's master seed; seed 0 reproduces the shipped presets.

--trace 0 repeats the workload run until the runs' wall times add up to S
seconds (at least once) and reports the medians of the end-to-end metrics.
Set-up time is the median over those runs and SETUP_BURST set-up-only
processes run before the first workload run and after each one, so that
its samples are spread over the whole measurement.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics from the traced run's spans.

Correctness: every repeat of a seed must write byte-identical artifacts,
the traced run must write the same artifacts as the untraced one, and every
report must parse with finite values.  Failed preset checks are counted in
`failed`, never hidden.  Artifacts go to a temporary directory under
.perfbench_work/ in the repository root, removed at exit.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_METRICS, layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
# reported with --trace 1: the span metrics, then two read from the reports.
# The oracle gap is exactly reproducible for one seed but varies by up to
# 60x across seeds, so it cannot carry a bound on a median over seeds.
PER_LAYER = SPAN_METRICS + (("oracle_gap", "1"), ("check_fail_ratio", "ratio"))
# set-up-only processes per burst; one costs about 0.25 s
SETUP_BURST = 10
# a run must end within the benchmark's 180 s limit
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ARDLAB_WORKERS")


class BenchError(Exception):
    """The benchmark could not measure: no source, or a run crashed."""


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Starts child.py processes, one at a time, against one deadline."""

    def __init__(self, workload: str, offset: int, work: Path):
        self.workload = workload
        self.offset = offset
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def run(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        run_dir = self.work / f"run{self.count}"
        out = self.work / f"run{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--offset", str(self.offset), "--work", str(run_dir),
               "--out", str(out)]
        spans = self.work / f"run{self.count}.spans.jsonl"
        if trace:
            cmd += ["--trace", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run {self.count} passed the {DEADLINE_S:.0f} s limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"run {self.count} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(out.read_text())
        if trace:
            result["spans"] = read_spans(spans)
        shutil.rmtree(run_dir, ignore_errors=True)
        return result


def _same_artifacts(a: dict, b: dict) -> list:
    """Artifact files whose digests differ between two runs' results."""
    diffs = []
    for preset in sorted(set(a["digests"]) | set(b["digests"])):
        fa, fb = a["digests"].get(preset, {}), b["digests"].get(preset, {})
        diffs += [f"{preset}/{f}" for f in sorted(set(fa) | set(fb))
                  if fa.get(f) != fb.get(f)]
    return diffs


def _valid(result: dict) -> bool:
    gap = result["oracle_gap"]
    return result["checks_evaluated"] > 0 and gap == gap and 0.0 < gap < float("inf")


def _setup_burst(runner: Runner) -> list:
    return [runner.run(setup_only=True)["setup_s"] for _ in range(SETUP_BURST)]


def _problems(runs: list) -> list:
    return [p for r in runs for p in r["problems"]] + [
        "a report has no checks or a non-finite oracle gap"
        for r in runs if not _valid(r)
    ]


def timed(runner: Runner, seconds: int) -> tuple:
    setups = _setup_burst(runner)
    runs = []
    while sum(r["wall_s"] for r in runs) < seconds:
        runs.append(runner.run())
        r = runs[-1]
        print(f"run {len(runs)}: wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.2f} "
              f"worker_peak_rss_mb={r['worker_peak_rss_mb']:.2f} "
              f"setup_s={r['setup_s']:.4f}")
        setups += [r["setup_s"]] + _setup_burst(runner)
    print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups))
    first = runs[0]
    problems = [f"repeat {k + 2} wrote different {f}"
                for k, r in enumerate(runs[1:]) for f in _same_artifacts(first, r)]
    problems += _problems(runs)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return first, problems, metrics, dict(END_TO_END)


def traced(runner: Runner) -> tuple:
    plain = runner.run()
    trace = runner.run(trace=True)
    problems = [f"traced run wrote different {f}" for f in _same_artifacts(plain, trace)]
    problems += _problems([plain, trace])
    metrics = layer_metrics(trace["spans"], trace["wall_s"], plain["wall_s"],
                            trace["distinct_rows"])
    metrics["oracle_gap"] = trace["oracle_gap"]
    metrics["check_fail_ratio"] = trace["checks_failed"] / trace["checks_evaluated"]
    print(f"untraced wall_s={plain['wall_s']:.4f} traced wall_s={trace['wall_s']:.4f} "
          f"spans={len(trace['spans'])}")
    return plain, problems, metrics, dict(PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE / "ardlab" / "__init__.py").is_file():
        print(f"perfbench: no ardlab source under {SOURCE}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment()))
    # on SIGTERM, unwind like an interrupt: the running child is killed and
    # waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            first, problems, metrics, units = traced(runner)
        else:
            first, problems, metrics, units = timed(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    for preset, files in sorted(first["digests"].items()):
        for name, digest in sorted(files.items()):
            print(f"sha256 {preset}/{name} {digest}")
    for check in first["failed_checks"]:
        print(f"failed check {check}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": first["checks_evaluated"],
        "failed": first["checks_failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
