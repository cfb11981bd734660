"""One workload run in a fresh process; used by run.py, not run by hand.

    python3 perfbench/child.py --workload NAME --offset N --work DIR \
        --out RESULT.json [--trace SPANS.jsonl] [--setup-only]

Set-up is timed from this process's first statement through the import of
ardlab and the construction of every preset's config and distribution.
Wall time runs from the same start to the last artifact written.  CPU time
at that point is this process's (all its threads) plus that of the worker
processes it has reaped (pair-dataset builders run in a process pool when
ARDLAB_WORKERS > 1).  Peak memory is this process's own; the largest reaped
worker's peak is recorded next to it.
Artifacts go under DIR; the result JSON holds the timings, each artifact's
sha256, the report rows and the check counts.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def preset_overrides(presets, name: str, offset: int):
    """Offset 0 runs the preset exactly as shipped; otherwise the offset is
    added to its master seed."""
    if offset == 0:
        return None
    return {"master_seed": presets.preset_config(name).master_seed + offset}


def file_digests(root: Path) -> dict:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out[path.relative_to(root).as_posix()] = digest.hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--offset", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS, check_counts, read_report_rows

    workload = WORKLOADS[args.workload]

    from ardlab import presets
    from ardlab.errors import PresetCheckError

    overrides = {
        name: preset_overrides(presets, name, args.offset) for name in workload.presets
    }
    for name in workload.presets:
        presets.preset_config(name, overrides[name]).distribution()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}/{args.offset}")
        tracer.install()
    work = Path(args.work)
    for name in workload.presets:
        try:
            presets.run_preset(name, output_dir=str(work), overrides=overrides[name])
        except PresetCheckError:
            # every artifact is written before a check raises; the failed
            # checks are counted from the checks report below
            pass
    wall_s = time.perf_counter() - T0
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": own.ru_maxrss / 1024.0,
        "worker_peak_rss_mb": workers.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        result["distinct_rows"] = tracer.distinct_rows()

    rows, problems = {}, []
    for name in workload.presets:
        rows[name], found = read_report_rows(work / name / "report.csv")
        problems += found
    counts = [check_counts(r) for r in rows.values()]
    result.update(
        problems=problems,
        digests={name: file_digests(work / name) for name in workload.presets},
        oracle_gap=workload.oracle_gap(rows),
        checks_evaluated=sum(c[0] for c in counts),
        checks_failed=sum(c[1] for c in counts),
        failed_checks=sorted(
            f"{name}:{check}" for name, r in rows.items()
            for check, value in r["checks"].items() if value != 1.0
        ),
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
