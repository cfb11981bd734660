"""Run the full preset suite and print a per-check summary table.

Usage: python3 scripts/run_suite.py [--output-dir runs] [--names a,b,...]

Each line gives the preset's wall seconds and its CPU seconds summed over
all of the process's threads; CPU well above wall means threads ran side
by side, or spun.
"""

import argparse
import sys
import time

from ardlab.errors import PresetCheckError
from ardlab.presets import PRESET_NAMES, run_preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="runs")
    parser.add_argument(
        "--names", default=",".join(PRESET_NAMES),
        help="comma-separated preset names (default: all seven)",
    )
    args = parser.parse_args(argv)
    names = [name.strip() for name in args.names.split(",")]
    unknown = [name for name in names if name not in PRESET_NAMES]
    if unknown:
        parser.error(f"unknown preset names {unknown}; known: {PRESET_NAMES}")

    failures = 0
    total, total_cpu = time.perf_counter(), time.process_time()
    for name in names:
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            result = run_preset(name, output_dir=args.output_dir)
        except PresetCheckError as exc:
            failures += 1
            print(f"{name:<14} FAIL  {exc}")
            continue
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        checks = " ".join(sorted(result.checks))
        print(f"{name:<14} ok    {elapsed:6.1f}s  cpu {cpu:6.1f}s  checks: {checks}")
    print(
        f"total {time.perf_counter() - total:.1f}s, "
        f"cpu {time.process_time() - total_cpu:.1f}s, artifacts in {args.output_dir}/"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
