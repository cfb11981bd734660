"""The benchmark's workloads: which presets each runs and its oracle gap.

Each workload is a fixed list of presets run back to back in one fresh
process.  Its oracle gap is the headline distance of the run from its
closed-form or exact Monte Carlo oracle, read from the report.csv rows the
presets wrote.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple
    # maps {preset: rows of its report.csv} to the workload's oracle gap
    oracle_gap: Callable[[dict], float]


def _relative_error(value: float, oracle: float) -> float:
    return abs(value - oracle) / abs(oracle)


def _gap_oracle_audit(rows: dict) -> float:
    lemma1, prop2 = rows["lemma1-audit"], rows["prop2-audit"]
    errors = [
        _relative_error(lemma1[f"injectivity_{tag}"]["mean_variance"],
                        lemma1[f"injectivity_{tag}"]["oracle_variance"])
        for tag in ("rho0p4", "rho0p8")
    ]
    errors += [
        _relative_error(prop2[f"df_mismatch_{tag}"]["expected_kl"],
                        prop2[f"df_mismatch_{tag}"]["oracle_kl"])
        for tag in ("t0p25", "t0p50", "t0p75")
    ]
    return max(errors)


def _gap_learned_flow(rows: dict) -> float:
    return rows["fig4-analog"]["conditional_kl_tf"]["expected_kl"]


def _gap_dmd_small_batch(rows: dict) -> float:
    return rows["d2-init"]["dmd_energy"]["warm_final"]


def _gap_distill_io(rows: dict) -> float:
    energy = rows["d3-init"]["conditional_energy"]
    return max(energy["joint_init_after"], energy["denoiser_init_after"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-audit", ("lemma1-audit", "prop2-audit"), _gap_oracle_audit),
        Workload("learned-flow", ("fig4-analog",), _gap_learned_flow),
        Workload("dmd-small-batch", ("d2-init",), _gap_dmd_small_batch),
        Workload("distill-io", ("d3-init",), _gap_distill_io),
    )
}


def read_report_rows(path) -> tuple:
    """Parse a preset's report.csv into {report: {metric: value}} and a list
    of problems, one for each non-finite value (kept in the rows).

    Raises ValueError on a missing checks report: the run then ends without
    a result, because there are no checks to count.
    """
    rows: dict = {}
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            value = float(record["value"])
            if not math.isfinite(value):
                problems.append(f"{path.parent.name}: non-finite "
                                f"{record['report']}.{record['metric']}")
            rows.setdefault(record["report"], {})[record["metric"]] = value
    if "checks" not in rows or not rows["checks"]:
        raise ValueError(f"{path}: no checks report")
    return rows, problems


def check_counts(rows: dict) -> tuple:
    """(evaluated, failed) preset checks from the `checks` report rows."""
    values = rows["checks"].values()
    if any(math.isfinite(v) and v not in (0.0, 1.0) for v in values):
        raise ValueError("check values must be 0 or 1")
    # a non-finite check value is already a problem; it counts as failed
    return len(values), sum(1 for v in values if v != 1.0)
