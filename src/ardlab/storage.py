"""On-disk formats: pair datasets, model checkpoints, reports, loss traces.

Everything is line-oriented text so runs diff cleanly: a one-line JSON
header followed by one JSON record per line for datasets and checkpoints,
key=value records for structured-text reports, and plain CSV for tabular
exports.  Floats are written with repr-level precision, which round-trips
bit-for-bit through json, so save -> load -> save produces byte-identical
files.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .diagnostics import DiagnosticsReport, MetricEntry
from .distributions import SequenceSpec
from .errors import DatasetFormatError
from .models import ChunkModelSet, FeatureSpec, LinearStudent
from .ode import ODEPairRecord, PairDataset, TimestepGrid

DATASET_FORMAT = "ardlab-pairs"
MODELS_FORMAT = "ardlab-models"
FORMAT_VERSION = 1

_TIME_KEY = "{:.6f}"


def _dumps(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _parse_line(line: str, lineno: int, path) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}, line {lineno}: malformed JSON ({exc})")
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{path}, line {lineno}: expected a JSON object")
    return obj


def _check_header(obj: dict, expected_format: str, lineno: int, path) -> None:
    if obj.get("format") != expected_format:
        raise DatasetFormatError(
            f"{path}, line {lineno}: expected format {expected_format!r}, "
            f"found {obj.get('format')!r}"
        )
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"{path}, line {lineno}: file version {version!r} is not the "
            f"supported version {FORMAT_VERSION}"
        )


def _require(obj: dict, keys, lineno: int, path) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DatasetFormatError(f"{path}, line {lineno}: missing fields {missing}")


def _vector(values, size: int, what: str, lineno: int, path) -> np.ndarray:
    """values as a float vector of exactly `size` entries."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (size,):
        raise DatasetFormatError(
            f"{path}, line {lineno}: {what} must hold {size} values"
        )
    return arr


# ---------------------------------------------------------------------------
# pair datasets
# ---------------------------------------------------------------------------


def save_dataset(dataset: PairDataset, path) -> None:
    times = list(dataset.grid.times)
    keys = [_TIME_KEY.format(t) for t in times]
    if len(set(keys)) != len(keys):
        raise DatasetFormatError("grid times collide at six-decimal precision")
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "spec": {
            "n_frames": dataset.spec.n_frames,
            "frame_dim": dataset.spec.frame_dim,
            "chunk_size": dataset.spec.chunk_size,
        },
        "grid": times,
        "provenance": dataset.provenance,
        "metadata": dataset.metadata,
        "record_count": len(dataset.records),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for rec in dataset.records:
            row = {
                "chunk_index": int(rec.chunk_index),
                "seed": int(rec.seed),
                "prefix": rec.prefix.tolist(),
                "snapshots": {
                    _TIME_KEY.format(t): snap.tolist()
                    for t, snap in sorted(rec.snapshots.items(), reverse=True)
                },
                "endpoint": rec.endpoint.tolist(),
                "provenance": rec.provenance,
            }
            fh.write(_dumps(row) + "\n")


def load_dataset(path) -> PairDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header line")
    header = _parse_line(lines[0], 1, path)
    _check_header(header, DATASET_FORMAT, 1, path)
    _require(
        header, ("spec", "grid", "provenance", "metadata", "record_count"), 1, path
    )
    try:
        spec = SequenceSpec(**header["spec"])
        grid = TimestepGrid(tuple(header["grid"]))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}, line 1: bad spec or grid ({exc})")
    time_of = {_TIME_KEY.format(t): t for t in grid.times}

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _parse_line(line, lineno, path)
        _require(
            obj,
            ("chunk_index", "seed", "prefix", "snapshots", "endpoint", "provenance"),
            lineno,
            path,
        )
        i = obj["chunk_index"]
        if not isinstance(i, int) or not 1 <= i <= spec.n_chunks:
            raise DatasetFormatError(
                f"{path}, line {lineno}: chunk_index {i!r} is outside "
                f"1..{spec.n_chunks}"
            )
        snaps = obj["snapshots"]
        if not isinstance(snaps, dict) or sorted(snaps) != sorted(time_of):
            raise DatasetFormatError(
                f"{path}, line {lineno}: snapshot times are not exactly the "
                f"grid times {sorted(time_of, reverse=True)}"
            )
        cd = spec.chunk_dim
        records.append(
            ODEPairRecord(
                chunk_index=i,
                seed=int(obj["seed"]),
                prefix=_vector(
                    obj["prefix"], spec.prefix_dim(i), "prefix", lineno, path
                ),
                snapshots={
                    time_of[key]: _vector(
                        values, cd, f"snapshot {key}", lineno, path
                    )
                    for key, values in snaps.items()
                },
                endpoint=_vector(obj["endpoint"], cd, "endpoint", lineno, path),
                provenance=obj["provenance"],
            )
        )
    if len(records) != header["record_count"]:
        raise DatasetFormatError(
            f"{path}: header promises {header['record_count']} records, "
            f"found {len(records)}"
        )
    return PairDataset(
        spec=spec,
        grid=grid,
        provenance=header["provenance"],
        records=records,
        metadata=header["metadata"],
    )


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------


def save_models(models: ChunkModelSet, path) -> None:
    header = {
        "format": MODELS_FORMAT,
        "version": FORMAT_VERSION,
        "spec": {
            "n_frames": models.seq_spec.n_frames,
            "frame_dim": models.seq_spec.frame_dim,
            "chunk_size": models.seq_spec.chunk_size,
        },
        "role": models.role,
        "member_count": len(models.members),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for i, member in enumerate(models.members, start=1):
            feats = member.features
            row = {
                "chunk_index": i,
                "m": feats.m,
                "chunk_dim": feats.chunk_dim,
                "prefix_dim": feats.prefix_dim,
                "frequency_scale": feats.frequency_scale,
                "seed": int(feats.seed),
                "role": member.role,
                "parameterization": member.parameterization,
                "theta": member.theta.tolist(),
            }
            fh.write(_dumps(row) + "\n")


def load_models(path) -> ChunkModelSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header line")
    header = _parse_line(lines[0], 1, path)
    _check_header(header, MODELS_FORMAT, 1, path)
    _require(header, ("spec", "role", "member_count"), 1, path)
    try:
        spec = SequenceSpec(**header["spec"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}, line 1: bad sequence spec ({exc})")
    members = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _parse_line(line, lineno, path)
        _require(
            obj,
            (
                "chunk_index",
                "m",
                "chunk_dim",
                "prefix_dim",
                "frequency_scale",
                "seed",
                "role",
                "parameterization",
                "theta",
            ),
            lineno,
            path,
        )
        try:
            feats = FeatureSpec(
                m=obj["m"],
                chunk_dim=obj["chunk_dim"],
                prefix_dim=obj["prefix_dim"],
                frequency_scale=obj["frequency_scale"],
                seed=obj["seed"],
            )
            members.append(
                LinearStudent(
                    features=feats,
                    theta=np.asarray(obj["theta"], dtype=float),
                    role=obj["role"],
                    parameterization=obj["parameterization"],
                )
            )
        except ValueError as exc:
            raise DatasetFormatError(f"{path}, line {lineno}: {exc}")
    if len(members) != header["member_count"]:
        raise DatasetFormatError(
            f"{path}: header promises {header['member_count']} members, "
            f"found {len(members)}"
        )
    try:
        return ChunkModelSet(seq_spec=spec, role=header["role"], members=tuple(members))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: inconsistent model set ({exc})")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = (
    "report",
    "metric",
    "value",
    "uncertainty",
    "sample_count",
    "config_digest",
    "note",
)


def _report_rows(reports):
    rows = []
    for report in sorted(reports, key=lambda r: r.name):
        for metric in sorted(report.metrics):
            entry = report.metrics[metric]
            rows.append(
                (
                    report.name,
                    metric,
                    repr(float(entry.value)),
                    repr(float(entry.uncertainty)),
                    str(int(entry.sample_count)),
                    report.config_digest,
                    entry.note,
                )
            )
    return rows


def emit_report(reports, format: str, path) -> None:
    """Write DiagnosticsReports as csv or structured-text (one record/line)."""
    if format not in ("csv", "structured-text"):
        raise ValueError(f"unknown report format {format!r}")
    rows = _report_rows(reports)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_REPORT_COLUMNS)
            writer.writerows(rows)
        else:
            for row in rows:
                fields = [
                    f"{key}={json.dumps(val) if key in ('note', 'report', 'metric') else val}"
                    for key, val in zip(_REPORT_COLUMNS, row)
                ]
                fh.write(" ".join(fields) + "\n")


def read_report_csv(path) -> dict:
    """Parse an emitted CSV back into {report: {metric: MetricEntry}}."""
    out: dict[str, DiagnosticsReport] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file, expected a CSV header")
        if tuple(header) != _REPORT_COLUMNS:
            raise DatasetFormatError(f"{path}: unexpected CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_REPORT_COLUMNS):
                raise DatasetFormatError(
                    f"{path}, line {lineno}: expected {len(_REPORT_COLUMNS)} "
                    f"columns, found {len(row)}"
                )
            name, metric, value, unc, count, digest, note = row
            report = out.setdefault(
                name, DiagnosticsReport(name=name, config_digest=digest)
            )
            report.metrics[metric] = MetricEntry(
                value=float(value),
                uncertainty=float(unc),
                sample_count=int(count),
                note=note,
            )
    return out


# ---------------------------------------------------------------------------
# loss traces
# ---------------------------------------------------------------------------


def save_loss_trace(trace, path) -> None:
    trace = np.asarray(trace, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("step", "loss"))
        for step, loss in enumerate(trace):
            writer.writerow((step, repr(float(loss))))


def load_loss_trace(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["step", "loss"]:
            raise DatasetFormatError(f"{path}: unexpected loss-trace header {header}")
        losses = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{path}, line {lineno}: expected two columns"
                )
            losses.append(float(row[1]))
    return np.asarray(losses)
