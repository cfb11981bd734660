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
import dataclasses
import json

import numpy as np

from .diagnostics import DiagnosticsReport, MetricEntry
from .distributions import SequenceSpec
from .errors import DatasetFormatError, GridError
from .models import ROLE_READOUT, ROLES, ChunkModelSet, FeatureSpec, LinearStudent
from .ode import PairColumns, PairDataset, TimestepGrid

DATASET_FORMAT = "ardlab-pairs"
MODELS_FORMAT = "ardlab-models"
FORMAT_VERSION = 1

_TIME_KEY = "{:.6f}"

#: the FeatureSpec fields a checkpoint line records: they rebuild its bank
_BANK_FIELDS = tuple(f.name for f in dataclasses.fields(FeatureSpec) if f.init)


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
    """values as a float vector of exactly `size` finite entries."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (size,) or not np.all(np.isfinite(arr)):
        raise DatasetFormatError(
            f"{path}, line {lineno}: {what} must hold {size} finite values"
        )
    return arr


# ---------------------------------------------------------------------------
# pair datasets
# ---------------------------------------------------------------------------


def save_dataset(dataset: PairDataset, path) -> None:
    spec = dataset.spec
    cols = dataset.records
    keys = [_TIME_KEY.format(t) for t in dataset.grid.times]
    if len(set(keys)) != len(keys):
        raise DatasetFormatError("grid times collide at six-decimal precision")
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "spec": {
            "n_frames": spec.n_frames,
            "frame_dim": spec.frame_dim,
            "chunk_size": spec.chunk_size,
        },
        "grid": list(dataset.grid.times),
        "provenance": dataset.provenance,
        "metadata": dataset.metadata,
        "record_count": len(cols),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for r in range(cols.seed.size):
            for i in range(1, spec.n_chunks + 1):
                sl = spec.chunk_slice(i)
                row = {
                    "chunk_index": i,
                    "seed": int(cols.seed[r]),
                    "prefix": cols.prefix[r, : spec.prefix_dim(i)].tolist(),
                    "snapshots": dict(zip(keys, cols.snapshots[r, :, sl].tolist())),
                    "endpoint": cols.endpoint[r, sl].tolist(),
                    "provenance": dataset.provenance,
                }
                fh.write(_dumps(row) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_dataset(path) -> PairDataset:
    """Stream a pair dataset into columns, checking every record line.

    Records must come trajectory by trajectory, chunks 1..n in order, with
    one seed per trajectory and each prefix extending the previous chunk's,
    because that is the only layout the columns (and save_dataset) hold.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DatasetFormatError(f"{path}: empty file, expected a header line")
        header = _parse_line(first, 1, path)
        _check_header(header, DATASET_FORMAT, 1, path)
        _require(
            header,
            ("spec", "grid", "provenance", "metadata", "record_count"),
            1,
            path,
        )
        try:
            spec = SequenceSpec(**header["spec"])
            grid = TimestepGrid(tuple(header["grid"]))
        except (TypeError, ValueError, GridError) as exc:
            raise DatasetFormatError(f"{path}, line 1: bad spec or grid ({exc})")
        keys = [_TIME_KEY.format(t) for t in grid.times]
        n, cd = spec.n_chunks, spec.chunk_dim
        seeds, prefixes, snapshots, endpoints = [], [], [], []
        count = 0
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}, line {lineno}"
            obj = _parse_line(line, lineno, path)
            _require(
                obj,
                ("chunk_index", "seed", "prefix", "snapshots", "endpoint", "provenance"),
                lineno,
                path,
            )
            i = obj["chunk_index"]
            if not _is_int(i) or not 1 <= i <= n:
                raise DatasetFormatError(
                    f"{where}: chunk_index {i!r} is outside 1..{n}"
                )
            if i != count % n + 1:
                raise DatasetFormatError(
                    f"{where}: chunk_index {i} is out of order, expected "
                    f"{count % n + 1}"
                )
            seed = obj["seed"]
            if not _is_int(seed) or not 0 <= seed < 2**64:
                raise DatasetFormatError(
                    f"{where}: seed {seed!r} is not an integer in 0..2**64-1"
                )
            if i > 1 and seed != seeds[-1]:
                raise DatasetFormatError(
                    f"{where}: seed {seed} differs from its trajectory's "
                    f"chunk-1 seed {seeds[-1]}"
                )
            if obj["provenance"] != header["provenance"]:
                raise DatasetFormatError(
                    f"{where}: provenance {obj['provenance']!r} differs from the "
                    f"header's {header['provenance']!r}"
                )
            snaps = obj["snapshots"]
            if not isinstance(snaps, dict) or sorted(snaps) != sorted(keys):
                raise DatasetFormatError(
                    f"{where}: snapshot times are not exactly the grid times {keys}"
                )
            prefix = _vector(obj["prefix"], spec.prefix_dim(i), "prefix", lineno, path)
            if i == 1:
                seeds.append(seed)
                prefixes.append(prefix)
                snapshots.append(np.empty((len(keys), spec.total_dim)))
                endpoints.append(np.empty(spec.total_dim))
            elif prefix[: spec.prefix_dim(i - 1)].tobytes() != prefixes[-1].tobytes():
                raise DatasetFormatError(
                    f"{where}: prefix does not extend the prefix of chunk {i - 1}"
                )
            else:
                prefixes[-1] = prefix
            sl = spec.chunk_slice(i)
            for k, key in enumerate(keys):
                snapshots[-1][k, sl] = _vector(
                    snaps[key], cd, f"snapshot {key}", lineno, path
                )
            endpoints[-1][sl] = _vector(obj["endpoint"], cd, "endpoint", lineno, path)
            count += 1
    if count != header["record_count"]:
        raise DatasetFormatError(
            f"{path}: header promises {header['record_count']} records, "
            f"found {count}"
        )
    if count % n:
        raise DatasetFormatError(
            f"{path}: the last trajectory stops after chunk {count % n} of {n}"
        )
    rows = len(seeds)
    records = PairColumns(
        seed=np.array(seeds, dtype=np.uint64),
        prefix=np.array(prefixes).reshape(rows, spec.prefix_dim(n)),
        snapshots=np.array(snapshots).reshape(rows, len(keys), spec.total_dim),
        endpoint=np.array(endpoints).reshape(rows, spec.total_dim),
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
            row = {name: getattr(member.features, name) for name in _BANK_FIELDS}
            row.update(chunk_index=i, role=models.role,
                       parameterization=ROLE_READOUT[models.role],
                       theta=member.theta.tolist())
            fh.write(_dumps(row) + "\n")


def load_models(path) -> ChunkModelSet:
    """Read a checkpoint, checking every line: line k + 1 holds member k,
    with the header's role, that role's readout and finite numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header line")
    header = _parse_line(lines[0], 1, path)
    _check_header(header, MODELS_FORMAT, 1, path)
    _require(header, ("spec", "role", "member_count"), 1, path)
    count, role = header["member_count"], header["role"]
    if not _is_int(count):
        raise DatasetFormatError(f"{path}, line 1: member_count must be an integer")
    if role not in ROLES:
        raise DatasetFormatError(f"{path}, line 1: unknown role {role!r}")
    try:
        spec = SequenceSpec(**header["spec"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}, line 1: bad sequence spec ({exc})")
    members = []
    for lineno, line in enumerate(lines[1:], start=2):
        where, k = f"{path}, line {lineno}", lineno - 1
        obj = _parse_line(line, lineno, path)
        _require(obj, ("chunk_index", *_BANK_FIELDS, "role", "parameterization",
                       "theta"), lineno, path)
        if not _is_int(obj["chunk_index"]) or obj["chunk_index"] != k:
            raise DatasetFormatError(
                f"{where}: chunk_index {obj['chunk_index']!r} is not {k}"
            )
        if obj["role"] != role:
            raise DatasetFormatError(
                f"{where}: member {k} has role {obj['role']!r}, not the set's {role!r}"
            )
        if obj["parameterization"] != ROLE_READOUT[role]:
            raise DatasetFormatError(
                f"{where}: a {role} head has the {ROLE_READOUT[role]} readout, "
                f"not {obj['parameterization']!r}"
            )
        try:
            feats = FeatureSpec(**{name: obj[name] for name in _BANK_FIELDS})
            member = LinearStudent(feats, np.asarray(obj["theta"], dtype=float))
            if not (np.isfinite(feats.frequency_scale)
                    and np.all(np.isfinite(member.theta))):
                raise ValueError("frequency_scale and theta must be finite")
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{where}: {exc}")
        members.append(member)
    if len(members) != count:
        raise DatasetFormatError(
            f"{path}: header promises {count} members, found {len(members)}"
        )
    try:
        return ChunkModelSet(seq_spec=spec, role=role, members=tuple(members))
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
            try:
                report.metrics[metric] = MetricEntry(
                    value=float(value),
                    uncertainty=float(unc),
                    sample_count=int(count),
                    note=note,
                )
            except ValueError as exc:
                raise DatasetFormatError(f"{path}, line {lineno}: {exc}")
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
            try:
                loss = float(row[1])
            except ValueError:
                loss = np.nan
            if not np.isfinite(loss):
                raise DatasetFormatError(
                    f"{path}, line {lineno}: loss {row[1]!r} is not a finite number"
                )
            losses.append(loss)
    return np.asarray(losses)
