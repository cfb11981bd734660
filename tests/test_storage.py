"""On-disk formats: round trips, byte identity, malformed-input errors."""

import json

import numpy as np
import pytest

from ardlab.config import ar1_sequence, bivariate_pair
from ardlab.diagnostics import DiagnosticsReport
from ardlab.errors import DatasetFormatError
from ardlab.models import make_chunk_models, predict
from ardlab.ode import DEFAULT_GRID, make_pairs_bi, make_pairs_causal
from ardlab.storage import (
    emit_report,
    load_dataset,
    load_loss_trace,
    load_models,
    read_report_csv,
    save_dataset,
    save_loss_trace,
    save_models,
)

DIST = bivariate_pair(0.8)


def small_dataset(seed=0):
    return make_pairs_causal(DIST, DEFAULT_GRID, count=6, steps=8, seed=seed)


def small_models(seed=0):
    models = make_chunk_models(DIST.spec, role="generator", m=12, seed=seed)
    rng = np.random.default_rng(seed)
    for i in (1, 2):
        models.member(i).theta[:] = rng.standard_normal(models.member(i).theta.shape)
    return models


# ---------------------------------------------------------------------------
# pair datasets
# ---------------------------------------------------------------------------


def test_dataset_round_trip_exact(tmp_path):
    ds = small_dataset()
    path = tmp_path / "pairs.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.provenance == ds.provenance
    assert loaded.spec == ds.spec
    assert loaded.grid.times == ds.grid.times
    assert loaded.metadata == ds.metadata
    assert len(loaded.records) == len(ds.records)
    for name in ("seed", "prefix", "snapshots", "endpoint"):
        a, b = getattr(ds.records, name), getattr(loaded.records, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("build", [make_pairs_bi, make_pairs_causal])
@pytest.mark.parametrize(
    "dist", [DIST, ar1_sequence(3, 0.5)], ids=["bivariate", "ar1-3-chunks"]
)
def test_dataset_save_load_save_is_byte_identical(tmp_path, build, dist):
    ds = build(dist, DEFAULT_GRID, count=5, steps=8, seed=1)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_dataset(ds, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_dataset_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_dataset(small_dataset(), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-10]  # truncate a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 4"):
        load_dataset(path)


def test_dataset_header_checks(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_dataset(path)
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(DatasetFormatError, match="format"):
        load_dataset(path)
    path.write_text('{"format":"ardlab-pairs","version":99}\n')
    with pytest.raises(DatasetFormatError, match="version"):
        load_dataset(path)
    save_dataset(small_dataset(), path)
    header, *records = path.read_text().splitlines()
    header = json.dumps({**json.loads(header), "grid": [0.9, 0.5]})
    path.write_text("\n".join([header, *records]) + "\n")
    with pytest.raises(DatasetFormatError, match="line 1: bad spec or grid"):
        load_dataset(path)


def test_dataset_record_count_mismatch(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_dataset(small_dataset(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
    with pytest.raises(DatasetFormatError, match="promises"):
        load_dataset(path)


def _drop_snapshot(recs, k):
    del recs[k]["snapshots"][min(recs[k]["snapshots"])]


def _set(key, value):
    def edit(recs, k):
        recs[k][key] = value

    return edit


def _set_chunk_index(value):
    return _set("chunk_index", value)


def _grow(key):
    def edit(recs, k):
        recs[k][key] = recs[k][key] + [0.0]

    return edit


def _shrink_snapshot(recs, k):
    key = max(recs[k]["snapshots"])
    recs[k]["snapshots"][key] = recs[k]["snapshots"][key][:-1]


def _flip_seed_bit(recs, k):
    recs[k]["seed"] ^= 1


def _swap_with_next(recs, k):
    recs[k], recs[k + 1] = recs[k + 1], recs[k]


def _bump_prefix_head(recs, k):
    recs[k]["prefix"][0] += 1.0


def _nan_snapshot(recs, k):
    recs[k]["snapshots"][min(recs[k]["snapshots"])][0] = float("nan")


def corrupt_record(path, edit, line=3):
    """Rewrite a saved dataset through `edit`(records, index of `line`)."""
    lines = path.read_text().splitlines()
    recs = [json.loads(text) for text in lines[1:]]
    edit(recs, line - 2)
    path.write_text("\n".join(lines[:1] + [json.dumps(r) for r in recs]) + "\n")


AR3 = ar1_sequence(3, 0.5)


@pytest.mark.parametrize(
    "edit, dist, line",
    [
        (_set_chunk_index(0), DIST, 3),
        (_set_chunk_index(3), DIST, 3),
        (_drop_snapshot, DIST, 3),
        (_shrink_snapshot, DIST, 3),
        (_grow("endpoint"), DIST, 3),
        (_grow("prefix"), DIST, 3),
        (_set("seed", "abc"), DIST, 3),
        (_set("seed", None), DIST, 3),
        (_set("seed", 1.5), DIST, 3),
        (_set("seed", -5), DIST, 2),
        (_set("seed", 2**64), DIST, 2),
        (_flip_seed_bit, DIST, 3),
        (_set("provenance", "bidirectional"), DIST, 3),
        (_swap_with_next, DIST, 3),
        (_swap_with_next, AR3, 3),
        (_bump_prefix_head, AR3, 4),
        (_nan_snapshot, DIST, 3),
        (_set("endpoint", [float("inf")]), DIST, 3),
    ],
    ids=[
        "chunk-index-0", "chunk-index-past-last", "missing-snapshot-time",
        "short-snapshot", "long-endpoint", "long-prefix",
        "seed-text", "seed-null", "seed-fraction", "seed-negative",
        "seed-past-uint64", "seed-differs-from-chunk-1", "provenance-differs",
        "swapped-lines", "chunk-out-of-order", "prefix-does-not-extend",
        "nan-snapshot", "infinite-endpoint",
    ],
)
def test_dataset_rejects_records_that_disagree_with_header(tmp_path, edit, dist, line):
    path = tmp_path / "pairs.jsonl"
    save_dataset(make_pairs_causal(dist, DEFAULT_GRID, count=6, steps=8), path)
    load_dataset(path)  # intact file loads
    corrupt_record(path, edit, line)
    with pytest.raises(DatasetFormatError, match=f"line {line}"):
        load_dataset(path)


def test_dataset_rejects_a_trajectory_cut_short(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_dataset(small_dataset(), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["record_count"] -= 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:-1]) + "\n")
    with pytest.raises(DatasetFormatError, match="stops after chunk 1 of 2"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------


def test_models_round_trip_predictions(tmp_path):
    models = small_models()
    path = tmp_path / "models.jsonl"
    save_models(models, path)
    loaded = load_models(path)
    assert loaded.role == models.role
    x = np.array([[0.3], [-0.8]])
    y = np.array([[0.1], [0.2]])
    assert np.array_equal(
        predict(models.member(2), x, y, 0.5), predict(loaded.member(2), x, y, 0.5)
    )


@pytest.mark.parametrize("role, readout", [
    ("generator", "anchored"), ("fake-score", "anchored"), ("ar-velocity", "direct"),
])
def test_checkpoint_lines_record_the_roles_readout(tmp_path, role, readout):
    path = tmp_path / "models.jsonl"
    save_models(make_chunk_models(DIST.spec, role=role, m=4), path)
    header, *lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [row["parameterization"] for row in rows] == [readout] * 2
    other = "direct" if readout == "anchored" else "anchored"
    lines[0] = json.dumps({**rows[0], "parameterization": other})
    path.write_text("\n".join([header, *lines]) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_models(path)


def test_models_file_rejects_dataset_payload(tmp_path):
    ds_path = tmp_path / "pairs.jsonl"
    save_dataset(small_dataset(), ds_path)
    with pytest.raises(DatasetFormatError, match="format"):
        load_models(ds_path)


def test_models_bad_member_line(tmp_path):
    path = tmp_path / "models.jsonl"
    save_models(small_models(), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"role":"generator"', '"role":"oracle"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_models(path)


def _edit_member(key, value, line=2):
    def edit(lines):
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: value})

    return edit


def _nan_theta(lines):
    row = json.loads(lines[1])
    row["theta"][0][0] = float("nan")
    lines[1] = json.dumps(row)


@pytest.mark.parametrize(
    "edit, match",
    [
        (_nan_theta, "line 2: frequency_scale and theta must be finite"),
        (_edit_member("frequency_scale", float("inf")), "line 2: .* must be finite"),
        (_edit_member("chunk_index", 7), "line 2: chunk_index 7 is not 1"),
        (_edit_member("chunk_index", 1, line=3), "line 3: chunk_index 1 is not 2"),
        (_edit_member("chunk_index", True), "line 2: chunk_index True is not 1"),
    ],
    ids=["nan-theta", "infinite-frequency-scale", "chunk-index-7",
         "chunk-index-repeated", "chunk-index-bool"],
)
def test_models_member_line_checks(tmp_path, edit, match):
    path = tmp_path / "models.jsonl"
    save_models(small_models(), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=match):
        load_models(path)


@pytest.mark.parametrize(
    "header, match",
    [
        ({"role": 5}, "role 5"),
        ({"role": "ar-velocity"}, "member 1 has role 'generator'"),
        ({"member_count": "2"}, "member_count must be an integer"),
        ({"member_count": True}, "member_count must be an integer"),
    ],
    ids=["role-not-a-role", "role-differs-from-members", "count-as-text",
         "count-as-bool"],
)
def test_models_header_checks(tmp_path, header, match):
    path = tmp_path / "models.jsonl"
    save_models(small_models(), path)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **header})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=match):
        load_models(path)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _reports():
    a = DiagnosticsReport(name="beta", config_digest="cafe01234567")
    a.add("metric_b", 0.123456789123, 0.01, 100, note="with, comma")
    a.add("metric_a", -1.0, 0.0, 4)
    b = DiagnosticsReport(name="alpha", config_digest="cafe01234567")
    b.add("only", 3.0, 0.5, 9, note='quote " inside')
    return [a, b]


def test_report_csv_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(_reports(), "csv", path)
    loaded = read_report_csv(path)
    assert set(loaded) == {"alpha", "beta"}
    entry = loaded["beta"]["metric_b"]
    assert entry.value == 0.123456789123
    assert entry.note == "with, comma"
    assert loaded["alpha"].config_digest == "cafe01234567"
    # rows are sorted by (report, metric): alpha first
    body = path.read_text().splitlines()
    assert body[1].startswith("alpha,")
    assert body[2].startswith("beta,metric_a")


def test_report_structured_text_one_record_per_line(tmp_path):
    path = tmp_path / "report.txt"
    emit_report(_reports(), "structured-text", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith('report="alpha" metric="only" value=3.0')
    assert all("sample_count=" in line and "config_digest=" in line for line in lines)


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_reports(), "yaml", tmp_path / "nope.yaml")


def test_read_report_rejects_bad_header(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DatasetFormatError, match="header"):
        read_report_csv(path)


@pytest.mark.parametrize("column", [2, 3, 4])  # value, uncertainty, sample_count
@pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
def test_read_report_rejects_a_cell_that_is_not_a_finite_number(tmp_path, column, cell):
    path = tmp_path / "report.csv"
    emit_report(_reports(), "csv", path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[column] = cell
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_report_csv(path)


# ---------------------------------------------------------------------------
# loss traces
# ---------------------------------------------------------------------------


def test_loss_trace_round_trip(tmp_path):
    trace = np.array([1.5, 0.25, 0.125])
    path = tmp_path / "trace.csv"
    save_loss_trace(trace, path)
    assert np.array_equal(load_loss_trace(path), trace)
    assert path.read_text().splitlines()[0] == "step,loss"


def test_loss_trace_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("loss\n1.0\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_loss_trace(path)


@pytest.mark.parametrize("cell", ["abc", "nan", "-inf", ""])
def test_loss_trace_rejects_a_loss_that_is_not_a_finite_number(tmp_path, cell):
    path = tmp_path / "trace.csv"
    path.write_text(f"step,loss\n0,1.0\n1,{cell}\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_loss_trace(path)
