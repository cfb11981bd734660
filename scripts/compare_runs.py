"""List the artifact files that differ between two run directories.

Usage: python3 scripts/compare_runs.py DIR_A DIR_B

Compares every file under the two trees by sha256 and prints one line per
file that differs or exists on one side only.  For a CSV, JSON, JSON-lines
or key=value text report (report.txt) present on both sides it also prints
the largest relative change of any number, |b - a| / max(|a|, |b|), with
its absolute change |b - a| and where it occurs, the largest absolute
change and where it occurs when that reads larger, and for a CSV or text
report the columns or keys of the non-numeric cells that differ.  Report
rows (a report.csv or report.txt, where every row names a distinct report
and metric) are paired by (report, metric), and the rows found on one side
only are named; other CSVs, such as loss traces, are compared line by
line.  JSON lines are
compared value by value when both files have the same record structure; a
JSON document also lists the keys found on one side only (side A is DIR_A,
side B is DIR_B) and compares the values found on both.
Exit status 0 means the trees are identical, 1 that some file differs.
"""

import argparse
import csv
import hashlib
import json
import re
import sys
from pathlib import Path


def digests(root: Path) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _largest_change(cells, text_columns=()) -> str:
    """Summarize differing cells, given as (where, a, b) with a and b floats,
    or None for a value that is not a number; text_columns names the columns
    the non-numeric ones are in."""
    worst, worst_diff, at, text_cells = 0.0, 0.0, None, 0
    widest, wide_at = 0.0, None
    for where, a, b in cells:
        if a is None or b is None:
            text_cells += 1
            continue
        diff = abs(b - a)
        scale = max(abs(a), abs(b))
        change = diff / scale if scale else 0.0
        if change > worst or at is None:
            worst, worst_diff, at = change, diff, where
        if diff > widest or wide_at is None:
            widest, wide_at = diff, where
    parts = []
    if at is not None:
        parts.append(f"largest relative change {worst:.3g} "
                     f"(absolute {worst_diff:.3g}) at {at}")
    if wide_at is not None and f"{widest:.3g}" != f"{worst_diff:.3g}":
        parts.append(f"largest absolute change {widest:.3g} at {wide_at}")
    if text_cells:
        columns = f" in column {', '.join(text_columns)}" if text_columns else ""
        parts.append(f"{text_cells} non-numeric cells differ{columns}")
    return "; ".join(parts) or "cells equal, bytes differ"


def _keyed_rows(rows):
    """{(report, metric): row} of rows given as {column: cell text}, or None
    when a row lacks either column or two rows share a key."""
    keyed = {}
    for row in rows:
        if "report" not in row or "metric" not in row:
            return None
        keyed[row["report"].strip('"'), row["metric"].strip('"')] = row
    return keyed if len(keyed) == len(rows) else None


def _report_row_change(rows_a, rows_b):
    """Report rows paired by (report, metric): the rows found on one side
    only, and the largest relative change among the cells of the rows found
    on both.  None when either side's rows are not keyed that way."""
    keyed_a, keyed_b = _keyed_rows(rows_a), _keyed_rows(rows_b)
    if keyed_a is None or keyed_b is None:
        return None
    parts = [
        f"rows only on side {side}: {', '.join('.'.join(key) for key in keys)}"
        for side, keys in (
            ("A", [key for key in keyed_a if key not in keyed_b]),
            ("B", [key for key in keyed_b if key not in keyed_a]),
        )
        if keys
    ]
    cells, text_columns = [], set()
    for key, row_a in keyed_a.items():
        row_b = keyed_b.get(key)
        if row_b is None:
            continue
        for column, cell_a in row_a.items():
            cell_b = row_b.get(column, "")
            if cell_a == cell_b:
                continue
            a, b = _number(cell_a), _number(cell_b)
            cells.append((f"{'.'.join(key)} {column}", a, b))
            if a is None or b is None:
                text_columns.add(column)
    if cells or not parts:
        parts.append(_largest_change(cells, sorted(text_columns)))
    return "; ".join(parts)


def largest_csv_change(path_a: Path, path_b: Path) -> str:
    """Largest relative change of a numeric cell, or why there is none."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a and rows_b:
        keyed = _report_row_change(
            [dict(zip(rows_a[0], row)) for row in rows_a[1:]],
            [dict(zip(rows_b[0], row)) for row in rows_b[1:]],
        )
        if keyed is not None:
            return keyed
    if len(rows_a) != len(rows_b) or any(
        len(a) != len(b) for a, b in zip(rows_a, rows_b)
    ):
        return "shape differs"
    header = rows_a[0] if rows_a else []
    cells, text_columns = [], set()
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for c, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a == cell_b:
                continue
            column = header[c] if c < len(header) else str(c)
            a, b = _number(cell_a), _number(cell_b)
            cells.append((f"line {r + 1} column {column}", a, b))
            if a is None or b is None:
                text_columns.add(column)
    return _largest_change(cells, sorted(text_columns))


# one key=value field of a structured-text report line; a quoted value is a
# JSON string and may hold spaces
_FIELD = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S*)(?: |$)')


def _report_fields(line: str):
    """[(key, value text)] of one key=value report line, or None when the
    line is not made of such fields."""
    line = line.rstrip("\n")
    fields, at = [], 0
    for match in _FIELD.finditer(line):
        if match.start() != at:
            return None
        fields.append(match.groups())
        at = match.end()
    return fields if at == len(line) and fields else None


def largest_report_text_change(path_a: Path, path_b: Path) -> str:
    """Largest relative change of a number in key=value report lines with
    the same keys on both sides, or why there is none."""
    with open(path_a) as fa, open(path_b) as fb:
        lines_a = [_report_fields(line) for line in fa]
        lines_b = [_report_fields(line) for line in fb]
    if None in lines_a or None in lines_b:
        return "not key=value records"
    keyed = _report_row_change([dict(fields) for fields in lines_a],
                              [dict(fields) for fields in lines_b])
    if keyed is not None:
        return keyed
    if len(lines_a) != len(lines_b) or any(
        [k for k, _ in a] != [k for k, _ in b] for a, b in zip(lines_a, lines_b)
    ):
        return "shape differs"
    cells, text_keys = [], set()
    for r, (fields_a, fields_b) in enumerate(zip(lines_a, lines_b)):
        for (key, cell_a), (_, cell_b) in zip(fields_a, fields_b):
            if cell_a == cell_b:
                continue
            a, b = _number(cell_a), _number(cell_b)
            cells.append((f"line {r + 1} {key}", a, b))
            if a is None or b is None:
                text_keys.add(key)
    return _largest_change(cells, sorted(text_keys))


def _leaves(value, path=""):
    """(path, scalar) for every scalar inside a decoded JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_number(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def largest_jsonl_change(path_a: Path, path_b: Path) -> str:
    """Largest relative change of a number in JSON lines whose records have
    the same structure on both sides, or why there is none."""
    try:
        with open(path_a) as fa, open(path_b) as fb:
            lines_a = [list(_leaves(json.loads(line))) for line in fa]
            lines_b = [list(_leaves(json.loads(line))) for line in fb]
    except json.JSONDecodeError:
        return "not JSON lines"
    if len(lines_a) != len(lines_b) or any(
        [k for k, _ in a] != [k for k, _ in b] for a, b in zip(lines_a, lines_b)
    ):
        return "shape differs"
    return _largest_change(
        (f"line {r + 1} {key}", _json_number(a), _json_number(b))
        for r, (leaves_a, leaves_b) in enumerate(zip(lines_a, lines_b))
        for (key, a), (_, b) in zip(leaves_a, leaves_b)
        if a != b
    )


def json_change(path_a: Path, path_b: Path) -> str:
    """Keys of a JSON document found on one side only, and the largest
    relative change among the values found on both."""
    try:
        with open(path_a) as fa, open(path_b) as fb:
            leaves_a, leaves_b = dict(_leaves(json.load(fa))), dict(_leaves(json.load(fb)))
    except json.JSONDecodeError:
        return "not JSON"
    parts = [
        f"keys only on side {side}: {', '.join(sorted(keys))}"
        for side, keys in (("A", leaves_a.keys() - leaves_b.keys()),
                           ("B", leaves_b.keys() - leaves_a.keys()))
        if keys
    ]
    changed = [
        (key, _json_number(a), _json_number(leaves_b[key]))
        for key, a in leaves_a.items()
        if key in leaves_b and a != leaves_b[key]
    ]
    if changed or not parts:
        parts.append(_largest_change(changed))
    return "; ".join(parts)


DETAIL = {
    ".csv": largest_csv_change,
    ".json": json_change,
    ".jsonl": largest_jsonl_change,
    ".txt": largest_report_text_change,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")

    side_a, side_b = digests(args.dir_a), digests(args.dir_b)
    differ = 0
    for name in sorted(side_a.keys() | side_b.keys()):
        if name not in side_b:
            print(f"{name}: only in {args.dir_a}")
        elif name not in side_a:
            print(f"{name}: only in {args.dir_b}")
        elif side_a[name] == side_b[name]:
            continue
        elif Path(name).suffix in DETAIL:
            detail = DETAIL[Path(name).suffix](args.dir_a / name, args.dir_b / name)
            print(f"{name}: differs, {detail}")
        else:
            print(f"{name}: differs")
        differ += 1
    print(f"{differ} of {len(side_a.keys() | side_b.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
