"""List the artifact files that differ between two run directories.

Usage: python3 scripts/compare_runs.py DIR_A DIR_B

Compares every file under the two trees by sha256 and prints one line per
file that differs or exists on one side only.  For a CSV present on both
sides it also prints the largest relative change of any numeric cell,
|b - a| / max(|a|, |b|), and where it occurs.  Exit status 0 means the
trees are identical, 1 that some file differs.
"""

import argparse
import csv
import hashlib
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


def largest_csv_change(path_a: Path, path_b: Path) -> str:
    """Largest relative change of a numeric cell, or why there is none."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or any(
        len(a) != len(b) for a, b in zip(rows_a, rows_b)
    ):
        return "shape differs"
    header = rows_a[0] if rows_a else []
    worst, where, text_cells = 0.0, None, 0
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for c, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a == cell_b:
                continue
            a, b = _number(cell_a), _number(cell_b)
            if a is None or b is None:
                text_cells += 1
                continue
            scale = max(abs(a), abs(b))
            change = abs(b - a) / scale if scale else 0.0
            if change > worst or where is None:
                column = header[c] if c < len(header) else str(c)
                worst, where = change, f"line {r + 1} column {column}"
    parts = []
    if where is not None:
        parts.append(f"largest relative change {worst:.3g} at {where}")
    if text_cells:
        parts.append(f"{text_cells} non-numeric cells differ")
    return "; ".join(parts) or "cells equal, bytes differ"


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
        elif name.endswith(".csv"):
            detail = largest_csv_change(args.dir_a / name, args.dir_b / name)
            print(f"{name}: differs, {detail}")
        else:
            print(f"{name}: differs")
        differ += 1
    print(f"{differ} of {len(side_a.keys() | side_b.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
