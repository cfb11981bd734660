"""scripts/compare_runs.py: sha256 file comparison with the numbers that changed."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_compare_runs_names_each_differing_file(tmp_path, capsys):
    same = {"p/config.json": "{}\n", "p/report.txt": "ok\n"}
    a = _tree(tmp_path / "a", {**same, "p/report.csv": "metric,value\nx,1.0\ny,2.0\n",
                               "p/only_a.csv": "v\n1\n"})
    b = _tree(tmp_path / "b", {**same, "p/report.csv": "metric,value\nx,1.0\ny,2.5\n",
                               "p/only_b.jsonl": "{}\n"})
    assert compare_runs.main([str(a), str(a)]) == 0
    capsys.readouterr()
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"p/only_a.csv: only in {a}",
        f"p/only_b.jsonl: only in {b}",
        "p/report.csv: differs, largest relative change 0.2 (absolute 0.5) at line 3 column value",
        "3 of 5 files differ",
    ]


def test_largest_csv_change_reports_shape_and_text(tmp_path):
    a = _tree(tmp_path, {"a.csv": "k,v\nx,0\n", "b.csv": "k,v\ny,0\n", "c.csv": "k,v\n"})
    assert compare_runs.largest_csv_change(a / "a.csv", a / "b.csv") == (
        "1 non-numeric cells differ in column k"
    )
    assert compare_runs.largest_csv_change(a / "a.csv", a / "c.csv") == "shape differs"


def test_largest_change_prints_the_absolute_change_beside_the_relative_one(tmp_path):
    # a value that is rounding noise around 0 changes by most relative to
    # itself; its absolute change shows that, and the largest absolute
    # change, elsewhere, is named too
    a = _tree(tmp_path / "a", {"v.csv": "k,value\nx,4e-33\ny,1.0\nz,2.0\n"})
    b = _tree(tmp_path / "b", {"v.csv": "k,value\nx,1.6e-32\ny,1.0000001\nz,2.0\n",
                               "w.csv": "k,value\nx,4e-33\ny,1.0\nz,2.5\n"})
    assert compare_runs.largest_csv_change(a / "v.csv", b / "v.csv") == (
        "largest relative change 0.75 (absolute 1.2e-32) at line 2 column value; "
        "largest absolute change 1e-07 at line 3 column value"
    )
    # one cell both largest: named once
    assert compare_runs.largest_csv_change(a / "v.csv", b / "w.csv") == (
        "largest relative change 0.2 (absolute 0.5) at line 4 column value"
    )


def test_largest_jsonl_change_compares_records_of_one_structure(tmp_path):
    a = _tree(tmp_path / "a", {"pairs.jsonl": '{"format":"x","n":2}\n'
                               '{"seed":7,"endpoint":[1.0,-2.0],"snapshots":{"0.5":[4.0]}}\n'})
    b = _tree(tmp_path / "b", {
        "pairs.jsonl": '{"format":"x","n":2}\n'
                       '{"seed":7,"endpoint":[1.0,-2.5],"snapshots":{"0.5":[4.1]}}\n',
        "longer.jsonl": '{"format":"x","n":2}\n{"seed":7,"endpoint":[1.0,-2.0,0.0]}\n',
        "text.jsonl": '{"format":"y","n":2}\n',
        "bad.jsonl": '{"format":\n',
    })
    assert compare_runs.largest_jsonl_change(a / "pairs.jsonl", b / "pairs.jsonl") == (
        "largest relative change 0.2 (absolute 0.5) at line 2 endpoint[1]"
    )
    assert compare_runs.largest_jsonl_change(a / "pairs.jsonl", b / "longer.jsonl") == "shape differs"
    assert compare_runs.largest_jsonl_change(b / "text.jsonl", b / "text.jsonl") == (
        "cells equal, bytes differ"
    )
    assert compare_runs.largest_jsonl_change(b / "text.jsonl", b / "longer.jsonl") == "shape differs"
    assert compare_runs.largest_jsonl_change(a / "pairs.jsonl", b / "bad.jsonl") == "not JSON lines"
    head = _tree(tmp_path / "c", {"t.jsonl": '{"format":"x","n":3}\n'})
    assert compare_runs.largest_jsonl_change(b / "text.jsonl", head / "t.jsonl") == (
        "largest relative change 0.333 (absolute 1) at line 1 n; 1 non-numeric cells differ"
    )


def test_json_change_lists_one_sided_keys_and_the_largest_shared_change(tmp_path):
    a = _tree(tmp_path / "a", {"config.json": '{"ode": "causal-ode", "cd": "none", '
                                              '"seed": 4, "train": {"lr": 0.1}}\n'})
    b = _tree(tmp_path / "b", {"config.json": '{"seed": 4, "train": {"lr": 0.2}, "new": 1}\n',
                               "same.json": '{"seed": 4, "cd": "none", "ode": "causal-ode",'
                                            ' "train": {"lr": 0.1}}\n',
                               "bad.json": "{"})
    assert compare_runs.json_change(a / "config.json", b / "config.json") == (
        "keys only on side A: cd, ode; keys only on side B: new; "
        "largest relative change 0.5 (absolute 0.1) at train.lr"
    )
    assert compare_runs.json_change(a / "config.json", b / "same.json") == (
        "cells equal, bytes differ"
    )
    assert compare_runs.json_change(a / "config.json", b / "bad.json") == "not JSON"


def test_largest_report_text_change_reads_key_value_records(tmp_path):
    line = ('report="energy" metric="a b" value={} uncertainty={} '
            'sample_count=1 config_digest={} note="x = 1"\n')
    a = _tree(tmp_path / "a", {"report.txt": line.format(2.0, 0.5, "abc")
                               + line.format(1.0, 0.0, "abc")})
    b = _tree(tmp_path / "b", {
        "report.txt": line.format(2.0, 0.4, "abc") + line.format(1.1, 0.0, "abc"),
        "digest.txt": line.format(2.0, 0.5, "def") + line.format(1.0, 0.0, "def"),
        "short.txt": line.format(2.0, 0.5, "abc"),
        "keys.txt": line.format(2.0, 0.5, "abc") + 'report="energy" value=1.0\n',
        "plain.txt": "ok\n",
    })
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "report.txt") == (
        "largest relative change 0.2 (absolute 0.1) at line 1 uncertainty"
    )
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "digest.txt") == (
        "2 non-numeric cells differ in column config_digest"
    )
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "short.txt") == (
        "shape differs"
    )
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "keys.txt") == (
        "shape differs"
    )
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "plain.txt") == (
        "not key=value records"
    )


def test_report_rows_pair_by_report_and_metric(tmp_path):
    header = "report,metric,value,uncertainty,sample_count,config_digest,note\n"
    row = "{},{},{},0.0,1,abc,\n"
    line = 'report="{}" metric="{}" value={} uncertainty=0.0 note="x"\n'
    a_rows = [("checks", "ok", 1.0), ("energy", "causal", 2.0)]
    # side B gains a row ahead of the others and changes one value
    b_rows = [("energy", "asym", 3.0), ("checks", "ok", 1.0), ("energy", "causal", 2.5)]
    a = _tree(tmp_path / "a", {
        "report.csv": header + "".join(row.format(*r) for r in a_rows),
        "report.txt": "".join(line.format(*r) for r in a_rows),
    })
    b = _tree(tmp_path / "b", {
        "report.csv": header + "".join(row.format(*r) for r in b_rows),
        "report.txt": "".join(line.format(*r) for r in b_rows),
        "gained.csv": header + "".join(row.format(*r) for r in a_rows + b_rows[:1]),
    })
    want = ("rows only on side B: energy.asym; "
            "largest relative change 0.2 (absolute 0.5) at energy.causal value")
    assert compare_runs.largest_csv_change(a / "report.csv", b / "report.csv") == want
    assert compare_runs.largest_report_text_change(a / "report.txt", b / "report.txt") == want
    assert compare_runs.largest_csv_change(b / "gained.csv", a / "report.csv") == (
        "rows only on side A: energy.asym"
    )
