"""ExperimentConfig semantics and the command-line interface."""

import json
from dataclasses import replace

import numpy as np
import pytest

import ardlab.config
from ardlab.cli import COMMON_FIELDS, VERB_FIELDS, build_config, main, make_parser
from ardlab.config import (
    TRAIN_STAGES,
    ExperimentConfig,
    ar1_sequence,
    bivariate_pair,
    component_tables,
    load_config,
    named_distribution,
    save_config,
    two_mode,
)
from ardlab.errors import ConfigError, GridError
from ardlab.models import TrainConfig, make_chunk_models
from ardlab.ode import make_pairs_bi, make_pairs_causal
from ardlab.presets import PRESET_NAMES, preset_config, run_preset
from ardlab.storage import (
    load_dataset,
    load_models,
    read_report_csv,
    save_dataset,
    save_models,
)


# ---------------------------------------------------------------------------
# config document semantics
# ---------------------------------------------------------------------------


def test_named_distributions():
    assert named_distribution("bivariate", rho=0.5).components[0].covariance[0, 1] == 0.5
    assert named_distribution("ar1", n_frames=4).spec.n_frames == 4
    assert named_distribution("two-mode").components[0].mean[0] == -3.0
    with pytest.raises(ConfigError):
        named_distribution("gaussian-process")
    with pytest.raises(ConfigError):
        named_distribution("bivariate", sigma=2.0)


def test_component_tables_round_trip():
    dist = ar1_sequence(4, 0.6)
    config = ExperimentConfig(
        components=component_tables(dist), n_frames=4, frame_dim=1, chunk_size=1
    )
    rebuilt = config.distribution()
    assert np.allclose(
        rebuilt.components[0].covariance, dist.components[0].covariance
    )


def test_config_dict_round_trip_and_digest():
    config = ExperimentConfig(dataset_size=64, master_seed=7)
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.digest() == config.digest()
    assert len(config.digest()) == 12
    assert config.with_overrides(master_seed=8).digest() != config.digest()


def test_partial_document_fills_defaults():
    config = ExperimentConfig.from_dict({"master_seed": 3})
    assert config.dataset_size == ExperimentConfig().dataset_size
    assert config.train["diffusion"] == TrainConfig()


def test_partial_train_table_is_completed_with_defaults():
    cd = TrainConfig(step_count=40, ema_rate=0.0)
    partial = ExperimentConfig(train={"cd": cd})
    full = ExperimentConfig(train={name: TrainConfig() for name in TRAIN_STAGES}
                            | {"cd": cd})
    assert partial == full
    assert partial.digest() == full.digest()
    assert list(partial.train) == list(TRAIN_STAGES)
    with pytest.raises(ConfigError, match="unknown stages"):
        ExperimentConfig(train={"warmup": TrainConfig()})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"master_sed": 3})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"d3_init": True})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dmd": "dmd"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dmd_fresh_init": True})
    # stage toggles are flags of the verbs that read them
    for key, value in (("diffusion", "tf"), ("ode", "causal-ode"),
                       ("cd", "causal-cd"), ("d2_init", True)):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({key: value})
    with pytest.raises(ConfigError, match="unknown stage"):
        ExperimentConfig.from_dict({"train": {"warmup": {}}})
    with pytest.raises(ConfigError, match="unknown train keys"):
        ExperimentConfig.from_dict({"train": {"cd": {"momentum": 0.9}}})


def test_mode_and_pipeline_validation():
    for argv in (["train", "--diffusion", "ddpm"],
                 ["gen-data", "--ode", "bidirectional-ode"],
                 ["cd", "--cd", "cd"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    with pytest.raises(GridError):
        ExperimentConfig(grid=(0.9, 0.5))


def test_bad_component_tables():
    with pytest.raises(ConfigError, match="component"):
        ExperimentConfig(components=({"weight": 1.0, "mean": [0.0]},))


def test_save_load_config(tmp_path):
    config = ExperimentConfig(
        components=component_tables(two_mode(2.0)), n_frames=1, dataset_size=64,
    )
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI behavior (in-process)
# ---------------------------------------------------------------------------


def _gen_data_args(out, seed):
    return [
        "gen-data", "--ode", "causal-ode", "--dataset-size", "30",
        "--solver-steps", "16", "--master-seed", str(seed), "--output-dir", str(out),
    ]


def test_cli_gen_data_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(_gen_data_args(first, 3)) == 0
    assert main(_gen_data_args(second, 3)) == 0
    capsys.readouterr()
    a = (first / "pairs_causal.jsonl").read_bytes()
    assert a == (second / "pairs_causal.jsonl").read_bytes()
    assert len(a) > 0


def test_cli_config_file_overrides_flags(tmp_path, capsys):
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"master_seed": 9}))
    with_file = tmp_path / "file"
    plain = tmp_path / "plain"
    args = _gen_data_args(with_file, 5) + ["--config", str(doc)]
    assert main(args) == 0
    assert main(_gen_data_args(plain, 9)) == 0
    capsys.readouterr()
    assert (with_file / "pairs_causal.jsonl").read_bytes() == (
        plain / "pairs_causal.jsonl"
    ).read_bytes()


def test_cli_flags_override_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_gen_data_args(out, 0) + ["--grid", "1.0,0.5"]) == 0
    capsys.readouterr()
    from ardlab.storage import load_dataset

    ds = load_dataset(out / "pairs_causal.jsonl")
    assert ds.grid.times == (1.0, 0.5)


def test_cli_distribution_flag(tmp_path, capsys):
    out = tmp_path / "out"
    args = [
        "gen-data", "--ode", "asymmetric-ode", "--distribution", "ar1",
        "--n-frames", "4", "--corr", "0.5", "--dataset-size", "10",
        "--solver-steps", "8", "--output-dir", str(out),
    ]
    assert main(args) == 0
    capsys.readouterr()
    from ardlab.storage import load_dataset

    ds = load_dataset(out / "pairs_bidirectional.jsonl")
    assert ds.spec.n_frames == 4
    assert len(ds.records) == 40


def test_cli_usage_and_config_errors_exit_2(tmp_path, capsys):
    assert main(["distill", "--ode", "none", "--output-dir", str(tmp_path)]) == 2
    assert main(_gen_data_args(tmp_path, 0)[:1] + ["--ode", "none"]) == 2
    assert main(["cd", "--output-dir", str(tmp_path)]) == 2
    assert main(_gen_data_args(tmp_path, 0) + ["--grid", "1.0,oops"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(_gen_data_args(tmp_path, 0) + ["--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert main(_gen_data_args(tmp_path, 0) + ["--config", str(bad)]) == 2
    # the df-mismatch audit needs two prefix draws for its standard error
    assert main(["audit", "--kind", "df-mismatch", "--resamples", "0",
                 "--output-dir", str(tmp_path / "audit")]) == 2
    assert not (tmp_path / "audit").exists()
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--diffusion", "ddim"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["preset", "fig9-analog"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["train", "--n-frames", "6", "--chunk-size", "4"],
    ["train", "--n-frames", "0"],
    ["audit", "--kind", "df-mismatch", "--distribution", "ar1",
     "--n-frames", "3", "--chunk-size", "3"],
])
def test_cli_bad_layouts_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    # non-finite weight, mean and covariances
    '[{"weight": NaN, "mean": [0, 0], "covariance": [[1, 0], [0, 1]]}]',
    '[{"weight": 1.0, "mean": [0, NaN], "covariance": [[1, 0], [0, 1]]}]',
    '[{"weight": 1.0, "mean": [0, 0], "covariance": [[1, NaN], [NaN, 1]]}]',
    '[{"weight": 1.0, "mean": [0, 0],'
    ' "covariance": [[1, Infinity], [Infinity, 1]]}]',
    # a singular covariance: conditioning raises SingularCovarianceError
    '[{"weight": 1.0, "mean": [0, 0], "covariance": [[0, 0], [0, 0]]}]',
    # a component that is not an object, a weight that is not a number
    '[5]',
    '[{"weight": null, "mean": [0, 0], "covariance": [[1, 0], [0, 1]]}]',
])
def test_cli_bad_mixture_tables_exit_2(tmp_path, capsys, table):
    argv = ["audit", "--anchors", "4", "--resamples", "50",
            "--components", table, "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def _on(verb, document):
    """A document case run by a verb that reads its field."""
    return pytest.param(verb, document, id=document)


@pytest.mark.parametrize("verb, document", [
    # a count must be an int, not a string, a bool or a fraction
    _on("gen-data", '{"dataset_size": "10"}'),
    _on("train", '{"feature_count": true}'),
    _on("train", '{"train": {"diffusion": {"step_count": 2.5}}}'),
    _on("gen-data", '{"solver_steps": 2.5}'),
    # a real must be finite
    _on("train", '{"train": {"diffusion": {"method": "sgd", "learning_rate": NaN}}}'),
    # the mixture tables are a list, the output directory a path string
    _on("train", '{"components": 5}'),
    _on("train", '{"output_dir": 5}'),
])
def test_cli_bad_numbers_in_a_config_document_exit_2(tmp_path, capsys, verb, document):
    doc = tmp_path / "config.json"
    doc.write_text(document)
    argv = [verb, "--ode", "causal-ode"] if verb == "gen-data" else [verb]
    argv += ["--config", str(doc), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_toggles_belong_to_the_verbs_that_read_them(tmp_path, capsys):
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"ode": "causal-ode"}))
    assert main(_gen_data_args(tmp_path, 0) + ["--config", str(doc)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    for argv in (["audit", "--ode", "causal-ode"], ["train", "--cd", "causal-cd"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "out").exists()


def test_cli_io_errors_exit_3(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    args = [
        "distill", "--ode", "causal-ode", "--data", str(missing),
        "--output-dir", str(tmp_path),
    ]
    assert main(args) == 3
    assert main(["report", str(tmp_path / "nope.csv")]) == 3
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("not a dataset\n")
    assert main(args[:4] + [str(garbled), "--output-dir", str(tmp_path)]) == 3
    # a report cell that is not a finite number is a format error too
    report = tmp_path / "report.csv"
    report.write_text("report,metric,value,uncertainty,sample_count,config_digest,note\n"
                      "r,m,abc,0.0,1,cafe01234567,\n")
    assert main(["report", str(report)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_cli_distill_malformed_record_exits_3(tmp_path, capsys):
    from ardlab.ode import make_pairs_causal
    from ardlab.storage import save_dataset

    path = tmp_path / "pairs.jsonl"
    save_dataset(make_pairs_causal(bivariate_pair(0.8), count=3, steps=8), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    del rec["snapshots"][min(rec["snapshots"])]  # one grid time missing
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    args = [
        "distill", "--ode", "causal-ode", "--data", str(path),
        "--output-dir", str(tmp_path / "out"),
    ]
    assert main(args) == 3
    assert "line 3" in capsys.readouterr().err


def _nan_snapshot(lines):
    rec = json.loads(lines[2])
    rec["snapshots"][min(rec["snapshots"])][0] = float("nan")
    lines[2] = json.dumps(rec)


def _infinite_endpoint(lines):
    lines[2] = json.dumps({**json.loads(lines[2]), "endpoint": [float("inf")]})


def _bad_grid(lines):
    lines[0] = json.dumps({**json.loads(lines[0]), "grid": [0.9, 0.5]})


def _float_chunk_size(lines):
    header = json.loads(lines[0])
    lines[0] = json.dumps({**header, "spec": {**header["spec"], "chunk_size": 1.0}})


@pytest.mark.parametrize("edit, line", [
    (_nan_snapshot, 3), (_infinite_endpoint, 3), (_bad_grid, 1),
    (_float_chunk_size, 1),
], ids=["nan-snapshot", "infinite-endpoint", "bad-grid", "float-chunk-size"])
def test_cli_distill_dataset_with_bad_numbers_exits_3(tmp_path, capsys, edit, line):
    from ardlab.ode import make_pairs_causal
    from ardlab.storage import save_dataset

    path = tmp_path / "pairs.jsonl"
    save_dataset(make_pairs_causal(bivariate_pair(0.8), count=3, steps=8), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    args = [
        "distill", "--ode", "causal-ode", "--data", str(path),
        "--output-dir", str(tmp_path / "out"),
    ]
    assert main(args) == 3
    assert f"{path}, line {line}" in capsys.readouterr().err


def test_cli_audit_passes_and_writes_reports(tmp_path, capsys):
    out = tmp_path / "audit"
    args = [
        "audit", "--kind", "both", "--resamples", "800", "--anchors", "8",
        "--master-seed", "0", "--output-dir", str(out),
    ]
    assert main(args) == 0
    capsys.readouterr()
    reports = read_report_csv(out / "audit_report.csv")
    assert "injectivity_variance" in reports
    assert "df_mismatch" in reports
    assert reports["df_mismatch"]["oracle_kl"].value == pytest.approx(
        0.12645006108444623
    )
    assert (out / "audit_report.txt").exists()


def test_cli_df_mismatch_audit_passes_on_a_law_with_nonzero_mean(tmp_path, capsys):
    table = '[{"weight":1,"mean":[2,-1],"covariance":[[1,0.8],[0.8,1]]}]'
    argv = ["audit", "--kind", "df-mismatch", "--time", "0.25",
            "--components", table, "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    reports = read_report_csv(tmp_path / "audit_report.csv")
    assert reports["df_mismatch"]["oracle_kl"].value == pytest.approx(0.36263, abs=1e-5)


def _off_oracle(audit, metric, moved):
    """`audit` with its report's oracle row `metric` moved off the estimate."""
    def wrapped(*args, **kwargs):
        report = audit(*args, **kwargs)
        entry = report.metrics[metric]
        report.add(metric, moved(report), entry.uncertainty, entry.sample_count,
                   note=entry.note)
        return report
    return wrapped


@pytest.mark.parametrize("kind, failed", [
    ("injectivity", 1), ("df-mismatch", 1), ("both", 2),
])
def test_cli_audit_fails_on_reports_off_their_oracle(tmp_path, capsys, monkeypatch,
                                                     kind, failed):
    monkeypatch.setattr(ardlab.cli, "injectivity_variance", _off_oracle(
        ardlab.cli.injectivity_variance, "oracle_variance",
        lambda rep: 2.0 * rep.metrics["mean_variance"].value,
    ))
    monkeypatch.setattr(ardlab.cli, "df_mismatch", _off_oracle(
        ardlab.cli.df_mismatch, "oracle_kl",
        lambda rep: rep.metrics["expected_kl"].value + 1.0,
    ))
    out = tmp_path / "audit"
    argv = ["audit", "--kind", kind, "--anchors", "4", "--resamples", "200",
            "--output-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("audit check failed:")]) == failed
    reports = read_report_csv(out / "audit_report.csv")
    assert len(reports) == failed
    assert (out / "audit_report.txt").exists()


def test_cli_report_round_trip(tmp_path, capsys):
    out = tmp_path / "audit"
    main([
        "audit", "--kind", "df-mismatch", "--resamples", "200",
        "--output-dir", str(out),
    ])
    capsys.readouterr()
    assert main(["report", str(out / "audit_report.csv")]) == 0
    printed = capsys.readouterr().out
    assert "df_mismatch.expected_kl" in printed
    dest = tmp_path / "re-emitted.txt"
    assert main([
        "report", str(out / "audit_report.csv"), "--format", "structured-text",
        "--out", str(dest),
    ]) == 0
    capsys.readouterr()
    assert dest.read_text().splitlines()[0].startswith('report="df_mismatch"')


def test_cli_train_distill_pipeline(tmp_path, capsys):
    # each verb is given only the flags of the fields it reads
    out = tmp_path / "pipe"
    common = ["--master-seed", "4", "--output-dir", str(out)]
    assert main(["gen-data", "--ode", "causal-ode", "--dataset-size", "200",
                 "--solver-steps", "16", *common]) == 0
    assert main(["train", "--diffusion", "tf", "--feature-count", "64", *common]) == 0
    assert main(["distill", "--ode", "causal-ode", "--feature-count", "64", *common]) == 0
    capsys.readouterr()
    from ardlab.storage import load_loss_trace, load_models

    models = load_models(out / "models_generator.jsonl")
    assert models.role == "generator"
    assert load_loss_trace(out / "diffusion_trace.csv").size > 0
    assert load_loss_trace(out / "distill_trace.csv").size > 0


def test_cli_dmd_from_fresh_generators(tmp_path, capsys):
    out = tmp_path / "dmd"
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"train": {"dmd": {"step_count": 3, "batch_size": 16}}}))
    args = ["dmd", "--config", str(doc), "--feature-count", "16",
            "--output-dir", str(out)]
    assert main(args) == 0
    assert "fresh (identity map)" in capsys.readouterr().out
    models = load_models(out / "models_dmd.jsonl")
    assert models.role == "generator"
    assert models.member(1).features.m == 16


def test_cli_dmd_from_a_trained_denoiser_head(tmp_path, capsys):
    out = tmp_path / "dmd"
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"train": {
        "diffusion": {"step_count": 3, "batch_size": 16},
        "dmd": {"step_count": 3, "batch_size": 16},
    }}))
    args = ["dmd", "--init", "denoiser", "--diffusion", "df", "--config", str(doc),
            "--feature-count", "16", "--output-dir", str(out)]
    assert main(args) == 0
    assert "from denoiser head" in capsys.readouterr().out
    assert load_models(out / "models_dmd.jsonl").role == "generator"


@pytest.mark.parametrize("init", ["fresh", "distilled", "denoiser"])
def test_cli_dmd_init_picks_the_starting_heads(tmp_path, monkeypatch, init):
    # fresh: zero heads (the identity map); distilled: the heads stored in
    # models_generator.jsonl; denoiser: the velocity heads trained first,
    # by the trainer --diffusion names
    import ardlab.cli

    out = tmp_path / "dmd"
    out.mkdir()
    doc = tmp_path / "config.json"
    train = {"dmd": {"step_count": 2, "batch_size": 16}}
    if init == "denoiser":  # the only start that reads train.diffusion
        train["diffusion"] = {"step_count": 3, "batch_size": 16}
    doc.write_text(json.dumps({"train": train}))
    stored = make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16,
                               seed=11)
    rng = np.random.default_rng(0)
    for i, member in enumerate(stored.members, start=1):
        stored.replace_member(i, replace(member, theta=rng.standard_normal((16, 1))))
    save_models(stored, out / "models_generator.jsonl")
    started, trained = [], []

    def dmd_train(generators, *args, **kwargs):
        started.append([member.theta.copy() for member in generators.members])
        return real_dmd_train(generators, *args, **kwargs)

    def train_df(dist, velocities, *args, **kwargs):
        result = real_train_df(dist, velocities, *args, **kwargs)
        trained.append([member.theta.copy() for member in velocities.members])
        return result

    real_dmd_train, real_train_df = ardlab.cli.dmd_train, ardlab.cli.train_ar_diffusion_df
    monkeypatch.setattr(ardlab.cli, "dmd_train", dmd_train)
    monkeypatch.setattr(ardlab.cli, "train_ar_diffusion_df", train_df)
    extra = ["--diffusion", "df"] if init == "denoiser" else []
    assert main(["dmd", "--init", init, *extra, "--config", str(doc),
                 "--feature-count", "16", "--output-dir", str(out)]) == 0
    (heads,) = started
    if init == "fresh":
        want = [np.zeros((16, 1))] * 2
    elif init == "distilled":
        want = [member.theta for member in stored.members]
    else:
        (want,) = trained
        assert not np.array_equal(want[0], np.zeros((16, 1)))
    for got, expected in zip(heads, want, strict=True):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("argv", [
    ["--d2-init", "--ode", "causal-ode"], ["--d2-init"], ["--ode", "causal-ode"],
    ["--init", "pretrained"],
])
def test_cli_dmd_rejects_the_old_init_flags(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(["dmd", *argv, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_dmd_diffusion_needs_the_denoiser_init(tmp_path, capsys):
    assert main(["dmd", "--diffusion", "df", "--output-dir", str(tmp_path)]) == 2
    assert "--init denoiser" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("m", "8"), ("seed", "abc"), ("frequency_scale", "x")]
)
def test_cli_dmd_checkpoint_with_wrong_field_type_exits_3(tmp_path, capsys,
                                                          field, value):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "models_generator.jsonl"
    save_models(
        make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16),
        path,
    )
    lines = path.read_text().splitlines()
    member = json.loads(lines[1])
    member[field] = value
    lines[1] = json.dumps(member)
    path.write_text("\n".join(lines) + "\n")
    assert main(["dmd", "--init", "distilled", "--output-dir", str(out)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_cli_dmd_checkpoint_with_another_readout_exits_3(tmp_path, capsys):
    # a generator head has the anchored readout; a line naming another one
    # describes a head this checkpoint cannot hold
    out = tmp_path / "out"
    out.mkdir()
    path = out / "models_generator.jsonl"
    save_models(
        make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16),
        path,
    )
    lines = path.read_text().splitlines()
    member = json.loads(lines[2])
    assert member["parameterization"] == "anchored"
    lines[2] = json.dumps({**member, "parameterization": "direct"})
    path.write_text("\n".join(lines) + "\n")
    assert main(["dmd", "--init", "distilled", "--output-dir", str(out)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_cli_dmd_checkpoint_with_unknown_header_role_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "models_generator.jsonl"
    save_models(
        make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16),
        path,
    )
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "role": 5})
    path.write_text("\n".join(lines) + "\n")
    assert main(["dmd", "--init", "distilled", "--output-dir", str(out)]) == 3
    assert "role 5" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("chunk_size", 1.0), ("n_frames", True)])
def test_cli_dmd_checkpoint_with_a_non_integer_spec_field_exits_3(tmp_path, capsys,
                                                                   field, value):
    # a float or bool layout field is refused at the header, not passed on
    # to slice chunks or to be written back
    out = tmp_path / "out"
    out.mkdir()
    path = out / "models_generator.jsonl"
    save_models(
        make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16),
        path,
    )
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    lines[0] = json.dumps({**header, "spec": {**header["spec"], field: value}})
    path.write_text("\n".join(lines) + "\n")
    assert main(["dmd", "--init", "distilled", "--output-dir", str(out)]) == 3
    assert f"{path}, line 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("theta", [[float("nan")]] * 16),
                                        ("chunk_index", 7)],
                         ids=["nan-theta", "chunk-index-7"])
def test_cli_dmd_checkpoint_with_a_bad_member_line_exits_3(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "models_generator.jsonl"
    save_models(
        make_chunk_models(bivariate_pair(0.8).spec, role="generator", m=16),
        path,
    )
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    path.write_text("\n".join(lines) + "\n")
    assert main(["dmd", "--init", "distilled", "--output-dir", str(out)]) == 3
    assert f"{path}, line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# presets take only a master seed
# ---------------------------------------------------------------------------


_NON_SEED_FIELDS = sorted(set(ExperimentConfig().to_dict()) - {"master_seed"})


@pytest.mark.parametrize("key", _NON_SEED_FIELDS)
def test_preset_rejects_every_override_but_master_seed(tmp_path, key):
    # even an override that restates the preset's own value is rejected
    overrides = {key: getattr(preset_config("prop2-audit"), key)}
    with pytest.raises(ConfigError, match=key):
        preset_config("prop2-audit", overrides)
    with pytest.raises(ConfigError, match=key):
        run_preset("prop2-audit", output_dir=str(tmp_path), overrides=overrides)
    assert not any(tmp_path.iterdir())


def test_unknown_preset_name_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("lemma1-audt")
    with pytest.raises(ConfigError, match="unknown preset"):
        run_preset("lemma1-audt", output_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_preset_override_error_names_every_ignored_key():
    with pytest.raises(ConfigError) as exc:
        preset_config("table2-analog",
                      {"master_seed": 1, "chunk_size": 3, "solver_steps": 4})
    assert "chunk_size" in str(exc.value) and "solver_steps" in str(exc.value)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_master_seed_override(name):
    base = preset_config(name)
    seeded = preset_config(name, {"master_seed": base.master_seed + 5})
    assert seeded == base.with_overrides(master_seed=base.master_seed + 5)


def test_cli_preset_rejects_config_flags(tmp_path, capsys):
    for flags in (["--distribution", "bivariate", "--rho", "0.3"],
                  ["--solver-steps", "3"], ["--feature-count", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "prop2-audit", "--output-dir", str(tmp_path)] + flags)
        assert exc.value.code == 2
    assert main(["preset", "all", "--master-seed", "1",
                 "--output-dir", str(tmp_path)]) == 2
    assert "master-seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_preset_master_seed(tmp_path, capsys):
    assert main(["preset", "prop2-audit", "--master-seed", "7",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    recorded = json.loads((tmp_path / "prop2-audit" / "config.json").read_text())
    assert recorded == preset_config("prop2-audit", {"master_seed": 7}).to_dict()


# ---------------------------------------------------------------------------
# run parts built through the config, and the config flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("role, feature_count, width", [
    ("generator", 40, 40),
    ("ar-velocity", 256, 256),
    # a fake score gets half the features, at least 32
    ("fake-score", 256, 128),
    ("fake-score", 40, 32),
])
def test_chunk_models_match_a_direct_build(role, feature_count, width):
    config = ExperimentConfig(feature_count=feature_count, frequency_scale=0.5)
    built = config.chunk_models(role, 7)
    direct = make_chunk_models(config.sequence_spec(), role, width, 7,
                               frequency_scale=0.5)
    assert built.role == role
    for got, want in zip(built.members, direct.members, strict=True):
        assert got.features == want.features
        assert got.features.m == width
        assert got.features.frequencies.tobytes() == want.features.frequencies.tobytes()


@pytest.mark.parametrize("kind, build, offset", [
    ("bidirectional", make_pairs_bi, 1),
    ("causal", make_pairs_causal, 2),
])
def test_pairs_equal_a_direct_build(tmp_path, kind, build, offset):
    config = ExperimentConfig(components=component_tables(ar1_sequence(4, 0.6)),
                              n_frames=4, chunk_size=2, grid=(1.0, 0.5),
                              dataset_size=6, solver_steps=12, master_seed=5)
    direct = build(config.distribution(), config.timestep_grid(), count=6,
                   steps=12, seed=5 + offset)
    save_dataset(config.pairs(kind), tmp_path / "config.jsonl")
    save_dataset(direct, tmp_path / "direct.jsonl")
    assert (tmp_path / "config.jsonl").read_bytes() == (
        tmp_path / "direct.jsonl"
    ).read_bytes()
    with pytest.raises(ValueError, match="pair kind"):
        config.pairs("joint")


def test_pairs_call_the_builder_bound_at_call_time(monkeypatch):
    # a profiler that rebinds the builder in ardlab.config must see the call
    seeds = []
    real = ardlab.config.make_pairs_bi

    def traced(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ardlab.config, "make_pairs_bi", traced)
    ExperimentConfig(dataset_size=3, solver_steps=8, master_seed=3).pairs("bidirectional")
    assert seeds == [4]


_FOUR_DIM = ["--components", json.dumps(component_tables(ar1_sequence(4, 0.5)))]

#: field -> (flag text, the field's value, other flags the value needs)
_FLAG_CASES = {
    "n_frames": ("4", 4, _FOUR_DIM),
    "frame_dim": ("2", 2, _FOUR_DIM),
    "chunk_size": ("2", 2, []),
    "grid": ("1.0,0.5", (1.0, 0.5), []),
    "solver_steps": ("17", 17, []),
    "feature_count": ("33", 33, []),
    "frequency_scale": ("0.5", 0.5, []),
    "dataset_size": ("7", 7, []),
    "master_seed": ("9", 9, []),
    "output_dir": ("elsewhere", "elsewhere", []),
}

PIPELINE_VERBS = ("gen-data", "train", "distill", "dmd", "cd", "audit")

_LAW_FLAGS = ("--distribution", "--rho", "--corr", "--separation", "--components",
              "--n-frames", "--frame-dim", "--chunk-size")
_MODEL_FLAGS = ("--feature-count", "--frequency-scale")

#: each pipeline verb's config flags besides --config, --master-seed and
#: --output-dir, which every verb takes
_VERB_CONFIG_FLAGS = {
    "gen-data": (*_LAW_FLAGS, "--grid", "--solver-steps", "--dataset-size"),
    "train": (*_LAW_FLAGS, *_MODEL_FLAGS),
    "distill": _MODEL_FLAGS,
    "dmd": (*_LAW_FLAGS, "--grid", *_MODEL_FLAGS),
    "cd": (*_LAW_FLAGS, *_MODEL_FLAGS),
    "audit": _LAW_FLAGS,
}
_EVERY_VERB = ("--config", "--master-seed", "--output-dir")

#: each pipeline verb's other flags: stage toggles and run options
_OTHER_FLAGS = {
    "gen-data": ("--ode",),
    "train": ("--diffusion",),
    "distill": ("--ode", "--data"),
    "dmd": ("--init", "--diffusion"),
    "cd": ("--cd", "--cd-cells"),
    "audit": ("--kind", "--time", "--anchors", "--resamples"),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _help_flags(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    return {token for token in capsys.readouterr().out.split() if token.startswith("--")}


@pytest.mark.parametrize("name", _FLAG_CASES)
def test_each_config_flag_sets_its_field(name):
    text, value, extra = _FLAG_CASES[name]
    verb = next(verb for verb in PIPELINE_VERBS
                if _flag(name) in _VERB_CONFIG_FLAGS[verb] + _EVERY_VERB)
    assert getattr(ExperimentConfig(), name) != value
    assert getattr(make_parser().parse_args([verb]), name) is None
    config = build_config(make_parser().parse_args([verb, _flag(name), text, *extra]))
    assert getattr(config, name) == value
    assert type(getattr(config, name)) is type(value)


@pytest.mark.parametrize("name", _FLAG_CASES)
def test_each_pipeline_verb_lists_each_config_flag(name, capsys):
    # a verb lists a field's flag exactly when it reads the field
    for verb in PIPELINE_VERBS:
        listed = _flag(name) in _help_flags(verb, capsys)
        assert listed == (_flag(name) in _VERB_CONFIG_FLAGS[verb] + _EVERY_VERB), verb


@pytest.mark.parametrize("verb", PIPELINE_VERBS)
def test_each_verb_help_lists_exactly_its_flags(verb, capsys):
    want = {"--help", *_VERB_CONFIG_FLAGS[verb], *_EVERY_VERB, *_OTHER_FLAGS[verb]}
    assert _help_flags(verb, capsys) == want


# ---------------------------------------------------------------------------
# each verb takes the fields it reads, and only those
# ---------------------------------------------------------------------------


_AR4 = component_tables(ar1_sequence(4, 0.5))
_LAW = {"components": _AR4, "n_frames": 4}
_TINY = {"step_count": 2, "batch_size": 16}

#: a small call of each pipeline verb: its arguments and its config document
_SMALL_CALLS = {
    "gen-data": (["--ode", "causal-ode"],
                 {**_LAW, "grid": [1.0, 0.5], "solver_steps": 8, "dataset_size": 6}),
    "train": ([], {**_LAW, "feature_count": 16, "train": {"diffusion": _TINY}}),
    "distill": (["--ode", "causal-ode"],
                {"feature_count": 16, "train": {"distill": _TINY}}),
    "dmd": (["--init", "denoiser"],
            {**_LAW, "feature_count": 16, "train": {"diffusion": _TINY, "dmd": _TINY}}),
    "cd": (["--cd", "causal-cd", "--cd-cells", "4"],
           {**_LAW, "feature_count": 16, "train": {"cd": _TINY}}),
    "audit": (["--anchors", "8", "--resamples", "800"], dict(_LAW)),
}

#: a changed value of each field.  n_frames * frame_dim is the law's
#: dimension, so these two change together.
_CHANGES = {
    "components": {"components": component_tables(ar1_sequence(4, 0.2))},
    "n_frames": {"n_frames": 2, "frame_dim": 2},
    "frame_dim": {"frame_dim": 2, "n_frames": 2},
    "chunk_size": {"chunk_size": 2},
    "grid": {"grid": [1.0, 0.75]},
    "solver_steps": {"solver_steps": 9},
    "dataset_size": {"dataset_size": 7},
    "feature_count": {"feature_count": 24},
    "frequency_scale": {"frequency_scale": 0.5},
    "master_seed": {"master_seed": 1},
}


def _changed(document, name):
    if name.startswith("train."):
        stage = name.removeprefix("train.")
        settings = {**document.get("train", {}).get(stage, {}), "ridge_lambda": 0.5}
        return {**document, "train": {**document.get("train", {}), stage: settings}}
    return {**document, **_CHANGES[name]}


@pytest.fixture
def small_pairs(tmp_path):
    """A causal pair dataset on the small calls' four-frame law."""
    path = tmp_path / "pairs.jsonl"
    config = ExperimentConfig(components=_AR4, n_frames=4, grid=(1.0, 0.5),
                              solver_steps=8, dataset_size=6)
    save_dataset(config.pairs("causal"), path)
    return path


def _call(tmp_path, verb, document, tag, small_pairs, extra=()):
    """Run the verb's small call with this document into its own directory;
    returns the exit code and that directory."""
    args, _ = _SMALL_CALLS[verb]
    if verb == "distill":
        args = [*args, "--data", str(small_pairs)]
    doc = tmp_path / f"{tag}.json"
    doc.write_text(json.dumps(document))
    out = tmp_path / tag
    code = main([verb, *args, *extra, "--config", str(doc), "--output-dir", str(out)])
    return code, out


def _results(out):
    """Every output file's bytes; an audit report as its metric entries, since
    its config_digest column names the config, not a result."""
    results = {}
    for path in sorted(out.iterdir()):
        if path.name == "audit_report.csv":
            results[path.name] = {(name, metric): entry
                                  for name, report in read_report_csv(path).items()
                                  for metric, entry in report.metrics.items()}
        elif path.name != "audit_report.txt":
            results[path.name] = path.read_bytes()
    return results


@pytest.mark.parametrize("verb", PIPELINE_VERBS)
def test_each_field_a_verb_takes_changes_a_result(tmp_path, capsys, small_pairs, verb):
    _, base = _SMALL_CALLS[verb]
    code, out = _call(tmp_path, verb, base, "base", small_pairs)
    assert code == 0
    want = _results(out)
    for name in VERB_FIELDS[verb] + ("master_seed",):
        code, out = _call(tmp_path, verb, _changed(base, name), name, small_pairs)
        assert code == 0, name
        got = _results(out)
        assert got.keys() == want.keys(), name
        assert got != want, name
    capsys.readouterr()


#: a value of each flag, for the flags of unread fields
_FLAG_TEXT = {
    **{_flag(name): text for name, (text, _, _) in _FLAG_CASES.items()},
    "--distribution": "ar1", "--rho": "0.5", "--corr": "0.5", "--separation": "2",
    "--components": json.dumps(_AR4),
}


@pytest.mark.parametrize("verb", PIPELINE_VERBS)
def test_each_field_a_verb_does_not_read_is_a_configuration_error(
        tmp_path, capsys, small_pairs, verb):
    _, base = _SMALL_CALLS[verb]
    reads = VERB_FIELDS[verb] + COMMON_FIELDS
    names = [name for name in ExperimentConfig().to_dict() if name != "train"]
    names += [f"train.{stage}" for stage in TRAIN_STAGES]
    unread = [name for name in names if name not in reads]
    assert unread
    for name in unread:
        # as a document key, with a value the field takes
        document = _changed(base, name) if name.startswith("train.") else {
            **base, name: ExperimentConfig().to_dict()[name]}
        code, out = _call(tmp_path, verb, document, "doc", small_pairs)
        assert code == 2, name
        err = capsys.readouterr().err
        assert "configuration error" in err and name in err
        assert not out.exists()
    flags = [flag for flag in _FLAG_TEXT
             if flag not in _VERB_CONFIG_FLAGS[verb] + _EVERY_VERB]
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            _call(tmp_path, verb, base, "flag", small_pairs,
                  extra=(flag, _FLAG_TEXT[flag]))
        assert exc.value.code == 2, flag
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err
        assert not (tmp_path / "flag").exists()


def test_dmd_reads_train_diffusion_only_with_the_denoiser_init(tmp_path, capsys):
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"train": {"diffusion": _TINY}}))
    for init in ("fresh", "distilled"):
        out = tmp_path / init
        argv = ["dmd", "--init", init, "--config", str(doc), "--output-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "train.diffusion" in err
        assert not out.exists()


def test_cli_distill_takes_its_layout_from_its_dataset(tmp_path, capsys):
    # a six-frame gen-data run, then a distill run with no layout flags
    out = tmp_path / "run"
    assert main(["gen-data", "--ode", "causal-ode", "--distribution", "ar1",
                 "--n-frames", "6", "--dataset-size", "10", "--solver-steps", "8",
                 "--output-dir", str(out)]) == 0
    assert main(["distill", "--ode", "causal-ode", "--feature-count", "16",
                 "--master-seed", "3", "--output-dir", str(out)]) == 0
    capsys.readouterr()
    spec = load_dataset(out / "pairs_causal.jsonl").spec
    assert spec.n_frames == 6
    students = load_models(out / "models_generator.jsonl")
    assert students.seq_spec == spec
    fresh = ExperimentConfig(feature_count=16).chunk_models("generator", 14, spec=spec)
    for got, want in zip(students.members, fresh.members, strict=True):
        assert got.features == want.features


@pytest.mark.parametrize("flags, message", [
    (["--rho", "0.5"], "--rho needs --distribution bivariate"),
    (["--distribution", "ar1", "--rho", "0.5"], "--rho needs --distribution bivariate"),
    (["--corr", "0.5"], "--corr needs --distribution ar1"),
    (["--distribution", "bivariate", "--corr", "0.5"], "--corr needs --distribution ar1"),
    (["--separation", "2"], "--separation needs --distribution two-mode"),
    (["--distribution", "ar1", "--separation", "2"],
     "--separation needs --distribution two-mode"),
    (["--distribution", "bivariate", "--components", json.dumps(_AR4)],
     "--components and --distribution"),
])
def test_cli_family_flag_rules(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["audit", *flags, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, dist", [
    (["--distribution", "bivariate", "--rho", "0.3"], bivariate_pair(0.3)),
    (["--distribution", "ar1", "--corr", "0.3", "--n-frames", "4", "--chunk-size", "2"],
     ar1_sequence(4, 0.3, 2)),
    (["--distribution", "two-mode", "--separation", "2"], two_mode(2.0)),
    (["--components", json.dumps(_AR4), "--n-frames", "4"], ar1_sequence(4, 0.5)),
])
def test_cli_family_flags_set_the_law(flags, dist):
    config = build_config(make_parser().parse_args(["audit", *flags]))
    assert config.components == component_tables(dist)
    assert config.sequence_spec() == dist.spec
