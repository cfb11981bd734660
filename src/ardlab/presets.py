"""Canned experiment pipelines with built-in pass/fail checks.

Each preset is a named, seeded, end-to-end run: build the lab distribution,
train the stages it exercises, compute diagnostics, write every artifact
(config, datasets, reports) under its own output directory, and then assert
the findings it was designed to demonstrate.  Reruns with the same seed
write byte-identical files; no artifact carries wall-clock state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import models
from .config import (
    TRAIN_STAGES,
    ExperimentConfig,
    ar1_sequence,
    bivariate_pair,
    component_tables,
    save_config,
    two_mode,
)
from .diagnostics import (
    DiagnosticsReport,
    collapse_gap,
    conditional_energy_distance,
    consistency_rms,
    df_mismatch,
    energy_distances,
    injectivity_variance,
    trained_conditional_kl,
)
from .distributions import sample_clean
from .errors import ConfigError, PresetCheckError
from .models import TrainConfig, copy_head
from .stages import (
    cd_train,
    dmd_train,
    ode_distill,
    rollout,
    train_ar_diffusion_df,
    train_ar_diffusion_tf,
)
from .storage import emit_report, save_dataset, save_loss_trace

PRESET_NAMES = (
    "fig3-analog",
    "fig4-analog",
    "table2-analog",
    "lemma1-audit",
    "prop2-audit",
    "d2-init",
    "d3-init",
)


@dataclass
class PresetResult:
    """One finished preset run: its config, reports, checks, and file root."""

    name: str
    config: ExperimentConfig
    reports: list
    checks: dict
    path: Path


def _scalar_report(name: str, entries: dict) -> DiagnosticsReport:
    """Wrap plain named floats (no MC uncertainty attached) as a report."""
    report = DiagnosticsReport(name=name)
    for metric, value in entries.items():
        report.add(metric, float(value), 0.0, 1)
    return report


def _stage_train(**overrides) -> dict:
    """Full per-stage train table: defaults plus the given stage settings."""
    table = {name: TrainConfig() for name in TRAIN_STAGES}
    table.update(overrides)
    return table


def _renamed(report: DiagnosticsReport, name: str) -> DiagnosticsReport:
    return dataclasses.replace(report, name=name)


def _at_rho(report: DiagnosticsReport, rho: float) -> DiagnosticsReport:
    """The report with its bivariate correlation in every metric note: lemma1
    and prop2 run correlations their recorded components do not hold."""
    metrics = {
        key: dataclasses.replace(
            entry, note=f"{entry.note}; rho={rho}" if entry.note else f"rho={rho}"
        )
        for key, entry in report.metrics.items()
    }
    return dataclasses.replace(report, metrics=metrics)


# ---------------------------------------------------------------------------
# preset bodies: each returns (reports, checks, datasets_to_save)
# ---------------------------------------------------------------------------


def _run_fig3(config: ExperimentConfig):
    """Posterior collapse of joint-trajectory distillation vs the causal fix.

    Distill two generator sets from equal-size ODE datasets — one integrated
    jointly over the whole sequence, one chunk-wise given clean prefixes —
    then audit the first chunk for mean collapse and the second for
    conditional fidelity.
    """
    dist = config.distribution()
    grid = config.timestep_grid()
    seed = config.master_seed
    ds_bi = config.pairs("bidirectional")
    ds_causal = config.pairs("causal")
    cfg = config.train["distill"]
    asym = config.chunk_models("generator", seed + 11)
    res_asym = ode_distill(ds_bi, asym, cfg, seed=seed + 21)
    causal = config.chunk_models("generator", seed + 12)
    res_causal = ode_distill(ds_causal, causal, cfg, seed=seed + 22)

    rep_asym = _renamed(
        collapse_gap(
            asym, dist, grid, n=800, chunk_index=1, coupling="bidirectional",
            n_rms=128, n_inner=600, steps=64, seed=seed + 31,
        ),
        "collapse_asym",
    )
    rep_causal = _renamed(
        collapse_gap(
            causal, dist, grid, n=800, chunk_index=1, coupling="autoregressive",
            steps=64, seed=seed + 32,
        ),
        "collapse_causal",
    )
    ed_asym, ed_causal = conditional_energy_distance(
        [asym, causal], dist, grid, 2, count=2000, seed=seed + 41
    )
    rep_ed = _scalar_report(
        "conditional_energy", {"asymmetric": ed_asym, "causal": ed_causal}
    )

    deficit = rep_asym.metrics["second_moment_deficit"]
    checks = {
        "asym_moment_deficit_over_3se": deficit.value > 3.0 * deficit.uncertainty,
        "causal_rms_below_asym": (
            rep_causal.metrics["rms_gap"].value < rep_asym.metrics["rms_gap"].value
        ),
        "causal_energy_below_asym": ed_causal < ed_asym,
    }
    return (
        [rep_asym, rep_causal, rep_ed],
        checks,
        {"pairs_bidirectional.jsonl": ds_bi, "pairs_causal.jsonl": ds_causal},
        {"distill_asym_trace.csv": res_asym.loss_trace,
         "distill_causal_trace.csv": res_causal.loss_trace},
    )


def _run_fig4(config: ExperimentConfig):
    """Clean-past vs re-noised-past denoiser training, scored by the KL of
    each learned conditional against the exact one.

    The two ridge trainings run one after the other: run at once, their
    normal-equation feature blocks are live together.  Both arms are then
    scored in one trained_conditional_kl call, which integrates them at
    once."""
    dist = config.distribution()
    seed = config.master_seed
    cfg = config.train["diffusion"]
    vel_tf = config.chunk_models("ar-velocity", seed + 11)
    res_tf = train_ar_diffusion_tf(dist, vel_tf, cfg, seed=seed + 21)
    vel_df = config.chunk_models("ar-velocity", seed + 12)
    res_df = train_ar_diffusion_df(dist, vel_df, cfg, seed=seed + 21)

    rep_tf, rep_df = trained_conditional_kl(
        [vel_tf, vel_df], dist, 2, n_prefix=12, n_samples=400, steps=64,
        seed=seed + 31,
    )
    rep_tf = _renamed(rep_tf, "conditional_kl_tf")
    rep_df = _renamed(rep_df, "conditional_kl_df")
    kl_tf = rep_tf.metrics["expected_kl"].value
    kl_df = rep_df.metrics["expected_kl"].value
    checks = {
        "tf_kl_small": kl_tf < 0.2,
        "df_kl_over_twice_tf": kl_df > 2.0 * kl_tf,
    }
    traces = {
        "diffusion_tf_trace.csv": res_tf.loss_trace,
        "diffusion_df_trace.csv": res_df.loss_trace,
    }
    return [rep_tf, rep_df], checks, {}, traces


def _run_table2(config: ExperimentConfig):
    """AR(1) sequences at two chunk sizes: every pairing of training style
    (clean vs noisy past), distillation data (joint vs chunk-wise), and —
    for the coarse chunking — consistency-training teacher.

    At each chunk size the two velocity arms are scored in one
    trained_conditional_kl call, which integrates them at once, and the two
    generator arms in one conditional_energy_distance call."""
    seed = config.master_seed
    reports, checks, datasets, traces = [], {}, {}, {}
    for chunk_size in (1, 3):
        tag = f"c{chunk_size}"
        sub = config.with_overrides(chunk_size=chunk_size)
        dist = sub.distribution()
        grid = sub.timestep_grid()

        vel_tf = sub.chunk_models("ar-velocity", seed + 11)
        res = train_ar_diffusion_tf(dist, vel_tf, sub.train["diffusion"],
                                    seed=seed + 21)
        traces[f"diffusion_tf_{tag}_trace.csv"] = res.loss_trace
        vel_df = sub.chunk_models("ar-velocity", seed + 12)
        res = train_ar_diffusion_df(dist, vel_df, sub.train["diffusion"],
                                    seed=seed + 21)
        traces[f"diffusion_df_{tag}_trace.csv"] = res.loss_trace
        rep_tf, rep_df = trained_conditional_kl(
            [vel_tf, vel_df], dist, 2, n_prefix=10, n_samples=300, steps=48,
            seed=seed + 31,
        )
        rep_tf = _renamed(rep_tf, f"conditional_kl_tf_{tag}")
        rep_df = _renamed(rep_df, f"conditional_kl_df_{tag}")
        reports += [rep_tf, rep_df]
        checks[f"df_kl_above_tf_{tag}"] = (
            rep_df.metrics["expected_kl"].value > rep_tf.metrics["expected_kl"].value
        )

        ds_bi = sub.pairs("bidirectional")
        ds_causal = sub.pairs("causal")
        datasets[f"pairs_bidirectional_{tag}.jsonl"] = ds_bi
        datasets[f"pairs_causal_{tag}.jsonl"] = ds_causal
        asym = sub.chunk_models("generator", seed + 13)
        res = ode_distill(ds_bi, asym, sub.train["distill"], seed=seed + 22)
        traces[f"distill_asym_{tag}_trace.csv"] = res.loss_trace
        causal = sub.chunk_models("generator", seed + 14)
        res = ode_distill(ds_causal, causal, sub.train["distill"], seed=seed + 23)
        traces[f"distill_causal_{tag}_trace.csv"] = res.loss_trace
        ed_asym, ed_causal = conditional_energy_distance(
            [asym, causal], dist, grid, 2, count=1500, seed=seed + 41
        )
        reports.append(
            _scalar_report(
                f"conditional_energy_{tag}",
                {"asymmetric": ed_asym, "causal": ed_causal},
            )
        )
        checks[f"causal_energy_below_asym_{tag}"] = ed_causal < ed_asym

        if chunk_size == 3:
            cd_cfg = sub.train["cd"]
            rms = {}
            for kind in ("autoregressive", "bidirectional"):
                students = sub.chunk_models("generator", seed + 15)
                res = cd_train(dist, students, cd_cfg, seed=seed + 24,
                               grid_size=12, teacher_kind=kind)
                rep = consistency_rms(students, dist, grid, 2,
                                      count=800, steps=120, seed=seed + 51)
                rms[kind] = rep.metrics["rms_gap"].value
                label = "causal" if kind == "autoregressive" else "asym"
                traces[f"cd_{label}_{tag}_trace.csv"] = res.loss_trace
                reports.append(_renamed(rep, f"consistency_{label}_{tag}"))
            checks[f"causal_cd_below_asym_{tag}"] = (
                rms["autoregressive"] < rms["bidirectional"]
            )
    return reports, checks, datasets, traces


def _run_lemma1(config: ExperimentConfig):
    """Complement-resampling variance of the joint flow's first chunk across
    correlations, against the closed form: zero iff frames are independent."""
    seed = config.master_seed
    reports, checks = [], {}
    means = {}
    for rho in (0.0, 0.4, 0.8):
        dist = bivariate_pair(rho)
        rep = injectivity_variance(dist, 1, t=0.5, n_anchor=24, n_resample=3000,
                                   steps=96, seed=seed + 1)
        tag = f"rho{rho:.1f}".replace(".", "p")
        reports.append(_at_rho(_renamed(rep, f"injectivity_{tag}"), rho))
        mean = rep.metrics["mean_variance"].value
        oracle = rep.metrics["oracle_variance"].value
        means[rho] = mean
        if rho == 0.0:
            checks["rho0_variance_vanishes"] = mean < 1e-3
            checks["rho0_no_witnesses"] = (
                rep.metrics["positive_fraction"].value == 0.0
            )
        else:
            checks[f"{tag}_matches_oracle_10pct"] = abs(mean - oracle) <= 0.1 * oracle
            checks[f"{tag}_witness_fraction"] = (
                rep.metrics["positive_fraction"].value >= 0.9
            )
    checks["variance_monotone_in_rho"] = means[0.0] < means[0.4] < means[0.8]
    return reports, checks, {}, {}


def _run_prop2(config: ExperimentConfig):
    """Noisy-past conditional mismatch: Monte Carlo KL against the analytic
    expectation at several times, and exact zero for independent frames."""
    seed = config.master_seed
    dist = config.distribution()
    rho = float(dist.components[0].covariance[0, 1])
    reports, checks = [], {}
    for t in (0.25, 0.5, 0.75):
        rep = df_mismatch(dist, 2, t, n=1500, seed=seed + 1)
        oracle = rep.metrics["oracle_kl"].value
        tag = f"t{t:.2f}".replace(".", "p")
        reports.append(_at_rho(_renamed(rep, f"df_mismatch_{tag}"), rho))
        entry = rep.metrics["expected_kl"]
        checks[f"{tag}_matches_oracle_3se"] = (
            abs(entry.value - oracle) <= 3.0 * entry.uncertainty + 1e-9
        )
        checks[f"{tag}_oracle_positive"] = oracle > 0.0
    rep0 = df_mismatch(bivariate_pair(0.0), 2, 0.5, n=500, seed=seed + 2)
    reports.append(_at_rho(_renamed(rep0, "df_mismatch_independent"), 0.0))
    checks["independent_kl_zero"] = rep0.metrics["expected_kl"].value < 1e-12
    return reports, checks, {}, {}


def _run_d2(config: ExperimentConfig):
    """Warm-starting distribution matching from a trained denoiser head.

    On the bimodal lab data a zero-initialized one-step generator is the
    identity map, whose samples stay unimodal standard normal.  The anchored
    wrapper turns a trained denoiser head into the posterior-mean map, which
    already lands near the right mode, so distribution matching starts far
    closer and still improves from there.

    The fresh and warm arms own their generators, fake models and DMD seed
    stream, so their two dmd_train runs are shared out by models._share, at
    once where there are two CPUs, with the same bits as in turn.  Both
    arms are scored in one energy_distances call before and one after,
    outside the arms, so that each shares its row blocks among the CPUs.
    """
    dist = config.distribution()
    grid = config.timestep_grid()
    seed = config.master_seed

    vel = config.chunk_models("ar-velocity", seed + 11)
    res_vel = train_ar_diffusion_tf(dist, vel, config.train["diffusion"],
                                    seed=seed + 21)

    data = sample_clean(dist, 2000, seed + 42)

    def energy(arms):
        return energy_distances(
            [rollout(gens, grid, seed=seed + 41, count=2000) for gens in arms], data
        )

    fresh, warm = (config.chunk_models("generator", seed + 11) for _ in range(2))
    copy_head(vel, warm)
    ed0_fresh, ed0_warm = energy([fresh, warm])

    def dmd_arm(gens):
        fakes = config.chunk_models("fake-score", seed + 13)
        return dmd_train(gens, fakes, dist, grid, config.train["dmd"], seed=seed + 31)

    res_fresh, res_warm = models._share(dmd_arm, [fresh, warm])
    ed1_fresh, ed1_warm = energy([fresh, warm])
    reports = [
        _scalar_report(
            "dmd_energy",
            {
                "fresh_initial": ed0_fresh,
                "fresh_final": ed1_fresh,
                "warm_initial": ed0_warm,
                "warm_final": ed1_warm,
            },
        )
    ]
    checks = {
        "warm_start_below_fresh_start": ed0_warm < ed0_fresh,
        "dmd_improves_warm_arm": ed1_warm < ed0_warm,
        "dmd_improves_fresh_arm": ed1_fresh < ed0_fresh,
        "warm_finish_below_fresh_finish": ed1_warm < ed1_fresh,
    }
    traces = {
        "diffusion_tf_trace.csv": res_vel.loss_trace,
        "dmd_fresh_trace.csv": res_fresh.loss_trace,
        "dmd_warm_trace.csv": res_warm.loss_trace,
    }
    return reports, checks, {}, traces


def _run_d3(config: ExperimentConfig):
    """Where the gain comes from: chunk-wise training data, not student
    initialization.  Distill on chunk-wise data from two different warm
    starts — the joint-data student's weights and the denoiser head — and
    both land far below the joint-data baseline, close to each other.

    The joint half (joint pairs, then the baseline distilled on them) and
    the causal half (chunk-wise pairs, then the denoiser teacher) own their
    models and seeds, so models._share runs them at once where there are
    two CPUs, with the same bits as in turn."""
    dist = config.distribution()
    grid = config.timestep_grid()
    seed = config.master_seed

    def joint_half():
        ds_bi = config.pairs("bidirectional")
        baseline = config.chunk_models("generator", seed + 11)
        res_base = ode_distill(ds_bi, baseline, config.train["distill"],
                               seed=seed + 21)
        return ds_bi, res_base

    def causal_half():
        ds_causal = config.pairs("causal")
        vel = config.chunk_models("ar-velocity", seed + 11)
        res_vel = train_ar_diffusion_tf(dist, vel, config.train["diffusion"],
                                        seed=seed + 22)
        return ds_causal, res_vel

    (ds_bi, res_base), (ds_causal, res_vel) = models._share(
        lambda half: half(), [joint_half, causal_half]
    )
    baseline, vel = res_base.models, res_vel.models

    # warm starts are fine-tuned, not refit: an SGD pass on the chunk-wise
    # data, identical for both arms, so initialization is the only variable.
    # Both arms step in lockstep over one featurized design.
    sgd_cfg = TrainConfig(method="sgd", learning_rate=0.5,
                          step_count=1500, batch_size=256)
    labels = ("joint_init", "denoiser_init")
    students = []
    for source in (baseline, vel):
        student = config.chunk_models("generator", seed + 11)
        copy_head(source, student)
        students.append(student)

    def energy():
        scores = conditional_energy_distance(students, dist, grid, 2,
                                             count=1500, seed=seed + 41)
        return dict(zip(labels, scores))

    # the joint-init student is the baseline's feature banks and head, so
    # its starting distance is the baseline's
    starts = energy()
    ed_baseline = starts["joint_init"]
    results = ode_distill(ds_causal, students, sgd_cfg, seed=seed + 23)
    traces = {f"finetune_{label}_trace.csv": res.loss_trace
              for label, res in zip(labels, results)}
    arms = energy()

    reports = [
        _scalar_report(
            "conditional_energy",
            {
                "joint_data_baseline": ed_baseline,
                "joint_init_before": starts["joint_init"],
                "joint_init_after": arms["joint_init"],
                "denoiser_init_before": starts["denoiser_init"],
                "denoiser_init_after": arms["denoiser_init"],
            },
        )
    ]
    checks = {
        "joint_init_beats_baseline": arms["joint_init"] < 0.75 * ed_baseline,
        "denoiser_init_beats_baseline": arms["denoiser_init"] < 0.75 * ed_baseline,
        "init_choice_immaterial": abs(arms["joint_init"] - arms["denoiser_init"])
        < 0.2 * ed_baseline,
    }
    traces["distill_baseline_trace.csv"] = res_base.loss_trace
    traces["diffusion_tf_trace.csv"] = res_vel.loss_trace
    return reports, checks, {
        "pairs_bidirectional.jsonl": ds_bi,
        "pairs_causal.jsonl": ds_causal,
    }, traces


# ---------------------------------------------------------------------------
# base configs and the runner
# ---------------------------------------------------------------------------


_RIDGE = dict(method="ridge", ridge_lambda=1e-6)


def _base_config(name: str) -> ExperimentConfig:
    biv = component_tables(bivariate_pair(0.8))
    if name == "fig3-analog":
        return ExperimentConfig(
            components=biv,
            dataset_size=4096,
            solver_steps=128,
            train=_stage_train(distill=TrainConfig(**_RIDGE)),
            master_seed=1300,
        )
    if name == "fig4-analog":
        return ExperimentConfig(
            components=biv,
            train=_stage_train(
                diffusion=TrainConfig(step_count=300, batch_size=100, **_RIDGE)
            ),
            master_seed=1400,
        )
    if name == "table2-analog":
        return ExperimentConfig(
            components=component_tables(ar1_sequence(6, 0.8, 1)),
            n_frames=6,
            chunk_size=1,
            feature_count=512,
            # six scalar frames make up to 6-d model inputs; the smoother
            # kernel is what lets m=512 features cover them
            frequency_scale=0.3,
            dataset_size=1500,
            solver_steps=96,
            train=_stage_train(
                diffusion=TrainConfig(step_count=900, batch_size=100, **_RIDGE),
                distill=TrainConfig(**_RIDGE),
                cd=TrainConfig(step_count=40, batch_size=4096,
                               ema_rate=0.0, **_RIDGE),
            ),
            master_seed=2000,
        )
    if name == "lemma1-audit":
        return ExperimentConfig(components=biv, master_seed=100)
    if name == "prop2-audit":
        return ExperimentConfig(components=biv, master_seed=200)
    if name == "d2-init":
        return ExperimentConfig(
            components=component_tables(two_mode(3.0)),
            n_frames=1,
            feature_count=256,
            train=_stage_train(
                diffusion=TrainConfig(step_count=300, batch_size=100, **_RIDGE),
                dmd=TrainConfig(step_count=300, batch_size=256,
                                learning_rate=0.05, fake_update_ratio=2, **_RIDGE),
            ),
            master_seed=4200,
        )
    if name == "d3-init":
        return ExperimentConfig(
            components=biv,
            dataset_size=4096,
            solver_steps=128,
            train=_stage_train(
                diffusion=TrainConfig(step_count=300, batch_size=100, **_RIDGE),
                distill=TrainConfig(**_RIDGE),
            ),
            master_seed=4300,
        )
    raise ConfigError(f"unknown preset {name!r}; known: {PRESET_NAMES}")


_RUNNERS = {
    "fig3-analog": _run_fig3,
    "fig4-analog": _run_fig4,
    "table2-analog": _run_table2,
    "lemma1-audit": _run_lemma1,
    "prop2-audit": _run_prop2,
    "d2-init": _run_d2,
    "d3-init": _run_d3,
}


def preset_config(name: str, overrides: dict | None = None) -> ExperimentConfig:
    """The preset's base config.  master_seed is the only override it takes:
    every other field is fixed by the claim the preset checks."""
    config = _base_config(name)
    if overrides:
        ignored = sorted(set(overrides) - {"master_seed"})
        if ignored:
            raise ConfigError(
                f"preset {name!r} takes only a master_seed override, got {ignored}"
            )
        config = config.with_overrides(**overrides)
    return config


def run_preset(
    name: str, output_dir: str = "runs", overrides: dict | None = None
) -> PresetResult:
    """Run one preset end to end, write its artifacts, assert its checks.

    Artifacts land in <output_dir>/<name>/: config.json, report.csv,
    report.txt, and any ODE-pair datasets the preset built.  All files are
    written before checks are evaluated, so a failed run still leaves its
    evidence on disk; the first failed check raises PresetCheckError.
    """
    config = preset_config(name, overrides)
    reports, checks, datasets, traces = _RUNNERS[name](config)

    digest = config.digest()
    reports = [dataclasses.replace(rep, config_digest=digest) for rep in reports]
    check_report = DiagnosticsReport(name="checks", config_digest=digest)
    for check, passed in checks.items():
        check_report.add(check, 1.0 if passed else 0.0, 0.0, 1,
                         note="1 = check passed")
    reports = reports + [check_report]

    root = Path(output_dir) / name
    root.mkdir(parents=True, exist_ok=True)
    save_config(config, root / "config.json")
    for filename, dataset in datasets.items():
        save_dataset(dataset, root / filename)
    for filename, trace in traces.items():
        save_loss_trace(trace, root / filename)
    emit_report(reports, "csv", root / "report.csv")
    emit_report(reports, "structured-text", root / "report.txt")

    for check, passed in checks.items():
        if not passed:
            raise PresetCheckError(f"preset {name!r}: check failed: {check}")
    return PresetResult(name=name, config=config, reports=reports,
                        checks=checks, path=root)


def run_all_presets(output_dir: str = "runs", names=PRESET_NAMES) -> list:
    return [run_preset(name, output_dir=output_dir) for name in names]
