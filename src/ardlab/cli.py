"""Command-line interface: one verb per pipeline stage, plus presets.

Verbs: gen-data, train, distill, dmd, cd, audit, preset, report.  Every
pipeline verb accepts the same configuration flags (mirroring
ExperimentConfig fields) plus --config pointing at a JSON document; values
from the document override flags, which override built-in defaults.  Which
arm of a stage runs is no config field: each verb takes only the stage
toggles it reads (--diffusion, --ode, --cd, --init).  A preset fixes its
own config, so `preset` takes only --master-seed and --output-dir.

Exit codes: 0 success, 1 failed run-level assertion or diverged training,
2 usage or configuration error (a singular covariance or ridge normal
matrix included), 3 I/O or file-format error.

Stage seeds are fixed offsets from the master seed: pair datasets +1
(bidirectional) and +2 (causal), models +11 (fake scores +13), diffusion
+21, distillation +22, consistency +24, distribution matching +31.  The
pair datasets match every preset's by construction, since both build them
through ExperimentConfig.pairs.  The model and training seeds do not line
up with the presets': `distill` (models +11, fit +22) matches no preset arm
(fig3 draws its arms at +11/+21 and +12/+22, d3-init its baseline at
+11/+21), and `train` fits at +21 where d3-init's denoiser fits at +22.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import (
    ExperimentConfig,
    component_tables,
    named_distribution,
    read_config_document,
)
from .diagnostics import df_mismatch, injectivity_variance
from .errors import (
    ConfigError,
    DatasetFormatError,
    DivergenceError,
    GridError,
    PresetCheckError,
    SingularCovarianceError,
)
from .models import copy_head
from .presets import (
    PRESET_NAMES,
    df_mismatch_within_oracle,
    injectivity_within_oracle,
    run_all_presets,
    run_preset,
)
from .stages import (
    cd_train,
    dmd_train,
    ode_distill,
    train_ar_diffusion_df,
    train_ar_diffusion_tf,
)
from .storage import (
    emit_report,
    load_dataset,
    load_models,
    read_report_csv,
    save_dataset,
    save_loss_trace,
    save_models,
)

#: ExperimentConfig fields that every pipeline verb takes as a flag of the
#: same name (n_frames is --n-frames), typed like the field's default
CONFIG_FLAG_FIELDS = (
    "n_frames",
    "frame_dim",
    "chunk_size",
    "grid",
    "solver_steps",
    "feature_count",
    "frequency_scale",
    "dataset_size",
    "master_seed",
    "output_dir",
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH",
                       help="JSON config document; its values override flags")
    group.add_argument("--distribution", choices=("bivariate", "ar1", "two-mode"),
                       help="named lab distribution; fills components and layout")
    group.add_argument("--rho", type=float, help="bivariate correlation")
    group.add_argument("--corr", type=float, help="ar1 frame correlation")
    group.add_argument("--separation", type=float, help="two-mode mode offset")
    group.add_argument("--components", metavar="JSON",
                       help="mixture component tables as a JSON list")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for name in CONFIG_FLAG_FIELDS:
        if name == "grid":  # parsed by gather_overrides
            kwargs = dict(metavar="T1,T2,...",
                          help="few-step grid times, comma separated")
        else:
            kwargs = dict(type=type(defaults[name]))
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, **kwargs)


#: stage toggles, each a flag of only the verbs that read it
_TOGGLES = {
    "diffusion": dict(choices=("tf", "df"), default="tf"),
    "ode": dict(choices=("asymmetric-ode", "causal-ode", "none"), default="none"),
    "cd": dict(choices=("causal-cd", "asymmetric-cd", "none"), default="none"),
    "init": dict(choices=("fresh", "distilled", "denoiser"), default="fresh"),
}


def _add_toggle_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_TOGGLES[name])


def _distribution_overrides(args) -> dict:
    """Expand --distribution (+ its parameter flags) into config fields."""
    if args.distribution is None:
        return {}
    params = {}
    if args.distribution == "bivariate" and args.rho is not None:
        params["rho"] = args.rho
    if args.distribution == "ar1":
        if args.corr is not None:
            params["corr"] = args.corr
        if args.n_frames is not None:
            params["n_frames"] = args.n_frames
        if args.chunk_size is not None:
            params["chunk_size"] = args.chunk_size
    if args.distribution == "two-mode" and args.separation is not None:
        params["separation"] = args.separation
    dist = named_distribution(args.distribution, **params)
    spec = dist.spec
    return {
        "components": component_tables(dist),
        "n_frames": spec.n_frames,
        "frame_dim": spec.frame_dim,
        "chunk_size": spec.chunk_size,
    }


def gather_overrides(args) -> dict:
    """Explicitly-set flags as a config fragment (defaults stay absent)."""
    overrides = dict(_distribution_overrides(args))
    for name in CONFIG_FLAG_FIELDS:
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    if args.components is not None:
        try:
            overrides["components"] = json.loads(args.components)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--components is not valid JSON: {exc}")
    if "grid" in overrides and isinstance(overrides["grid"], str):
        try:
            overrides["grid"] = tuple(
                float(part) for part in overrides["grid"].split(",")
            )
        except ValueError:
            raise ConfigError(f"--grid must be comma-separated floats")
    if args.config is not None:
        overrides.update(read_config_document(args.config))
    return overrides


def build_config(args) -> ExperimentConfig:
    return ExperimentConfig.from_dict(gather_overrides(args))


def _out_root(config: ExperimentConfig) -> Path:
    root = Path(config.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    return root


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------


#: the pair dataset each --ode arm builds and reads
_PAIR_KINDS = {"asymmetric-ode": "bidirectional", "causal-ode": "causal"}


def _cmd_gen_data(args) -> int:
    config = build_config(args)
    if args.ode == "none":
        raise ConfigError("gen-data needs an ode stage: asymmetric-ode builds "
                          "jointly-integrated pairs, causal-ode chunk-wise ones")
    kind = _PAIR_KINDS[args.ode]
    dataset = config.pairs(kind)
    path = _out_root(config) / f"pairs_{kind}.jsonl"
    save_dataset(dataset, path)
    print(f"wrote {len(dataset.records)} pairs to {path}")
    return 0


def _cmd_train(args) -> int:
    config = build_config(args)
    dist = config.distribution()
    models = config.chunk_models("ar-velocity", config.master_seed + 11)
    trainer = train_ar_diffusion_tf if args.diffusion == "tf" else train_ar_diffusion_df
    result = trainer(dist, models, config.train["diffusion"],
                     seed=config.master_seed + 21)
    root = _out_root(config)
    save_models(models, root / "models_velocity.jsonl")
    save_loss_trace(result.loss_trace, root / "diffusion_trace.csv")
    print(f"trained {args.diffusion} denoisers; final loss "
          f"{result.loss_trace[-1]:.6g}; wrote {root / 'models_velocity.jsonl'}")
    return 0


def _dataset_path(config: ExperimentConfig, args) -> Path:
    if args.data is not None:
        return Path(args.data)
    return Path(config.output_dir) / f"pairs_{_PAIR_KINDS[args.ode]}.jsonl"


def _cmd_distill(args) -> int:
    config = build_config(args)
    if args.ode == "none":
        raise ConfigError("distill needs --ode to pick its data")
    dataset = load_dataset(_dataset_path(config, args))
    students = config.chunk_models("generator", config.master_seed + 11)
    result = ode_distill(dataset, students, config.train["distill"],
                         seed=config.master_seed + 22)
    root = _out_root(config)
    save_models(students, root / "models_generator.jsonl")
    save_loss_trace(result.loss_trace, root / "distill_trace.csv")
    print(f"distilled {args.ode} generators from "
          f"{len(dataset.records)} pairs; wrote {root / 'models_generator.jsonl'}")
    return 0


def _cmd_dmd(args) -> int:
    config = build_config(args)
    dist = config.distribution()
    grid = config.timestep_grid()
    root = _out_root(config)
    generators = config.chunk_models("generator", config.master_seed + 11)
    if args.diffusion is not None and args.init != "denoiser":
        raise ConfigError("--diffusion picks the denoiser of --init denoiser")
    if args.init == "denoiser":
        velocities = config.chunk_models("ar-velocity", config.master_seed + 11)
        trainer = (train_ar_diffusion_df if args.diffusion == "df"
                   else train_ar_diffusion_tf)
        trainer(dist, velocities, config.train["diffusion"],
                seed=config.master_seed + 21)
        copy_head(velocities, generators)
        source = "denoiser head"
    elif args.init == "distilled":
        generators = load_models(root / "models_generator.jsonl")
        source = "distilled checkpoint"
    else:
        source = "fresh (identity map)"
    fakes = config.chunk_models("fake-score", config.master_seed + 13)
    result = dmd_train(generators, fakes, dist, grid, config.train["dmd"],
                       seed=config.master_seed + 31)
    save_models(generators, root / "models_dmd.jsonl")
    save_loss_trace(result.loss_trace, root / "dmd_trace.csv")
    print(f"distribution matching from {source}; final score gap "
          f"{result.loss_trace[-1]:.6g}; wrote {root / 'models_dmd.jsonl'}")
    return 0


def _cmd_cd(args) -> int:
    config = build_config(args)
    if args.cd == "none":
        raise ConfigError("cd verb requires --cd causal-cd or asymmetric-cd")
    dist = config.distribution()
    teacher_kind = ("autoregressive" if args.cd == "causal-cd"
                    else "bidirectional")
    students = config.chunk_models("generator", config.master_seed + 11)
    result = cd_train(dist, students, config.train["cd"],
                      seed=config.master_seed + 24, grid_size=args.cd_cells,
                      teacher_kind=teacher_kind)
    root = _out_root(config)
    save_models(students, root / "models_consistency.jsonl")
    save_loss_trace(result.loss_trace, root / "cd_trace.csv")
    print(f"consistency training ({teacher_kind} teacher, {args.cd_cells} "
          f"cells); wrote {root / 'models_consistency.jsonl'}")
    return 0


def _cmd_audit(args) -> int:
    config = build_config(args)
    dist = config.distribution()
    reports = []
    failures = []
    if args.kind in ("injectivity", "both"):
        report = injectivity_variance(dist, 1, t=args.time,
                                      n_anchor=args.anchors,
                                      n_resample=args.resamples,
                                      seed=config.master_seed + 1)
        if ("oracle_variance" in report.metrics
                and not injectivity_within_oracle(report)):
            failures.append("injectivity variance off oracle (>= 1e-3 where "
                            "it is 0, else off by >10%)")
        reports.append(report)
    if args.kind in ("df-mismatch", "both"):
        report = df_mismatch(dist, 2, args.time, n=args.resamples,
                             seed=config.master_seed + 2)
        if not df_mismatch_within_oracle(report):
            failures.append("df mismatch KL off oracle by >3 standard errors")
        reports.append(report)
    digest = config.digest()
    for report in reports:
        report.config_digest = digest
    root = _out_root(config)
    emit_report(reports, "csv", root / "audit_report.csv")
    emit_report(reports, "structured-text", root / "audit_report.txt")
    print(f"wrote {root / 'audit_report.csv'}")
    for failure in failures:
        print(f"audit check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_preset(args) -> int:
    if args.name == "all":
        if args.master_seed is not None:
            raise ConfigError("preset all takes no --master-seed: each preset "
                              "has its own base seed; run presets one by one")
        results = run_all_presets(output_dir=args.output_dir)
        for result in results:
            print(f"{result.name}: {len(result.checks)} checks passed "
                  f"-> {result.path}")
        return 0
    overrides = None
    if args.master_seed is not None:
        overrides = {"master_seed": args.master_seed}
    result = run_preset(args.name, output_dir=args.output_dir,
                        overrides=overrides)
    for check in result.checks:
        print(f"{result.name}: {check}: pass")
    print(f"artifacts in {result.path}")
    return 0


def _cmd_report(args) -> int:
    reports = read_report_csv(args.path)
    ordered = [reports[name] for name in sorted(reports)]
    if args.out is not None:
        emit_report(ordered, args.format, args.out)
        print(f"wrote {args.out}")
        return 0
    for report in ordered:
        for metric in sorted(report.metrics):
            entry = report.metrics[metric]
            line = f"{report.name}.{metric} = {entry.value!r}"
            if entry.uncertainty:
                line += f" +- {entry.uncertainty!r}"
            print(line)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ardlab",
        description="Autoregressive-diffusion distillation lab: pipeline "
                    "stages, oracle audits, and preset experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-data", help="integrate and store ODE pair datasets")
    _add_config_flags(p)
    _add_toggle_flags(p, "ode")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train per-chunk denoisers (tf or df)")
    _add_config_flags(p)
    _add_toggle_flags(p, "diffusion")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("distill", help="regress few-step generators onto stored pairs")
    _add_config_flags(p)
    _add_toggle_flags(p, "ode")
    p.add_argument("--data", metavar="PATH",
                   help="pair dataset (default: the gen-data output path)")
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("dmd", help="distribution-matching generator updates")
    _add_config_flags(p)
    _add_toggle_flags(p, "init")
    # read only by --init denoiser, so it has no default of its own here
    p.add_argument("--diffusion", choices=_TOGGLES["diffusion"]["choices"])
    p.set_defaults(func=_cmd_dmd)

    p = sub.add_parser("cd", help="consistency training on a uniform grid")
    _add_config_flags(p)
    _add_toggle_flags(p, "cd")
    p.add_argument("--cd-cells", type=int, default=12,
                   help="uniform grid cell count (default 12)")
    p.set_defaults(func=_cmd_cd)

    p = sub.add_parser("audit", help="oracle-backed diagnostics with pass/fail")
    _add_config_flags(p)
    p.add_argument("--kind", choices=("injectivity", "df-mismatch", "both"),
                   default="both")
    p.add_argument("--time", type=float, default=0.5,
                   help="noise level t for the audits (default 0.5)")
    p.add_argument("--anchors", type=int, default=24)
    p.add_argument("--resamples", type=int, default=3000)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("preset", help="run a canned experiment end to end")
    p.add_argument("name", choices=PRESET_NAMES + ("all",))
    p.add_argument("--master-seed", type=int, dest="master_seed",
                   help="replaces the preset's own master seed")
    p.add_argument("--output-dir", dest="output_dir", default="runs")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("report", help="print or re-emit a stored report")
    p.add_argument("path", help="report CSV produced by another verb")
    p.add_argument("--format", choices=("csv", "structured-text"),
                   default="structured-text")
    p.add_argument("--out", metavar="PATH",
                   help="write instead of printing to stdout")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError, SingularCovarianceError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PresetCheckError, DivergenceError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except DatasetFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
