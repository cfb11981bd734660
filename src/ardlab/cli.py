"""Command-line interface: one verb per pipeline stage, plus presets.

Verbs: gen-data, train, distill, dmd, cd, audit, preset, report.  Each
pipeline verb takes --config (a JSON document whose values override flags,
which override defaults), --master-seed, --output-dir, and a flag or
document key for only the fields and train stages its body reads
(VERB_FIELDS).  Layout is n_frames, frame_dim and chunk_size; the family
flags (--distribution, --rho, --corr, --separation, --components) set
components.

  gen-data  components, layout, grid, solver_steps, dataset_size
  train     components, layout, feature_count, frequency_scale, train.diffusion
  distill   feature_count, frequency_scale, train.distill
  dmd       components, layout, grid, feature_count, frequency_scale,
            train.dmd, and train.diffusion with --init denoiser
  cd        components, layout, feature_count, frequency_scale, train.cd
  audit     components, layout

Any other field or train stage is a configuration error that names it
(exit 2), so a field a verb does not read keeps its default.  distill takes
its layout from its dataset.  Each verb takes only the stage toggles it
reads (--diffusion, --ode, --cd, --init); `preset` takes only
--master-seed and --output-dir.

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

#: the data law: mixture tables and sequence layout
LAW = ("components", "n_frames", "frame_dim", "chunk_size")
#: the model fields
MODEL = ("feature_count", "frequency_scale")
#: the fields every pipeline verb reads
COMMON_FIELDS = ("master_seed", "output_dir")

#: each pipeline verb's other fields and train stages ("train.<stage>"):
#: its config flags and the document keys it accepts
VERB_FIELDS = {
    "gen-data": (*LAW, "grid", "solver_steps", "dataset_size"),
    "train": (*LAW, *MODEL, "train.diffusion"),
    "distill": (*MODEL, "train.distill"),
    "dmd": (*LAW, "grid", *MODEL, "train.dmd", "train.diffusion"),
    "cd": (*LAW, *MODEL, "train.cd"),
    "audit": LAW,
}

#: each family parameter flag and the --distribution it belongs to
_FAMILY_PARAMS = {"rho": "bivariate", "corr": "ar1", "separation": "two-mode"}

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}

#: the fields with a flag of their own name (n_frames is --n-frames)
_FIELD_FLAGS = tuple(name for name in _DEFAULTS if name not in ("components", "train"))


class _Unread(argparse.Action):
    """A flag of a field the verb does not read: a usage error naming it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"configuration error: {parser.prog.split()[-1]} does not "
                     f"read {self.dest} ({option_string})")


def _add_config_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    reads = VERB_FIELDS[verb] + COMMON_FIELDS
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH",
                       help="JSON config document; its values override flags")
    flags = {  # the family flags set components
        "distribution": dict(choices=("bivariate", "ar1", "two-mode"),
                             help="named lab distribution; sets components, layout"),
        "rho": dict(type=float, help="bivariate correlation"),
        "corr": dict(type=float, help="ar1 frame correlation"),
        "separation": dict(type=float, help="two-mode mode offset"),
        "components": dict(metavar="JSON",
                           help="mixture component tables as a JSON list"),
    }
    for name in _FIELD_FLAGS:
        flags[name] = dict(type=type(_DEFAULTS[name]))
    # build_config parses the grid
    flags["grid"] = dict(metavar="T1,T2,...", help="few-step grid times")
    for name, kwargs in flags.items():
        field_name = name if name in _DEFAULTS else "components"
        flag = f"--{name.replace('_', '-')}"
        if field_name in reads:
            group.add_argument(flag, dest=name, **kwargs)
        else:
            parser.add_argument(flag, dest=field_name, action=_Unread,
                                default=argparse.SUPPRESS, help=argparse.SUPPRESS)


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


def _family_overrides(args) -> dict:
    """components from the family flags, and the layout from --distribution.
    A parameter flag needs its own --distribution, and --components excludes
    --distribution."""
    for name, family in _FAMILY_PARAMS.items():
        if getattr(args, name) is not None and args.distribution != family:
            raise ConfigError(f"--{name} needs --distribution {family}")
    if args.components is not None:
        if args.distribution is not None:
            raise ConfigError("--components and --distribution both set the "
                              "mixture tables; give one")
        try:
            return {"components": json.loads(args.components)}
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--components is not valid JSON: {exc}")
    if args.distribution is None:
        return {}
    params = {name: getattr(args, name) for name in _FAMILY_PARAMS}
    if args.distribution == "ar1":
        params.update(n_frames=args.n_frames, chunk_size=args.chunk_size)
    dist = named_distribution(args.distribution, **{
        name: value for name, value in params.items() if value is not None})
    spec = dist.spec
    return {"components": component_tables(dist), "n_frames": spec.n_frames,
            "frame_dim": spec.frame_dim, "chunk_size": spec.chunk_size}


def build_config(args) -> ExperimentConfig:
    """The verb's config: defaults, then its flags, then its --config
    document.  A field or train stage outside the verb's VERB_FIELDS row is
    a ConfigError that names it."""
    overrides = {}
    if "components" in VERB_FIELDS[args.verb]:
        overrides.update(_family_overrides(args))
    for name in _FIELD_FLAGS:
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if "grid" in overrides:
        try:
            overrides["grid"] = tuple(float(t) for t in overrides["grid"].split(","))
        except ValueError:
            raise ConfigError("--grid must be comma-separated floats")
    if args.config is not None:
        overrides.update(read_config_document(args.config))
    config = ExperimentConfig.from_dict(overrides)
    reads = VERB_FIELDS[args.verb] + COMMON_FIELDS
    verb = args.verb
    if verb == "dmd" and args.init != "denoiser":
        reads = tuple(name for name in reads if name != "train.diffusion")
        verb = "dmd without --init denoiser"
    names = [key for key in overrides if key != "train"]
    names += [f"train.{stage}" for stage in overrides.get("train", {})]
    unread = [name for name in names if name not in reads]
    if unread:
        raise ConfigError(f"{verb} does not read {', '.join(unread)}")
    return config


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
    students = config.chunk_models("generator", config.master_seed + 11,
                                   spec=dataset.spec)
    result = ode_distill(dataset, students, config.train["distill"],
                         seed=config.master_seed + 22)
    root = _out_root(config)
    save_models(students, root / "models_generator.jsonl")
    save_loss_trace(result.loss_trace, root / "distill_trace.csv")
    print(f"distilled {args.ode} generators from "
          f"{len(dataset.records)} pairs; wrote {root / 'models_generator.jsonl'}")
    return 0


def _cmd_dmd(args) -> int:
    if args.diffusion is not None and args.init != "denoiser":
        raise ConfigError("--diffusion picks the denoiser of --init denoiser")
    config = build_config(args)
    dist = config.distribution()
    grid = config.timestep_grid()
    root = _out_root(config)
    generators = config.chunk_models("generator", config.master_seed + 11)
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

    verbs = {}
    for verb, func, toggles, text in (
        ("gen-data", _cmd_gen_data, ("ode",), "integrate and store ODE pair datasets"),
        ("train", _cmd_train, ("diffusion",), "train per-chunk denoisers (tf or df)"),
        ("distill", _cmd_distill, ("ode",),
         "regress few-step generators onto stored pairs"),
        ("dmd", _cmd_dmd, ("init",), "distribution-matching generator updates"),
        ("cd", _cmd_cd, ("cd",), "consistency training on a uniform grid"),
        ("audit", _cmd_audit, (), "oracle-backed diagnostics with pass/fail"),
    ):
        verbs[verb] = p = sub.add_parser(verb, help=text)
        _add_config_flags(p, verb)
        _add_toggle_flags(p, *toggles)
        p.set_defaults(func=func)
    verbs["distill"].add_argument("--data", metavar="PATH",
                                  help="pair dataset (default: gen-data's output)")
    # read only by --init denoiser, so it has no default of its own here
    verbs["dmd"].add_argument("--diffusion", choices=_TOGGLES["diffusion"]["choices"])
    verbs["cd"].add_argument("--cd-cells", type=int, default=12,
                             help="uniform grid cell count (default 12)")
    p = verbs["audit"]
    p.add_argument("--kind", choices=("injectivity", "df-mismatch", "both"),
                   default="both")
    p.add_argument("--time", type=float, default=0.5,
                   help="noise level t for the audits (default 0.5)")
    p.add_argument("--anchors", type=int, default=24)
    p.add_argument("--resamples", type=int, default=3000)

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
