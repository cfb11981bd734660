"""Experiment configuration: lab distributions, digests, run parts.

An ExperimentConfig is a single JSON-serializable description of a run: the
data distribution as explicit mixture tables, the sequence layout, the
few-step sampling grid, per-stage training settings, the master seed, and
where outputs go.  Which arm of a stage runs is not part of it: each CLI
verb takes that as its own flag.  Named constructors build the stock lab
distributions; everything else flows through the numeric tables so a config
file alone reproduces a run.  The presets and the CLI verbs build their
model sets (chunk_models) and ODE pair datasets (pairs) through the config,
so both routes wire a run the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .distributions import GaussianComponent, SequenceDistribution, SequenceSpec
from .errors import ConfigError
from .models import ChunkModelSet, TrainConfig, check_numbers, make_chunk_models
from .ode import (
    DATASET_STEPS,
    DEFAULT_GRID,
    PairDataset,
    TimestepGrid,
    make_pairs_bi,
    make_pairs_causal,
)

#: stages that carry their own TrainConfig
TRAIN_STAGES = ("diffusion", "distill", "dmd", "cd")


# ---------------------------------------------------------------------------
# named lab distributions
# ---------------------------------------------------------------------------


def bivariate_pair(rho: float = 0.8) -> SequenceDistribution:
    """Two scalar frames, one per chunk, with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"rho must lie strictly inside (-1, 1), got {rho}")
    spec = SequenceSpec(n_frames=2, frame_dim=1, chunk_size=1)
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return SequenceDistribution(spec, (GaussianComponent(1.0, np.zeros(2), cov),))


def ar1_sequence(
    n_frames: int = 6, corr: float = 0.8, chunk_size: int = 1
) -> SequenceDistribution:
    """AR(1)-structured Gaussian: unit-variance frames, corr^|i-j| covariance.

    chunk_size groups successive frames into the chunks the models operate
    on, so the same distribution serves frame-wise (1) and chunk-wise (3)
    pipelines.
    """
    if not -1.0 < corr < 1.0:
        raise ConfigError(f"corr must lie strictly inside (-1, 1), got {corr}")
    idx = np.arange(n_frames)
    cov = float(corr) ** np.abs(idx[:, None] - idx[None, :])
    spec = SequenceSpec(n_frames=n_frames, frame_dim=1, chunk_size=chunk_size)
    return SequenceDistribution(
        spec, (GaussianComponent(1.0, np.zeros(n_frames), cov),)
    )


def two_mode(separation: float = 3.0) -> SequenceDistribution:
    """One scalar frame: equal-weight unit-variance modes at +-separation."""
    spec = SequenceSpec(n_frames=1, frame_dim=1, chunk_size=1)
    comps = (
        GaussianComponent(0.5, np.array([-separation]), np.eye(1)),
        GaussianComponent(0.5, np.array([+separation]), np.eye(1)),
    )
    return SequenceDistribution(spec, comps)


_NAMED_DISTRIBUTIONS = {
    "bivariate": bivariate_pair,
    "ar1": ar1_sequence,
    "two-mode": two_mode,
}


def named_distribution(name: str, **params) -> SequenceDistribution:
    if name not in _NAMED_DISTRIBUTIONS:
        known = ", ".join(sorted(_NAMED_DISTRIBUTIONS))
        raise ConfigError(f"unknown distribution {name!r} (known: {known})")
    try:
        return _NAMED_DISTRIBUTIONS[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for distribution {name!r}: {exc}")


def component_tables(dist: SequenceDistribution) -> tuple:
    """Mixture components as plain nested lists (JSON-ready)."""
    return tuple(
        {
            "weight": float(c.weight),
            "mean": c.mean.tolist(),
            "covariance": c.covariance.tolist(),
        }
        for c in dist.components
    )


# ---------------------------------------------------------------------------
# the experiment config
# ---------------------------------------------------------------------------


def _default_tables() -> tuple:
    return component_tables(bivariate_pair(0.8))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run needs, in JSON-friendly form.

    The distribution is stored as explicit mixture tables plus the sequence
    layout fields.  `train` maps each of TRAIN_STAGES to its TrainConfig; a
    stage the table leaves out gets TrainConfig().
    """

    components: tuple = field(default_factory=_default_tables)
    n_frames: int = 2
    frame_dim: int = 1
    chunk_size: int = 1
    grid: tuple = DEFAULT_GRID
    solver_steps: int = DATASET_STEPS
    train: dict = field(default_factory=dict)
    feature_count: int = 512
    frequency_scale: float = 1.0
    dataset_size: int = 4096
    master_seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        check_numbers(
            self,
            ints=("n_frames", "frame_dim", "chunk_size", "solver_steps",
                    "feature_count", "dataset_size", "master_seed"),
            reals=("frequency_scale",),
        )
        if self.solver_steps < 1:
            raise ConfigError("solver_steps must be positive")
        if self.feature_count < 1:
            raise ConfigError("feature_count must be positive")
        if self.dataset_size < 1:
            raise ConfigError("dataset_size must be positive")
        if any(isinstance(t, bool) or not isinstance(t, (int, float))
               for t in self.grid):
            raise ConfigError(f"grid times must be numbers, got {self.grid!r}")
        object.__setattr__(self, "grid", tuple(float(t) for t in self.grid))
        TimestepGrid(self.grid)  # validates ordering/range
        if not isinstance(self.components, (list, tuple)):
            raise ConfigError(
                f"components must be a list of mixture tables, got {self.components!r}"
            )
        object.__setattr__(self, "components", tuple(self.components))
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        extra = [name for name in self.train if name not in TRAIN_STAGES]
        if extra:
            raise ConfigError(f"train settings for unknown stages: {extra}")
        object.__setattr__(self, "train", {
            name: self.train.get(name, TrainConfig()) for name in TRAIN_STAGES
        })
        # fail early on malformed tables rather than at pipeline time
        self.distribution()

    def sequence_spec(self) -> SequenceSpec:
        try:
            return SequenceSpec(
                n_frames=self.n_frames,
                frame_dim=self.frame_dim,
                chunk_size=self.chunk_size,
            )
        except ValueError as exc:
            raise ConfigError(f"bad sequence layout: {exc}")

    def distribution(self) -> SequenceDistribution:
        spec = self.sequence_spec()
        comps = []
        for row in self.components:
            if not isinstance(row, dict):
                raise ConfigError(f"a mixture component must be an object, got {row!r}")
            extra = set(row) - {"weight", "mean", "covariance"}
            if extra:
                raise ConfigError(f"unknown component fields: {sorted(extra)}")
            try:
                comps.append(
                    GaussianComponent(
                        float(row["weight"]),
                        np.asarray(row["mean"], dtype=float),
                        np.asarray(row["covariance"], dtype=float),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad mixture component: {exc}")
        try:
            return SequenceDistribution(spec, tuple(comps))
        except ValueError as exc:
            raise ConfigError(f"bad mixture tables: {exc}")

    def timestep_grid(self) -> TimestepGrid:
        return TimestepGrid(self.grid)

    def chunk_models(self, role: str, seed: int,
                     spec: SequenceSpec | None = None) -> ChunkModelSet:
        """A fresh model set of the given role on spec, by default this
        run's layout (a stored dataset brings its own).  A fake score gets
        half the features (at least 32); every other role gets
        feature_count."""
        m = self.feature_count
        if role == "fake-score":
            m = max(32, m // 2)
        if spec is None:
            spec = self.sequence_spec()
        return make_chunk_models(spec, role, m, seed,
                                 frequency_scale=self.frequency_scale)

    def pairs(self, kind: str) -> PairDataset:
        """This run's ODE pair dataset: "bidirectional" integrates the joint
        flow (seed master_seed + 1), "causal" the exact chunk-wise
        conditional flows (seed master_seed + 2)."""
        # the builders are looked up by name at each call, so whatever this
        # module's names are bound to then (a profiler's wrapper) runs
        if kind == "bidirectional":
            build, offset = make_pairs_bi, 1
        elif kind == "causal":
            build, offset = make_pairs_causal, 2
        else:
            raise ValueError(f"unknown pair kind {kind!r}; known: bidirectional, causal")
        return build(self.distribution(), self.timestep_grid(),
                     count=self.dataset_size, steps=self.solver_steps,
                     seed=self.master_seed + offset)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["components"] = [dict(row) for row in self.components]
        out["grid"] = list(self.grid)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        data = dict(raw)
        if "train" in data:
            if not isinstance(data["train"], dict):
                raise ConfigError("train must map stage names to settings")
            train = {}
            for name, sub in data["train"].items():
                if name not in TRAIN_STAGES:
                    raise ConfigError(f"train settings for unknown stage {name!r}")
                train[name] = _train_config_from_dict(sub)
            data["train"] = train
        if "grid" in data:
            if not isinstance(data["grid"], (list, tuple)):
                raise ConfigError("grid must be a list of times")
            data["grid"] = tuple(data["grid"])
        return cls(**data)

    def digest(self) -> str:
        """12-hex-digit fingerprint of the canonical JSON form."""
        encoded = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()[:12]

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


def _train_config_from_dict(raw: dict) -> TrainConfig:
    if not isinstance(raw, dict):
        raise ConfigError("stage train settings must be a JSON object")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown train keys: {sorted(extra)}")
    try:
        return TrainConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train settings: {exc}")


def read_config_document(path) -> dict:
    """The JSON object a config file holds, its keys not yet checked.  A file
    that is not JSON, or holds no object, is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file.  Parse or schema problems are ConfigError."""
    return ExperimentConfig.from_dict(read_config_document(path))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
