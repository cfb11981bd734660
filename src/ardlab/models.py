"""Random-feature linear students.

Each model maps (chunk values, clean or noisy prefix values, time) through a
fixed random cosine feature bank into a linear head.  Linearity in the head
keeps every training stage analyzable: ridge regression is exact, gradients
are feature vectors, and copying the head between roles is a valid
initialization whenever the feature banks match.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import SequenceSpec
from .errors import SingularCovarianceError

TIME_EMBED_DIM = 4

ROLES = ("generator", "ar-velocity", "fake-score")


def time_embedding(t) -> np.ndarray:
    """Smooth 4-d embedding (t, 1 - t, sin 2 pi t, cos 2 pi t)."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [t, 1.0 - t, np.sin(2.0 * np.pi * t), np.cos(2.0 * np.pi * t)], axis=-1
    )


@dataclass(frozen=True)
class FeatureSpec:
    """Random cosine feature bank over (chunk, prefix, time embedding).

    Frequencies and phases are fully determined by the seed, so two specs
    with equal fields realize identical features.
    """

    m: int
    chunk_dim: int
    prefix_dim: int
    frequency_scale: float = 1.0
    seed: int = 0
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)
    phases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one feature")
        if self.chunk_dim < 1 or self.prefix_dim < 0:
            raise ValueError("bad input dimensions")
        rng = np.random.default_rng(self.seed)
        omega = self.frequency_scale * rng.standard_normal((self.input_dim, self.m))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=self.m)
        object.__setattr__(self, "frequencies", omega)
        object.__setattr__(self, "phases", phase)

    @property
    def input_dim(self) -> int:
        return self.chunk_dim + self.prefix_dim + TIME_EMBED_DIM


def _assemble_inputs(spec: FeatureSpec, chunk, prefix, t):
    chunk = np.asarray(chunk, dtype=float)
    single = chunk.ndim == 1
    chunk = np.atleast_2d(chunk)
    n = chunk.shape[0]
    if chunk.shape[1] != spec.chunk_dim:
        raise ValueError(f"chunk rows must have {spec.chunk_dim} coordinates")
    if spec.prefix_dim == 0:
        pref = np.empty((n, 0))
    else:
        pref = np.asarray(prefix, dtype=float)
        if pref.ndim == 1:
            pref = np.broadcast_to(pref, (n, pref.size))
        if pref.shape != (n, spec.prefix_dim):
            raise ValueError(f"prefix rows must have {spec.prefix_dim} coordinates")
    emb = time_embedding(t)
    if emb.ndim == 1:
        emb = np.broadcast_to(emb, (n, TIME_EMBED_DIM))
    return np.concatenate([chunk, pref, emb], axis=1), single


# featurize works in row blocks of about this many cells (rows x m).  Both
# BLAS products of such a block, z @ omega and phi @ head, stay below the
# size at which OpenBLAS (measured on 0.3.31) hands a product to its own
# threads; those busy-wait on another CPU for ~0.1 s after every threaded
# call, which would leave the block threads no CPU to run on.
_BLOCK_CELLS = 1 << 16
# The blocks are shared among threads, up to one per CPU, so that each
# thread gets at least this many cells: d2-init, whose 2,400 calls of
# 512 x 256 are two blocks each, ran slower with them split over two threads.
_THREAD_CELLS = 1 << 18


def _row_blocks(n: int, m: int) -> list[tuple[int, int]]:
    """Row ranges of _BLOCK_CELLS cells rounded down to a multiple of 4 rows,
    and the rest.  A 1-row rest joins the block before it: a 1-row product
    goes through a BLAS vector kernel, whose last bits can differ."""
    size = max(4, _BLOCK_CELLS // m // 4 * 4)
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cos_features(spec: FeatureSpec, z, out=None) -> np.ndarray:
    # One rows x m buffer: the add, cos and scale are elementwise, so doing
    # them in place gives the same bits as the expression without temporaries.
    phi = np.matmul(z, spec.frequencies, out=out)
    phi += spec.phases
    np.cos(phi, out=phi)
    phi *= np.sqrt(2.0 / spec.m)
    return phi


def featurize(spec: FeatureSpec, chunk, prefix, t, head=None) -> np.ndarray:
    """Feature rows sqrt(2/m) cos(<omega_j, z> + b_j); bounded by sqrt(2/m).

    With `head` (m x k) it returns the head output phi @ head instead,
    holding one row block's features at a time.  The batch is computed in
    row blocks of about _BLOCK_CELLS cells, each into its own output rows;
    the calling thread shares them with up to one started thread per further
    CPU, so that each thread gets at least _THREAD_CELLS cells.  A row's
    features have the same bits in any batch of two or more rows.
    """
    z, single = _assemble_inputs(spec, chunk, prefix, t)
    n = z.shape[0]
    out = np.empty((n, spec.m if head is None else head.shape[1]))
    errors = []

    def run(blocks):
        try:
            for a, b in blocks:
                if head is None:
                    _cos_features(spec, z[a:b], out[a:b])
                else:
                    np.matmul(_cos_features(spec, z[a:b]), head, out=out[a:b])
        except BaseException as exc:
            errors.append(exc)

    blocks = _row_blocks(n, spec.m)
    workers = max(1, min(_cpu_count(), n * spec.m // _THREAD_CELLS))
    threads = [
        threading.Thread(target=run, args=(blocks[i::workers],))
        for i in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    run(blocks[::workers])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out[0] if single else out


@dataclass
class LinearStudent:
    """Linear head over a fixed feature bank.

    `parameterization` selects how the model is read out as a clean-chunk
    generator: "direct" returns the head output itself, "anchored" returns
    chunk - t * head(chunk, prefix, t), which is the identity at t = 0 by
    construction.
    """

    features: FeatureSpec
    theta: np.ndarray
    role: str = "generator"
    parameterization: str = "direct"

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != self.features.m:
            raise ValueError("theta must have shape (m, output_dim)")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.parameterization not in ("direct", "anchored"):
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        self.theta = theta

    @property
    def output_dim(self) -> int:
        return self.theta.shape[1]


def build_student(
    m: int,
    chunk_dim: int,
    prefix_dim: int,
    role: str,
    seed: int = 0,
    frequency_scale: float = 1.0,
    parameterization: str = "direct",
) -> LinearStudent:
    spec = FeatureSpec(
        m=m,
        chunk_dim=chunk_dim,
        prefix_dim=prefix_dim,
        frequency_scale=frequency_scale,
        seed=seed,
    )
    return LinearStudent(
        features=spec,
        theta=np.zeros((m, chunk_dim)),
        role=role,
        parameterization=parameterization,
    )


def predict(model: LinearStudent, chunk, prefix, t) -> np.ndarray:
    """Raw head output theta^T phi(chunk, prefix, t)."""
    return featurize(model.features, chunk, prefix, t, head=model.theta)


def predict_x0(model: LinearStudent, chunk, prefix, t) -> np.ndarray:
    """Clean-chunk readout under the model's parameterization."""
    out = predict(model, chunk, prefix, t)
    if model.parameterization == "anchored":
        chunk = np.asarray(chunk, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if out.ndim == 2 and t_arr.ndim == 1:
            t_arr = t_arr[:, None]
        return chunk - t_arr * out
    return out


def fit_ridge(
    features: np.ndarray, targets: np.ndarray, ridge_lambda: float
) -> np.ndarray:
    """Closed-form ridge solution (Phi^T Phi + lambda I)^-1 Phi^T Y.

    Raises SingularCovarianceError when the normal matrix is not positive
    definite, which is how a lambda = 0 fit on a rank-deficient design fails.
    """
    phi = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if phi.shape[0] != y.shape[0]:
        raise ValueError("feature and target row counts differ")
    if ridge_lambda < 0.0:
        raise ValueError("ridge_lambda must be nonnegative")
    gram = phi.T @ phi + ridge_lambda * np.eye(phi.shape[1])
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            "normal matrix is singular; increase ridge_lambda"
        ) from exc
    return np.linalg.solve(gram, phi.T @ y)


def sgd_step(model: LinearStudent, gradient: np.ndarray, learning_rate: float) -> LinearStudent:
    """One plain gradient step on the head; returns the updated model."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != model.theta.shape:
        raise ValueError("gradient shape must match theta")
    if not np.all(np.isfinite(gradient)):
        raise ValueError("non-finite gradient")
    return replace(model, theta=model.theta - learning_rate * gradient)


def ema_update(theta_minus: np.ndarray, theta: np.ndarray, rate: float) -> np.ndarray:
    """Exponential moving average theta_minus <- rate * theta_minus + (1 - rate) * theta."""
    if not (0.0 <= rate < 1.0):
        raise ValueError("ema rate must lie in [0, 1)")
    return rate * np.asarray(theta_minus, dtype=float) + (1.0 - rate) * np.asarray(
        theta, dtype=float
    )


@dataclass
class TrainConfig:
    """Knobs shared by the training stages.

    `method` picks how every head update is made (see update_head): a
    closed-form ridge fit over a sampled design ("ridge") or one plain
    minibatch gradient step ("sgd").  The design size of a ridge stage is
    step_count * batch_size, so budgets stay comparable across methods.
    """

    learning_rate: float = 0.1
    step_count: int = 1000
    batch_size: int = 128
    ridge_lambda: float = 1e-6
    ema_rate: float = 0.99
    fake_update_ratio: int = 5
    method: str = "ridge"

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.step_count < 1 or self.batch_size < 1:
            raise ValueError("step_count and batch_size must be positive")
        if self.ridge_lambda < 0.0:
            raise ValueError("ridge_lambda must be nonnegative")
        if not (0.0 <= self.ema_rate < 1.0):
            raise ValueError("ema_rate must lie in [0, 1)")
        if self.fake_update_ratio < 1:
            raise ValueError("fake_update_ratio must be >= 1")
        if self.method not in ("ridge", "sgd"):
            raise ValueError(f"unknown method {self.method!r}")


def head_residual(theta, phi, target, anchor=None) -> np.ndarray:
    """Readout minus target for a head theta over feature rows phi.

    The readout is phi @ theta, or chunk - t * (phi @ theta) when
    anchor = (chunk, t) with one time per row.
    """
    out = phi @ theta
    if anchor is not None:
        chunk, t = anchor
        out = chunk - t[:, None] * out
    return out - target


def update_head(
    model: LinearStudent, phi, target, cfg: TrainConfig, anchor=None, resid=None
) -> LinearStudent:
    """Fit the head's readout (see head_residual) to target by cfg.method.

    "ridge" returns the closed-form fit, which for the anchored readout
    scales the rows by t and regresses onto chunk - target.  "sgd" takes one
    step on mean |residual|^2, whose gradient is (2/n) Phi^T r, negated and
    with rows scaled by t for the anchored readout; pass `resid` when the
    current residual is already at hand.
    """
    if cfg.method == "ridge":
        if anchor is None:
            theta = fit_ridge(phi, target, cfg.ridge_lambda)
        else:
            chunk, t = anchor
            theta = fit_ridge(phi * t[:, None], chunk - target, cfg.ridge_lambda)
        return replace(model, theta=theta)
    if resid is None:
        resid = head_residual(model.theta, phi, target, anchor)
    n = phi.shape[0]
    if anchor is None:
        grad = (2.0 / n) * phi.T @ resid
    else:
        t = anchor[1]
        grad = -(2.0 / n) * (phi * t[:, None]).T @ resid
    return sgd_step(model, grad, cfg.learning_rate)


@dataclass
class ChunkModelSet:
    """One student per chunk index; chunk i never sees chunks at or after i.

    Causal masking is structural: the chunk-i member's feature bank only
    accepts (i - 1) chunks of prefix input.
    """

    seq_spec: SequenceSpec
    role: str
    members: tuple[LinearStudent, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if len(self.members) != self.seq_spec.n_chunks:
            raise ValueError("need exactly one member per chunk")
        for i, member in enumerate(self.members, start=1):
            if member.role != self.role:
                raise ValueError(
                    f"member {i} has role {member.role!r}, not the set's {self.role!r}"
                )
            if member.features.chunk_dim != self.seq_spec.chunk_dim:
                raise ValueError(f"member {i} has the wrong chunk width")
            if member.features.prefix_dim != self.seq_spec.prefix_dim(i):
                raise ValueError(f"member {i} has the wrong prefix width")
        self.members = tuple(self.members)

    def member(self, i: int) -> LinearStudent:
        return self.members[i - 1]

    def replace_member(self, i: int, model: LinearStudent) -> None:
        members = list(self.members)
        members[i - 1] = model
        self.members = tuple(members)

    @property
    def parameterization(self) -> str:
        return self.members[0].parameterization


def member_seed(base_seed: int, chunk_index: int) -> int:
    """Per-chunk feature seed; depends only on (base_seed, chunk), not role,
    so models built for different roles from one base share feature banks."""
    return int(np.random.SeedSequence([base_seed, chunk_index]).generate_state(1)[0])


def make_chunk_models(
    seq_spec: SequenceSpec,
    role: str,
    m: int,
    seed: int = 0,
    frequency_scale: float = 1.0,
    parameterization: str = "direct",
) -> ChunkModelSet:
    members = tuple(
        build_student(
            m=m,
            chunk_dim=seq_spec.chunk_dim,
            prefix_dim=seq_spec.prefix_dim(i),
            role=role,
            seed=member_seed(seed, i),
            frequency_scale=frequency_scale,
            parameterization=parameterization,
        )
        for i in range(1, seq_spec.n_chunks + 1)
    )
    return ChunkModelSet(seq_spec=seq_spec, role=role, members=members)


def copy_head(source: ChunkModelSet, target: ChunkModelSet) -> None:
    """Initialize target's heads from source's; feature banks must match."""
    for i in range(1, source.seq_spec.n_chunks + 1):
        src = source.member(i)
        dst = target.member(i)
        if src.features != dst.features:
            raise ValueError(
                f"chunk {i}: feature banks differ, head copy is not meaningful"
            )
        target.replace_member(i, replace(dst, theta=src.theta.copy()))
