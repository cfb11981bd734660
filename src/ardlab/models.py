"""Random-feature linear students.

Each model maps (chunk values, clean or noisy prefix values, time) through a
fixed random cosine feature bank into a linear head.  Linearity in the head
keeps every training stage analyzable: ridge regression is exact, gradients
are feature vectors, and copying the head between roles is a valid
initialization whenever the feature banks match.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import SequenceSpec
from .errors import ConfigError, SingularCovarianceError

TIME_EMBED_DIM = 4

#: the readout each role's head enters: an ar-velocity head is the velocity
#: itself, and a generator or fake-score head enters the anchored readout
#: chunk - t * head(chunk, prefix, t) (see predict_x0), which is the
#: identity at t = 0 by construction
ROLE_READOUT = {"generator": "anchored", "ar-velocity": "direct",
                "fake-score": "anchored"}
ROLES = tuple(ROLE_READOUT)


def _time_column(t) -> np.ndarray:
    """A scalar time as a 0-d array, one time per row as a column (B, 1):
    either way it broadcasts against rows (B, d)."""
    t = np.asarray(t, dtype=float)
    return t[:, None] if t.ndim == 1 else t


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


# featurize works in row blocks of about this many cells (rows x m): 512 KiB
# of features, the unit its threads share out, and with a head all that it
# holds of a batch's features at a time.  Each block's BLAS products run on
# one thread (_pin_blas_threads), so the threads of _share are the only
# parallelism.
_BLOCK_CELLS = 1 << 16
# _share gives each thread at least this many cells of a blocked call; a
# smaller call runs in the calling thread alone.  Splitting trades CPU for
# wall time: d2-init's 2,400 featurize calls of 512 x 256, two blocks each,
# took 2.3 ms of wall and 3.9 ms of CPU per call split over two CPUs,
# against 3.1 ms of both on one.
_THREAD_CELLS = 1 << 18


# normal_equations sums its Gram and cross products over row blocks of this
# many cells (8 MiB of features at any m).  A full block is large enough for
# featurize to share among threads; its products are then taken in the
# calling thread, so the sums are added in block order whatever the CPU
# count.
_NORMAL_CELLS = 1 << 20


def _row_blocks(n: int, m: int, cells: int = _BLOCK_CELLS) -> list[tuple[int, int]]:
    """Row ranges of `cells` cells rounded down to a multiple of 4 rows, and
    the rest.  A 1-row rest joins the block before it: a 1-row product goes
    through a BLAS vector kernel, whose last bits can differ."""
    size = max(4, cells // m // 4 * 4)
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Set in each thread while it runs the items of a _share call with two or
# more threads.
_sharing = threading.local()


def _share(fn, items, cells=None) -> list:
    """[fn(item) for item in items], the items shared among up to one thread
    per CPU.

    With w threads, the calling thread takes items 0, w, 2w, ... and
    started thread j items j, j + w, ...; so with w = 1 no thread is
    started.  w is at most _cpu_count() and the item count, and for a call
    of `cells` cells at most one per _THREAD_CELLS of them, so a small call
    starts none: each featurize call inside d2-init's two DMD arms is one.
    A call made from inside an item of a call with w >= 2 has w = 1, so
    nested calls start no thread and there are never more threads than
    CPUs: the featurize calls inside trained_conditional_kl's arms, each
    arm one item, run in their arm's thread.  Each thread stops at its first failing item.  Every started
    thread is joined, also when the calling thread's items raise; then the
    first failing item's exception, in item order, is raised.  Items must
    share nothing they write.
    """
    workers = max(1, min(_cpu_count(), len(items)))
    if cells is not None:
        workers = max(1, min(workers, cells // _THREAD_CELLS))
    nested = getattr(_sharing, "active", False)
    if nested:
        workers = 1
    results, errors = [None] * len(items), [None] * len(items)

    def run(first):
        # threads are started only when not nested, so every thread that
        # runs items returns to the calling thread's state
        _sharing.active = nested or workers > 1
        try:
            for i in range(first, len(items), workers):
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    errors[i] = exc
                    return
        finally:
            _sharing.active = nested

    started = []
    try:
        for j in range(1, workers):
            # each thread runs in its own copy of the caller's context, so
            # the items see the caller's numpy error state (np.errstate)
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, j))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


_OPENBLAS_SIGNATURES = {
    "set_num_threads": ([ctypes.c_int], None),
    "get_num_threads": ([], ctypes.c_int),
}


def _openblas_function(name: str):
    """OpenBLAS's openblas_<name> (a key of _OPENBLAS_SIGNATURES) in the copy
    numpy already loaded, or None where numpy's BLAS is not OpenBLAS.

    The lookup goes through numpy's LAPACK extension, opened with
    RTLD_NOLOAD so that no library is loaded anew, and so reaches whatever
    OpenBLAS it links: numpy's wheels export scipy_openblas_<name>64_.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                fn.argtypes, fn.restype = _OPENBLAS_SIGNATURES[name]
                return fn
    return None


def _pin_blas_threads() -> None:
    """Hold numpy's OpenBLAS to one thread, so that the threads of _share
    (featurize's and energy_distance's row blocks, d2-init's two DMD arms,
    d3-init's joint and causal halves, trained_conditional_kl's arms) are
    the only parallelism in the package.

    A call that OpenBLAS splits over its own threads leaves them spinning on
    the other CPUs for about 0.1 s, taking the CPU featurize's threads and
    the next small fit would use, and where it splits depends on the CPU
    count, which moves the last bits of the ridge fits.  Other BLAS builds
    (MKL, Accelerate) are left as they are.
    """
    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter(1)


_pin_blas_threads()


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
    row blocks of about _BLOCK_CELLS cells, each into its own output rows,
    shared among threads by _share.  A row's features have the same bits in
    any batch of two or more rows.
    """
    z, single = _assemble_inputs(spec, chunk, prefix, t)
    n = z.shape[0]
    out = np.empty((n, spec.m if head is None else head.shape[1]))

    def block(rows):
        a, b = rows
        if head is None:
            _cos_features(spec, z[a:b], out[a:b])
        else:
            np.matmul(_cos_features(spec, z[a:b]), head, out=out[a:b])

    _share(block, _row_blocks(n, spec.m), cells=n * spec.m)
    return out[0] if single else out


@dataclass
class LinearStudent:
    """Linear head over a fixed feature bank.  Its meaning is the role of
    the ChunkModelSet that holds it (see ROLE_READOUT)."""

    features: FeatureSpec
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != self.features.m:
            raise ValueError("theta must have shape (m, output_dim)")
        self.theta = theta


def predict(model: LinearStudent, chunk, prefix, t) -> np.ndarray:
    """Raw head output theta^T phi(chunk, prefix, t)."""
    return featurize(model.features, chunk, prefix, t, head=model.theta)


def _blocked_head_output(phi: np.ndarray, head: np.ndarray) -> np.ndarray:
    """phi @ head taken over featurize's row blocks, so that it has the bits
    of featurize(..., head=head) on the same rows: one product over the
    whole batch can round differently."""
    out = np.empty((phi.shape[0], head.shape[1]))
    for a, b in _row_blocks(phi.shape[0], phi.shape[1]):
        np.matmul(phi[a:b], head, out=out[a:b])
    return out


def predict_x0(model: LinearStudent, chunk, prefix, t, phi=None) -> np.ndarray:
    """Clean-chunk readout chunk - t * head(chunk, prefix, t); for a
    velocity head, the x0 estimate x - t * v.

    Pass `phi`, the feature rows of a batch (chunk, prefix, t), when they
    are already at hand: the readout then has the same bits without
    featurizing again.
    """
    if phi is None:
        out = predict(model, chunk, prefix, t)
    else:
        out = _blocked_head_output(phi, model.theta)
    return np.asarray(chunk, dtype=float) - _time_column(t) * out


def normal_equations(spec: FeatureSpec, chunk, prefix, t, target, scale=None):
    """Sums (G, c, yy) for the least-squares fit of target on the rows of S Phi.

    Phi holds the feature rows of (chunk, prefix, t), one per chunk row, and
    S scales row r by scale[r] (a scalar scales every row; None scales
    none).  Returns G = (S Phi)^T (S Phi), c = (S Phi)^T Y and yy = |Y|^2.
    They are summed in block order over row blocks of about _NORMAL_CELLS
    cells, each featurized, scaled in place and multiplied out in the
    calling thread, so no more than one block's features exist at a time.
    The products run on one BLAS thread (_pin_blas_threads), so the bits do
    not depend on the number of CPUs.  t and scale may be scalars or per
    row, prefix one shared row or one per chunk row.
    """
    chunk = np.asarray(chunk, dtype=float)
    y = np.asarray(target, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if chunk.ndim != 2 or y.ndim != 2 or y.shape[0] != chunk.shape[0]:
        raise ValueError("chunk and target need one row per design row")
    t = np.asarray(t, dtype=float)
    if prefix is not None:
        prefix = np.asarray(prefix, dtype=float)
    if scale is not None:
        scale = np.asarray(scale, dtype=float)

    def rows(values, per_row_ndim, a, b):
        if values is None or values.ndim != per_row_ndim:
            return values
        return values[a:b]

    gram = np.zeros((spec.m, spec.m))
    cross = np.zeros((spec.m, y.shape[1]))
    yy = 0.0
    for a, b in _row_blocks(chunk.shape[0], spec.m, _NORMAL_CELLS):
        phi = featurize(spec, chunk[a:b], rows(prefix, 2, a, b), rows(t, 1, a, b))
        s = rows(scale, 1, a, b)
        if s is not None:
            phi *= s[:, None] if s.ndim == 1 else s
        gram += phi.T @ phi
        cross += phi.T @ y[a:b]
        yy += float(np.sum(y[a:b] ** 2))
    return gram, cross, yy


def fit_ridge(gram, cross, ridge_lambda: float, readings=None) -> np.ndarray:
    """Ridge solution (G + lambda I)^-1 c from the normal equations
    G = Phi^T Phi, c = Phi^T Y (see normal_equations).

    Raises SingularCovarianceError when G + lambda I is not positive
    definite, which is how a lambda = 0 fit on a rank-deficient design fails.
    With a dict `readings` it also records the smallest and largest diagonal
    entry of that matrix's Cholesky factor as chol_diag_min and
    chol_diag_max: the squares lie between its extreme eigenvalues, so their
    ratio bounds its condition number from below.
    """
    gram = np.asarray(gram, dtype=float)
    cross = np.asarray(cross, dtype=float)
    if cross.ndim == 1:
        cross = cross[:, None]
    m = gram.shape[0]
    if gram.shape != (m, m) or cross.shape[0] != m:
        raise ValueError("need an m x m Gram matrix and m rows of cross products")
    if ridge_lambda < 0.0:
        raise ValueError("ridge_lambda must be nonnegative")
    normal = gram + ridge_lambda * np.eye(m)
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            "normal matrix is singular; increase ridge_lambda"
        ) from exc
    if readings is not None:
        pivots = np.diagonal(factor)
        readings["chol_diag_min"] = float(pivots.min())
        readings["chol_diag_max"] = float(pivots.max())
    return np.linalg.solve(normal, cross)


def residual_sse(theta, normal) -> float:
    """|S Phi theta - Y|^2 from normal_equations' sums (G, c, yy):
    sum_k (theta_k^T G theta_k - 2 theta_k^T c_k) + yy."""
    gram, cross, yy = normal
    return float(np.sum(theta * (gram @ theta - 2.0 * cross))) + yy


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


def check_numbers(obj, ints=(), reals=()) -> None:
    """ConfigError unless every named int field of obj holds an int and
    every named real field a finite int or float; a bool is neither."""
    for name in ints:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class TrainConfig:
    """Knobs shared by the training stages.

    `method` picks how every head update is made: a closed-form ridge fit
    over a sampled design ("ridge", see fit_head) or one plain minibatch
    gradient step ("sgd", see update_head).  A ridge velocity fit draws a
    design of step_count * batch_size rows, so budgets stay comparable
    across methods; docs/config_schema.md says which stage reads which key.
    """

    learning_rate: float = 0.1
    step_count: int = 1000
    batch_size: int = 128
    ridge_lambda: float = 1e-6
    ema_rate: float = 0.99
    fake_update_ratio: int = 5
    method: str = "ridge"

    def __post_init__(self):
        check_numbers(
            self,
            ints=("step_count", "batch_size", "fake_update_ratio"),
            reals=("learning_rate", "ridge_lambda", "ema_rate"),
        )
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


RIDGE_READINGS = (
    "chol_diag_min", "chol_diag_max", "theta_abs_max", "relative_residual"
)


def fit_head(model: LinearStudent, normal, ridge_lambda: float):
    """Closed-form ridge fit of the head from normal_equations' (G, c, yy).

    For the anchored readout chunk - t * head, the sums are taken with rows
    scaled by t and target chunk - x0: the same least-squares problem as
    matching the readout to x0.  Returns the fitted model and its readings:
    fit_ridge's two Cholesky readings, theta_abs_max = max |theta|, sse =
    the fit's |S Phi theta - Y|^2 (residual_sse) and relative_residual =
    sse / yy.
    """
    gram, cross, yy = normal
    readings = {}
    theta = fit_ridge(gram, cross, ridge_lambda, readings)
    sse = residual_sse(theta, normal)
    readings["theta_abs_max"] = float(np.abs(theta).max())
    readings["sse"] = sse
    readings["relative_residual"] = sse / yy if yy > 0.0 else 0.0
    return replace(model, theta=theta), readings


def head_gradient(phi, resid, t=None) -> np.ndarray:
    """Gradient of mean |residual|^2 over feature rows phi (n x m) with
    respect to the head, from the residual r (n x k): (2/n) Phi^T r, or
    -(2/n) Phi^T (t r) with r's rows scaled by t (one time per row) for the
    anchored readout.  The product is taken before the scale, so no n x m
    copy of phi is made."""
    n = phi.shape[0]
    if t is None:
        return (2.0 / n) * (phi.T @ resid)
    return -(2.0 / n) * (phi.T @ (t[:, None] * resid))


def update_head(
    model: LinearStudent, phi, target, cfg: TrainConfig, anchor=None, resid=None
) -> LinearStudent:
    """One SGD step on mean |residual|^2 of the head's readout (see
    head_residual) over feature rows phi, along head_gradient.

    Pass `resid` when the current residual is already at hand.  Ridge fits
    do not come through here: they go through normal_equations and
    fit_head, which never hold a whole design's rows.
    """
    if resid is None:
        resid = head_residual(model.theta, phi, target, anchor)
    t = None if anchor is None else anchor[1]
    return sgd_step(model, head_gradient(phi, resid, t), cfg.learning_rate)


@dataclass
class ChunkModelSet:
    """One student per chunk index; chunk i never sees chunks at or after i.

    Causal masking is structural: the chunk-i member's feature bank only
    accepts (i - 1) chunks of prefix input.  The set's role says how every
    member's head is read out (ROLE_READOUT).
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
            if member.features.chunk_dim != self.seq_spec.chunk_dim:
                raise ValueError(f"member {i} has the wrong chunk width")
            if member.features.prefix_dim != self.seq_spec.prefix_dim(i):
                raise ValueError(f"member {i} has the wrong prefix width")
        self.members = tuple(self.members)

    def expect(self, role: str, spec: SequenceSpec, user: str) -> None:
        """ConfigError unless this set has `role` and the sequence layout
        `spec`; `user` names the caller in the message."""
        if self.role != role:
            raise ConfigError(f"{user} expects {role} models, got {self.role}")
        if self.seq_spec != spec:
            raise ConfigError(f"{user}: model and data sequence layouts differ")

    def member(self, i: int) -> LinearStudent:
        return self.members[i - 1]

    def replace_member(self, i: int, model: LinearStudent) -> None:
        members = list(self.members)
        members[i - 1] = model
        self.members = tuple(members)


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
) -> ChunkModelSet:
    """A set of zero heads, chunk i's on the bank seeded member_seed(seed, i)."""
    members = tuple(
        LinearStudent(
            FeatureSpec(m, seq_spec.chunk_dim, seq_spec.prefix_dim(i),
                        frequency_scale, member_seed(seed, i)),
            np.zeros((m, seq_spec.chunk_dim)),
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
