"""Probability-flow ODE machinery: velocity fields, integration, pair datasets.

The joint field transports the noised mixture law back to the data law; the
autoregressive field does the same for one chunk's conditional law given a
clean prefix.  Pair datasets record (noisy snapshot, clean endpoint) couples
produced by integrating these fields from t = 1 to t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    SequenceDistribution,
    SequenceSpec,
    _mixture_posterior_mean,
    condition_clean_prefix_batch,
    sample_clean_with_rng,
)
from .errors import DivergenceError, GridError
from .models import ChunkModelSet, _time_column, predict

DATASET_STEPS = 256


# ---------------------------------------------------------------------------
# timestep grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimestepGrid:
    """Strictly decreasing denoising times in (0, 1], starting at exactly 1."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise GridError("a timestep grid needs at least one time")
        if times[0] != 1.0:
            raise GridError("the first grid time must be 1.0")
        for t in times:
            if not (0.0 < t <= 1.0):
                raise GridError("grid times must lie in (0, 1]")
        if any(b >= a for a, b in zip(times, times[1:])):
            raise GridError("grid times must be strictly decreasing")
        object.__setattr__(self, "times", times)

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return iter(self.times)

    def __getitem__(self, k):
        return self.times[k]


DEFAULT_GRID = TimestepGrid((1.0, 0.9375, 0.8333, 0.625))


# ---------------------------------------------------------------------------
# velocity fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleField:
    """The exact velocity field (x - E[x0 | x_t = x]) / t of a Gaussian
    mixture, f(x, t) over row batches; t may be a scalar or one time per row.

    The arrays are those of distributions._mixture_posterior_mean: log_w (K,)
    and means (K, D) shared by every row (the joint field), or (B, K) and
    (B, K, D), one conditional law per row (a chunk field).  With one
    component the field is linear in the state and the component mean
    jointly, v = (x - mu - A_t (x - a mu)) / t with A_t the posterior gain,
    so _integrate_through maps its rows through Heun's flow map instead of
    stepping them (see _affine_flow_basis).
    """

    log_w: np.ndarray
    means: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray

    def __call__(self, x, t):
        m = _mixture_posterior_mean(
            self.log_w, self.means, self.eigvecs, self.eigvals, x, t
        )
        return (x - m) / _time_column(t)


def bi_velocity_field(dist: SequenceDistribution) -> OracleField:
    """The joint field f(x, t) over row batches.  On a one-component law
    _integrate_through takes it by the affine route: equal to stepping its
    rows up to rounding, not to the bit."""
    return OracleField(dist._log_w, dist._means, dist._eigvecs, dist._eigvals)


def chunk_velocity_field(source, i: int, prefixes: np.ndarray):
    """Chunk-i velocity callable f(x, t) given one prefix per row of x.

    `source` is a SequenceDistribution (the exact conditional field, an
    OracleField with the prefixes conditioned on once) or a ChunkModelSet
    (its trained chunk-i member).  t may be a scalar or one time per row.
    The exact field of a one-component law takes _integrate_through's affine
    route, equal to stepping its rows up to rounding; a trained member's
    field and a mixture's are stepped row by row.
    """
    if isinstance(source, ChunkModelSet):
        member = source.member(i)
        return lambda x, t: predict(member, x, prefixes, t)
    cond = condition_clean_prefix_batch(source, i, prefixes)
    return OracleField(cond.log_w, cond.means, cond.eigvecs, cond.eigvals)


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


def _heun_step(field_fn, x, t0, t1, dt):
    """One Heun step of dx/dt = field(x, t) from t0 to t1 = t0 + dt (dt < 0
    steps backward): the Heun state and its Euler predictor."""
    v0 = field_fn(x, t0)
    pred = x + dt * v0
    return x + 0.5 * dt * (v0 + field_fn(pred, t1)), pred


def integrate(
    field_fn,
    x_start: np.ndarray,
    t_from: float,
    t_to: float,
    steps: int,
    method: str = "heun",
) -> np.ndarray:
    """Integrate dx/dt = field(x, t) over rows x on a uniform grid from t_from
    down to t_to with Heun steps and return the endpoint rows.

    When t_to is exactly 0 the final sub-step applies the endpoint rule
    x_0 = x - t_min * field(x, t_min), which avoids evaluating the field at
    the singular time 0 and is exact in the small-step limit.  States at
    intermediate times come from chaining calls (_integrate_through).
    Heun is the only solver; `method` is accepted only as "heun", so callers
    that name it keep working (perfbench's tracer self-test does).
    """
    if method != "heun":
        raise ValueError(f"unknown method {method!r}; only 'heun' is implemented")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (0.0 <= t_to < t_from <= 1.0):
        raise ValueError("need 0 <= t_to < t_from <= 1")
    ts = np.linspace(t_from, t_to, steps + 1)
    x = np.array(x_start, dtype=float)
    terminal = t_to == 0.0
    for k in range(steps):
        t0 = float(ts[k])
        t1 = float(ts[k + 1])
        if terminal and k == steps - 1:
            x = x - t0 * field_fn(x, t0)
        else:
            # drop the predictor now: held into the next step, it is one more
            # state-sized array alive at every field evaluation
            x = _heun_step(field_fn, x, t0, t1, t1 - t0)[0]
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"non-finite state while stepping to t={t1}")
    return x


def gaussian_flow_map(mean: np.ndarray, cov: np.ndarray, t: float):
    """Closed-form affine flow map x_0 = M x_t + b for one Gaussian component.

    Per eigenmode the flow preserves (x_t - a mu) / sqrt(a^2 lam + s^2), so
    M = Q diag(sqrt(lam) / sqrt(a^2 lam + t^2)) Q^T and b = mu - a M mu.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    lam, q = np.linalg.eigh(cov)
    lam = np.clip(lam, 0.0, None)
    a = 1.0 - t
    scale = np.sqrt(lam) / np.sqrt(a * a * lam + t * t)
    m = (q * scale[None, :]) @ q.T
    b = mean - a * (m @ mean)
    return m, b


# ---------------------------------------------------------------------------
# pair datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairColumns:
    """Trajectory-major columns of a pair dataset with N trajectories.

    Record (r, i), chunk i of trajectory r, is the unit one file line stores:
    its prefix is prefix[r, :prefix_dim(i)], its snapshots (in grid order)
    snapshots[r, :, chunk_slice(i)] and its endpoint endpoint[r, chunk_slice(i)].
    """

    seed: np.ndarray  # (N,) uint64
    prefix: np.ndarray  # (N, prefix_dim(n_chunks))
    snapshots: np.ndarray  # (N, T, total_dim)
    endpoint: np.ndarray  # (N, total_dim)

    @property
    def n_chunks(self) -> int:
        # the prefix column holds every chunk but the last
        total = self.endpoint.shape[1]
        return total // (total - self.prefix.shape[1])

    def __len__(self):
        return self.seed.size * self.n_chunks


@dataclass
class PairDataset:
    spec: SequenceSpec
    grid: TimestepGrid
    provenance: str
    records: PairColumns
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.records)


def _record_seeds(master_seed: int, count: int) -> np.ndarray:
    """Counter-based split of the master seed into one seed per trajectory."""
    return np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)


def _affine_flow_basis(field_fn, x):
    """The affine route's parts for a one-component OracleField, else None.

    Such a field is linear in (state, component mean), and so is each Heun
    step and the endpoint rule: a segment maps rows [x, w] through one
    matrix, w the rows' coordinates on the mean part.  For a shared mean
    (the joint field) w is a column of ones and the mean part one row, mu;
    for per-row means (a chunk field) w is each row's mean and the mean
    part the identity.  Returns (w, start, basis): integrating the basis
    field from the start rows (the identity over the state, then zero
    states carrying the mean part) over a segment gives that matrix, whose
    rows are the images of the basis rows.
    """
    if not isinstance(field_fn, OracleField) or field_fn.eigvals.shape[0] != 1:
        return None
    d = x.shape[1]
    if field_fn.means.ndim == 2:
        w, mean_part = np.ones((x.shape[0], 1)), field_fn.means
    else:
        w, mean_part = field_fn.means[:, 0], np.eye(d)
    start = np.concatenate([np.eye(d), np.zeros(mean_part.shape)])
    means = np.concatenate([np.zeros((d, d)), mean_part])[:, None, :]
    basis = OracleField(np.zeros(1), means, field_fn.eigvecs, field_fn.eigvals)
    return w, start, basis


def _integrate_through(field_fn, x, times, steps: int):
    """Integrate rows x from times[0] down to 0 through every time in `times`
    (a TimestepGrid or any decreasing sequence).  Returns the endpoint rows
    and the states at `times` as one (N, T, D) array, snapshot 0 a copy of x.

    Each time is a segment boundary, so every snapshot is an exact node of
    its uniform sub-grid; sub-step counts are allocated proportionally to
    segment length.  The exact field of a one-component law (an OracleField
    with one component) takes the affine route: per segment `integrate`
    steps only the few basis rows of _affine_flow_basis (D + 1 for the joint
    field, 2D for a chunk field), and all rows then go through the resulting
    map in one product.  That is the same Heun scheme on the same grid,
    reassociated, so it matches stepping the rows to rounding, not to the
    bit.  Every other field steps its rows.  The route is chosen here, not
    inside `integrate`, so a wrapper around the field callable given to
    `integrate` cannot change it.
    """
    bounds = tuple(times) + (0.0,)
    snapshots = np.empty((x.shape[0], len(bounds) - 1, x.shape[1]))
    affine = _affine_flow_basis(field_fn, x)
    for k, (hi, lo) in enumerate(zip(bounds, bounds[1:])):
        snapshots[:, k] = x
        sub = max(1, int(round(steps * (hi - lo) / bounds[0])))
        if affine is None:
            x = integrate(field_fn, x, hi, lo, sub)
        else:
            w, start, basis = affine
            x = np.concatenate([x, w], axis=1) @ integrate(basis, start, hi, lo, sub)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite state while stepping to t={lo}")
    return x, snapshots


def _pair_dataset(spec, grid, steps, seed, seeds, clean, endpoint, snapshots,
                  provenance, teacher) -> PairDataset:
    """A builder's trajectories as a PairDataset: each record's prefix is
    read from the trajectory's `clean` row (N, total_dim)."""
    prefix = clean[:, spec.prefix_slice(spec.n_chunks)].copy()
    return PairDataset(
        spec=spec, grid=grid, provenance=provenance,
        records=PairColumns(seed=seeds, prefix=prefix, snapshots=snapshots,
                            endpoint=endpoint),
        metadata={"teacher": teacher, "solver": "heun", "steps": steps,
                  "master_seed": seed},
    )


def make_pairs_bi(
    dist: SequenceDistribution,
    grid: TimestepGrid = DEFAULT_GRID,
    count: int = 1000,
    steps: int = DATASET_STEPS,
    seed: int = 0,
) -> PairDataset:
    """Integrate the joint flow from fresh noise and emit per-chunk records.

    Record prefixes are the trajectory's own endpoint chunks, so a record's
    "clean prefix" is the generated past, not ground-truth data.
    """
    spec = dist.spec
    seeds = _record_seeds(seed, count)
    x1 = np.empty((count, spec.total_dim))
    for r, s in enumerate(seeds):
        x1[r] = np.random.default_rng(int(s)).standard_normal(spec.total_dim)
    endpoint, snapshots = _integrate_through(bi_velocity_field(dist), x1, grid, steps)
    return _pair_dataset(spec, grid, steps, seed, seeds, endpoint, endpoint,
                         snapshots, "bidirectional", "oracle-bidirectional")


def make_pairs_causal(
    dist: SequenceDistribution,
    grid: TimestepGrid = DEFAULT_GRID,
    count: int = 1000,
    steps: int = DATASET_STEPS,
    seed: int = 0,
    teacher=None,
) -> PairDataset:
    """Per-chunk conditional flows from fresh noise, prefixed by ground truth.

    Each record's prefix holds clean data chunks; the chunk trajectory solves
    the conditional flow for that prefix.  `teacher` may be a trained
    velocity model set; by default the exact conditional field is used.
    """
    spec = dist.spec
    seeds = _record_seeds(seed, count)
    gt = np.empty((count, spec.total_dim))
    eps = np.empty((count, spec.n_chunks, spec.chunk_dim))
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        gt[r] = sample_clean_with_rng(dist, 1, rng)[0]
        eps[r] = rng.standard_normal((spec.n_chunks, spec.chunk_dim))
    snapshots = np.empty((count, len(grid), spec.total_dim))
    endpoint = np.empty((count, spec.total_dim))
    source = dist if teacher is None else teacher
    for i in range(1, spec.n_chunks + 1):
        sl = spec.chunk_slice(i)
        field_fn = chunk_velocity_field(source, i, gt[:, spec.prefix_slice(i)])
        endpoint[:, sl], snapshots[:, :, sl] = _integrate_through(
            field_fn, eps[:, i - 1], grid, steps
        )
    how = "oracle" if teacher is None else "learned"
    return _pair_dataset(spec, grid, steps, seed, seeds, gt, endpoint, snapshots,
                         f"autoregressive-{how}", f"{how}-autoregressive")
