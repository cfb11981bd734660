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
from .models import ChunkModelSet, predict

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


def _div_time(num: np.ndarray, t) -> np.ndarray:
    """Divide rows by a scalar time or by one time per row."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 1:
        return num / t_arr[:, None]
    return num / float(t_arr)


def bi_velocity_field(dist: SequenceDistribution):
    """Velocity callable f(x, t) over row batches for the joint field."""

    def field_fn(x, t):
        m = _mixture_posterior_mean(
            dist._log_w, dist._means, dist._eigvecs, dist._eigvals, x, t
        )
        return _div_time(x - m, t)

    return field_fn


def chunk_velocity_field(source, i: int, prefixes: np.ndarray):
    """Chunk-i velocity callable f(x, t) given one prefix per row of x.

    `source` is a SequenceDistribution (the exact conditional field, with
    the prefixes conditioned on once) or a ChunkModelSet (its trained chunk-i
    member).  t may be a scalar or one time per row.
    """
    if isinstance(source, ChunkModelSet):
        member = source.member(i)
        return lambda x, t: predict(member, x, prefixes, t)
    cond = condition_clean_prefix_batch(source, i, prefixes)
    return lambda x, t: _div_time(x - cond.posterior_mean(x, t), t)


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


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
    intermediate times come from chaining calls (_integrate_segments).
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
            dt = t1 - t0
            v0 = field_fn(x, t0)
            pred = x + dt * v0
            x = x + 0.5 * dt * (v0 + field_fn(pred, t1))
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


def _segment_plan(times, steps: int):
    """Chain of (t_hi, t_lo, sub_steps) segments covering times[0] down to 0.

    Each requested time (a TimestepGrid or any decreasing sequence) becomes a
    segment boundary, so every snapshot is an exact node of its uniform
    sub-grid; sub-step counts are allocated proportionally to segment length.
    """
    bounds = list(times) + [0.0]
    total = bounds[0]
    plan = []
    for hi, lo in zip(bounds, bounds[1:]):
        sub = max(1, int(round(steps * (hi - lo) / total)))
        plan.append((hi, lo, sub))
    return plan


def _integrate_segments(field_fn, x, plan):
    """Run the segment chain, recording the state at every boundary."""
    snaps = {plan[0][0]: x.copy()}
    for hi, lo, sub in plan:
        x = integrate(field_fn, x, hi, lo, sub)
        if lo > 0.0:
            snaps[lo] = x.copy()
    return x, snaps


def _grid_columns(snaps, grid) -> np.ndarray:
    """Per-time snapshot rows (N, D) as one (N, T, D) array in grid order."""
    return np.stack([snaps[t] for t in grid], axis=1)


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
    plan = _segment_plan(grid, steps)
    endpoint, snaps = _integrate_segments(bi_velocity_field(dist), x1, plan)
    records = PairColumns(
        seed=seeds,
        prefix=endpoint[:, spec.prefix_slice(spec.n_chunks)].copy(),
        snapshots=_grid_columns(snaps, grid),
        endpoint=endpoint,
    )
    return PairDataset(
        spec=spec,
        grid=grid,
        provenance="bidirectional",
        records=records,
        metadata={
            "teacher": "oracle-bidirectional",
            "solver": "heun",
            "steps": steps,
            "master_seed": seed,
        },
    )


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
    provenance = (
        "autoregressive-oracle" if teacher is None else "autoregressive-learned"
    )
    gt = np.empty((count, spec.total_dim))
    eps = np.empty((count, spec.n_chunks, spec.chunk_dim))
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        gt[r] = sample_clean_with_rng(dist, 1, rng)[0]
        eps[r] = rng.standard_normal((spec.n_chunks, spec.chunk_dim))
    plan = _segment_plan(grid, steps)
    snapshots = np.empty((count, len(grid), spec.total_dim))
    endpoint = np.empty((count, spec.total_dim))
    source = dist if teacher is None else teacher
    for i in range(1, spec.n_chunks + 1):
        sl = spec.chunk_slice(i)
        field_fn = chunk_velocity_field(source, i, gt[:, spec.prefix_slice(i)])
        endpoint[:, sl], snaps = _integrate_segments(field_fn, eps[:, i - 1], plan)
        snapshots[:, :, sl] = _grid_columns(snaps, grid)
    records = PairColumns(
        seed=seeds,
        prefix=gt[:, spec.prefix_slice(spec.n_chunks)].copy(),
        snapshots=snapshots,
        endpoint=endpoint,
    )
    return PairDataset(
        spec=spec,
        grid=grid,
        provenance=provenance,
        records=records,
        metadata={
            "teacher": "oracle-autoregressive" if teacher is None else "learned-autoregressive",
            "solver": "heun",
            "steps": steps,
            "master_seed": seed,
        },
    )
