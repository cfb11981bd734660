"""Training stages built on the random-feature students.

Four stages are implemented, all sharing TrainConfig and StageResult:

* train_ar_diffusion_tf / train_ar_diffusion_df -- per-chunk denoising
  regression toward the velocity target eps - x0, with the prefix fed either
  clean (teacher forcing) or independently noised at the chunk's own time
  (diffusion forcing).
* ode_distill -- regression of few-step generators onto (noisy snapshot,
  flow endpoint) pairs recorded by the ODE integrators.
* dmd_train -- distribution matching: the generator head descends the score
  difference between the exact conditional law and a learned law of its own
  samples.
* cd_train -- consistency training against a one-step teacher solve on a
  uniform time grid, with an EMA target head.

Each stage fits a linear head over fixed features, as cfg.method says: a
closed-form ridge fit (models.normal_equations, then models.fit_head) or one
SGD step (models.update_head; ode_distill, which steps several heads on one
pick, applies its models.sgd_step_matrix directly); the DMD generator step
is always SGD.  A
ridge fit sums its normal equations over row blocks, so it never holds a
design's whole rows x m features, and its loss reading comes from the same
sums.  Each ridge stage puts its fits' readings in StageResult.info["ridge"]
(see _ridge_info).

Generators are "anchored": G(x, prefix, t) = x - t * head(x, prefix, t), so
G at t = 0 is the identity map no matter what the head does.  Ridge fits for
anchored models scale feature rows by t and regress onto x - x0, which is the
same least-squares problem as matching G to x0 directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distributions import (
    SequenceDistribution,
    condition_clean_prefix_batch,
    sample_clean_with_rng,
)
from .errors import ConfigError, DivergenceError
from .models import (
    RIDGE_READINGS,
    ChunkModelSet,
    LinearStudent,
    TrainConfig,
    ema_update,
    featurize,
    fit_head,
    head_residual,
    normal_equations,
    predict,
    residual_sse,
    sgd_step,
    sgd_step_matrix,
    update_head,
)
from .models import predict_x0 as _predict_x0
from .ode import (
    PairDataset,
    TimestepGrid,
    bi_velocity_field,
    chunk_velocity_field,
    integrate,
)

DMD_DIVERGENCE_LIMIT = 1e6


@dataclass
class StageResult:
    """What a training stage hands back: the models plus bookkeeping."""

    models: ChunkModelSet
    loss_trace: np.ndarray
    config: TrainConfig
    master_seed: int
    wall_seconds: float
    info: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        trace = np.asarray(self.loss_trace, dtype=float)
        if not np.all(np.isfinite(trace)):
            raise DivergenceError("loss trace contains non-finite entries")
        self.loss_trace = trace


def _ridge_info(chunks, fits) -> dict:
    """Readings of a stage's ridge fits, one array entry per fit in fit
    order: the chunk fitted and fit_head's RIDGE_READINGS."""
    info = {"chunk": np.asarray(chunks, dtype=np.int64)}
    for key in RIDGE_READINGS:
        info[key] = np.array([fit[key] for fit in fits], dtype=float)
    return info


def _uniform_times(rng: np.random.Generator, n: int) -> np.ndarray:
    """Noise times uniform on (0, 1]; zero is excluded so scores stay finite."""
    return 1.0 - rng.random(n)


def _as_time_column(t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    return t_arr[:, None] if t_arr.ndim == 1 else t_arr


# ---------------------------------------------------------------------------
# stage 1: autoregressive denoising regression
# ---------------------------------------------------------------------------


def _velocity_design(dist, n, rng, prefix_mode):
    """Sampled design shared by both prefix modes.

    Draw order is fixed (data, chunk indices, times, chunk noise, prefix
    noise) so the two modes consume identical streams for the shared draws.
    """
    spec = dist.spec
    x0 = sample_clean_with_rng(dist, n, rng)
    chunk_idx = rng.integers(1, spec.n_chunks + 1, size=n)
    t = _uniform_times(rng, n)
    eps_chunk = rng.standard_normal((n, spec.chunk_dim))
    if prefix_mode == "noisy":
        eps_prefix = rng.standard_normal((n, spec.total_dim))
        prefix_source = (1.0 - t)[:, None] * x0 + t[:, None] * eps_prefix
    else:
        prefix_source = x0
    return x0, chunk_idx, t, eps_chunk, prefix_source


def train_ar_diffusion_tf(
    dist: SequenceDistribution,
    students: ChunkModelSet,
    cfg: TrainConfig,
    seed: int = 0,
) -> StageResult:
    """Teacher-forced denoising regression: each chunk sees its clean past."""
    return _train_velocity(dist, students, cfg, seed, prefix_mode="clean")


def train_ar_diffusion_df(
    dist: SequenceDistribution,
    students: ChunkModelSet,
    cfg: TrainConfig,
    seed: int = 0,
) -> StageResult:
    """Diffusion-forced denoising regression: the past is independently
    re-noised at the chunk's own time, matching what the model sees when its
    inputs are still noisy at sampling time."""
    return _train_velocity(dist, students, cfg, seed, prefix_mode="noisy")


def _train_velocity(
    dist: SequenceDistribution,
    students: ChunkModelSet,
    cfg: TrainConfig,
    seed: int,
    prefix_mode: str,
) -> StageResult:
    """Fit per-chunk velocity students to the target eps - x0."""
    if prefix_mode not in ("clean", "noisy"):
        raise ConfigError(f"unknown prefix_mode {prefix_mode!r}")
    if students.role != "ar-velocity":
        raise ConfigError("train_ar_diffusion_tf/df expect ar-velocity students")
    if students.parameterization != "direct":
        raise ConfigError("velocity students must use the direct readout")
    spec = students.seq_spec
    if spec != dist.spec:
        raise ConfigError("student and distribution sequence layouts differ")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)

    if cfg.method == "ridge":
        n = cfg.step_count * cfg.batch_size
        x0, chunk_idx, t, eps_chunk, prefix_source = _velocity_design(
            dist, n, rng, prefix_mode
        )
        per_chunk = np.empty(spec.n_chunks)
        fits = []
        for i in range(1, spec.n_chunks + 1):
            rows = chunk_idx == i
            sl = spec.chunk_slice(i)
            t_i = t[rows]
            noisy = (1.0 - t_i)[:, None] * x0[rows, sl] + t_i[:, None] * eps_chunk[rows]
            target = eps_chunk[rows] - x0[rows, sl]
            prefix = prefix_source[rows, spec.prefix_slice(i)]
            member = students.member(i)
            normal = normal_equations(member.features, noisy, prefix, t_i, target)
            member, readings = fit_head(member, normal, cfg.ridge_lambda)
            students.replace_member(i, member)
            per_chunk[i - 1] = readings["sse"] / target.size
            fits.append(readings)
        trace = np.array([float(np.mean(per_chunk))])
    else:
        per_chunk = None
        trace = np.empty(cfg.step_count)
        for step in range(cfg.step_count):
            i = int(rng.integers(1, spec.n_chunks + 1))
            x0, _, t, eps_chunk, prefix_source = _velocity_design(
                dist, cfg.batch_size, rng, prefix_mode
            )
            sl = spec.chunk_slice(i)
            noisy = (1.0 - t)[:, None] * x0[:, sl] + t[:, None] * eps_chunk
            target = eps_chunk - x0[:, sl]
            prefix = prefix_source[:, spec.prefix_slice(i)]
            member = students.member(i)
            phi = featurize(member.features, noisy, prefix, t)
            resid = head_residual(member.theta, phi, target)
            students.replace_member(
                i, update_head(member, phi, target, cfg, resid=resid)
            )
            trace[step] = float(np.mean(resid**2))

    info = {"prefix_mode": prefix_mode, "mode": cfg.method}
    if per_chunk is not None:
        info["per_chunk_loss"] = per_chunk
        info["ridge"] = _ridge_info(range(1, spec.n_chunks + 1), fits)
    return StageResult(
        models=students,
        loss_trace=trace,
        config=cfg,
        master_seed=seed,
        wall_seconds=time.perf_counter() - start,
        info=info,
    )


# ---------------------------------------------------------------------------
# stage 2: distillation onto ODE pairs
# ---------------------------------------------------------------------------


def _distill_design(dataset: PairDataset, prefix_mode: str):
    """Per-chunk (noisy chunk, prefix, time, endpoint) rows from a dataset.

    Row r * T + k is trajectory r at grid time k.  A noisy prefix is the
    trajectory's own earlier chunks at that time.
    """
    spec = dataset.spec
    cols = dataset.records
    n, n_times = cols.snapshots.shape[:2]
    if n == 0:
        raise ConfigError("dataset has no records")
    rows = n * n_times
    design: dict[int, dict[str, np.ndarray]] = {}
    for i in range(1, spec.n_chunks + 1):
        sl = spec.chunk_slice(i)
        p = spec.prefix_dim(i)
        if prefix_mode == "noisy":
            prefix = cols.snapshots[:, :, :p].reshape(rows, p)
        else:
            prefix = np.repeat(cols.prefix[:, :p], n_times, axis=0)
        design[i] = {
            "chunk": cols.snapshots[:, :, sl].reshape(rows, spec.chunk_dim),
            "prefix": prefix,
            "t": np.tile(np.asarray(dataset.grid.times), n),
            "target": np.repeat(cols.endpoint[:, sl], n_times, axis=0),
        }
    return design


def _check_shared_design(sets) -> None:
    """Student sets stepped in lockstep share one featurized design, so they
    must agree on role, layout, readout and every chunk's feature bank."""
    if not sets:
        raise ConfigError("ode_distill needs at least one student set")
    first = sets[0]
    banks = [member.features for member in first.members]
    for models in sets[1:]:
        if (
            models.role != first.role
            or models.seq_spec != first.seq_spec
            or models.parameterization != first.parameterization
            or [member.features for member in models.members] != banks
        ):
            raise ConfigError(
                "student sets distilled together must share role, sequence "
                "layout, parameterization and feature banks"
            )


def ode_distill(
    dataset: PairDataset,
    students: ChunkModelSet | list[ChunkModelSet],
    cfg: TrainConfig,
    seed: int = 0,
    prefix_mode: str = "clean",
) -> StageResult | list[StageResult]:
    """Regress few-step generators onto recorded flow endpoints.

    Every record contributes one row per grid time: predict the record's
    endpoint from its snapshot at that time.  prefix_mode "noisy" swaps the
    stored clean prefix for the sibling chunks' snapshots at the same time,
    which only exists for jointly-integrated datasets.

    `students` is one ChunkModelSet, or a list of sets that share their
    feature banks, parameterization, role and layout and differ only in
    their heads; a list returns one StageResult per set, in order, each with
    its own loss trace.  Each set gets the same fit it would get alone, and
    the design is built once for all of them.

    "ridge" fits each head on its whole design from normal equations summed
    over row blocks, so it holds one block's features at a time; each
    chunk's sums are taken once and every set's head is fitted from them.
    "sgd" featurizes each chunk's design once and holds one chunk's rows x m
    features at a time, whatever the number of sets: it draws its (chunk,
    batch_size-row pick) schedule up front, in step order, and then runs
    each chunk's steps on rows indexed from that chunk's features.  A step
    gathers its pick and builds its sgd_step_matrix once, then steps each
    set's head in turn.  With batch_size and m of 2 or more this gives the
    same bits as featurizing every pick for each set alone.
    """
    sets = students if isinstance(students, list) else [students]
    _check_shared_design(sets)
    if prefix_mode not in ("clean", "noisy"):
        raise ConfigError(f"unknown prefix_mode {prefix_mode!r}")
    if prefix_mode == "noisy" and dataset.provenance != "bidirectional":
        raise ConfigError(
            "noisy-prefix distillation needs a jointly-integrated dataset; "
            f"got provenance {dataset.provenance!r}"
        )
    if sets[0].role != "generator":
        raise ConfigError("ode_distill expects generator students")
    if sets[0].seq_spec != dataset.spec:
        raise ConfigError("student and dataset sequence layouts differ")
    spec = dataset.spec
    anchored = sets[0].parameterization == "anchored"
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    design = _distill_design(dataset, prefix_mode)

    if cfg.method == "ridge":
        per_chunk = np.empty((len(sets), spec.n_chunks))
        fits = [[] for _ in sets]
        for i in range(1, spec.n_chunks + 1):
            rows = design[i]
            if anchored:
                scale, y = rows["t"], rows["chunk"] - rows["target"]
            else:
                scale, y = None, rows["target"]
            normal = normal_equations(
                sets[0].member(i).features, rows["chunk"], rows["prefix"], rows["t"],
                y, scale,
            )
            for k, models in enumerate(sets):
                member, readings = fit_head(models.member(i), normal, cfg.ridge_lambda)
                models.replace_member(i, member)
                per_chunk[k, i - 1] = readings["sse"] / y.size
                fits[k].append(readings)
        traces = [np.array([float(np.mean(losses))]) for losses in per_chunk]
    else:
        per_chunk = None
        # The schedule does not depend on the heads, so draw it up front in
        # step order; each chunk's steps then index one featurized design.
        step_chunk = np.empty(cfg.step_count, dtype=np.int64)
        picks = np.empty((cfg.step_count, cfg.batch_size), dtype=np.int64)
        for step in range(cfg.step_count):
            i = int(rng.integers(1, spec.n_chunks + 1))
            step_chunk[step] = i
            picks[step] = rng.integers(0, design[i]["t"].size, size=cfg.batch_size)
        traces = [np.empty(cfg.step_count) for _ in sets]
        for i in range(1, spec.n_chunks + 1):
            steps = np.flatnonzero(step_chunk == i)
            if steps.size == 0:
                continue
            rows = design[i]
            members = [models.member(i) for models in sets]
            phi_all = featurize(
                members[0].features, rows["chunk"], rows["prefix"], rows["t"]
            )
            for step in steps:
                pick = picks[step]
                phi = phi_all[pick]
                target = rows["target"][pick]
                t = rows["t"][pick] if anchored else None
                anchor = (rows["chunk"][pick], t) if anchored else None
                step_matrix = sgd_step_matrix(phi, t)
                for k, member in enumerate(members):
                    resid = head_residual(member.theta, phi, target, anchor)
                    grad = step_matrix @ resid
                    members[k] = sgd_step(member, grad, cfg.learning_rate)
                    traces[k][step] = float(np.mean(resid**2))
            for models, member in zip(sets, members):
                models.replace_member(i, member)
            del phi_all  # hold one chunk's features at a time

    wall_seconds = time.perf_counter() - start
    results = []
    for k, models in enumerate(sets):
        info = {
            "prefix_mode": prefix_mode,
            "mode": cfg.method,
            "rows_per_chunk": {i: design[i]["t"].size for i in design},
        }
        if per_chunk is not None:
            info["per_chunk_loss"] = per_chunk[k]
            info["ridge"] = _ridge_info(range(1, spec.n_chunks + 1), fits[k])
        results.append(StageResult(
            models=models,
            loss_trace=traces[k],
            config=cfg,
            master_seed=seed,
            wall_seconds=wall_seconds,
            info=info,
        ))
    return results if isinstance(students, list) else results[0]


# ---------------------------------------------------------------------------
# few-step sampling and rollout
# ---------------------------------------------------------------------------


def _sample_chunk_batch(model, prefixes, grid, rng, capture=False):
    """Few-step re-noising sampler for one chunk over a prefix batch.

    Start from pure noise at t = 1, alternate clean prediction with forward
    re-noising at the next grid time, and return the final clean prediction.
    With capture=True also return the feature rows and time of the final
    prediction, which are all a head-gradient needs.
    """
    n = prefixes.shape[0]
    x = rng.standard_normal((n, model.features.chunk_dim))
    last = len(grid) - 1
    for k, t in enumerate(grid):
        t = float(t)
        phi = featurize(model.features, x, prefixes, t) if k == last and capture else None
        x0_hat = _predict_x0(model, x, prefixes, t, phi=phi)
        if k < last:
            t_next = float(grid[k + 1])
            eps = rng.standard_normal((n, model.features.chunk_dim))
            x = (1.0 - t_next) * x0_hat + t_next * eps
    if capture:
        return x0_hat, (phi, t)
    return x0_hat


def rollout(
    models: ChunkModelSet, grid: TimestepGrid, seed: int = 0, count: int = 1
) -> np.ndarray:
    """Sample `count` full sequences (count, total_dim) chunk by chunk, each
    conditioned on its own past."""
    rng = np.random.default_rng(seed)
    spec = models.seq_spec
    out = np.empty((count, spec.total_dim))
    for i in range(1, spec.n_chunks + 1):
        prefix = out[:, : (i - 1) * spec.chunk_dim]
        out[:, spec.chunk_slice(i)] = _sample_chunk_batch(
            models.member(i), prefix, grid, rng
        )
    return out


def learned_conditional_endpoints(
    model: LinearStudent,
    prefixes: np.ndarray,
    seed: int = 0,
    steps: int = 256,
) -> np.ndarray:
    """Integrate a trained velocity model from fresh noise to t = 0.

    This is the many-step sampler for one chunk's learned conditional law;
    each prefix row gets its own trajectory.
    """
    prefixes = np.atleast_2d(np.asarray(prefixes, dtype=float))
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((prefixes.shape[0], model.features.chunk_dim))

    def field_fn(x, t):
        return predict(model, x, prefixes, t)

    return integrate(field_fn, x1, 1.0, 0.0, steps)


# ---------------------------------------------------------------------------
# stage 3: distribution matching
# ---------------------------------------------------------------------------


def dmd_generator_gradient(
    model: LinearStudent,
    phi: np.ndarray,
    t_last: float,
    delta: np.ndarray,
) -> np.ndarray:
    """Head gradient -mean_b delta_b (d sample_b / d theta).

    Gradients flow only through the sampler's final prediction, whose
    feature rows phi (B x m, as _sample_chunk_batch captures them) are all
    the estimate needs.  For the anchored readout x - t * head the sample's
    sensitivity to head column k is -t_last * phi, so the estimate is
    (t_last / B) Phi^T delta; the direct readout drops the -t_last factor.
    """
    n = phi.shape[0]
    if model.parameterization == "anchored":
        return (t_last / n) * phi.T @ delta
    return -(phi.T @ delta) / n


def _dmd_prefixes(dist, i, n, rng):
    return sample_clean_with_rng(dist, n, rng)[:, dist.spec.prefix_slice(i)]


def fake_score(model: LinearStudent, chunk, prefix, t) -> np.ndarray:
    """Score of the fake model's anchored velocity field: -x - (1 - t) head.

    The fake velocity is parameterized v(x, t) = -x + t * head(x, t), which
    is exact at t = 0 (where the velocity of any law is -x + E[eps|x] = -x)
    and whose implied score -(x + (1 - t) v) / t simplifies to the bounded
    form above.  A free-form velocity head would instead contribute
    fit-error / t to the score, and uniform time draws near 0 would blow the
    score difference up no matter how well the head fits.
    """
    chunk = np.asarray(chunk, dtype=float)
    t_col = _as_time_column(t)
    return -chunk - (1.0 - t_col) * predict(model, chunk, prefix, t)


def _fake_design(generators, dist, i, n, grid, rng):
    """Fresh generator samples noised at uniform times, plus the regression
    pieces for the anchored fake field: design scale t and bounded target
    (eps - x~) + x_t."""
    prefixes = _dmd_prefixes(dist, i, n, rng)
    fake_x0 = _sample_chunk_batch(generators.member(i), prefixes, grid, rng)
    t = _uniform_times(rng, n)
    eps = rng.standard_normal(fake_x0.shape)
    noisy = (1.0 - t)[:, None] * fake_x0 + t[:, None] * eps
    target = (eps - fake_x0) + noisy
    return prefixes, noisy, t, target


def _dmd_fake_update(fake_models, generators, dist, i, grid, cfg, rng):
    """Update the chunk-i fake head on fresh generator samples.

    Ridge makes one closed-form fit on fake_update_ratio * batch_size rows,
    which plays the role of that many inner updates, and returns its
    readings; SGD takes fake_update_ratio steps on batch_size rows each.
    """
    if cfg.method == "ridge":
        n = cfg.fake_update_ratio * cfg.batch_size
        prefixes, noisy, t, target = _fake_design(generators, dist, i, n, grid, rng)
        member = fake_models.member(i)
        normal = normal_equations(member.features, noisy, prefixes, t, target, t)
        member, readings = fit_head(member, normal, cfg.ridge_lambda)
        fake_models.replace_member(i, member)
        return readings
    for _ in range(cfg.fake_update_ratio):
        prefixes, noisy, t, target = _fake_design(
            generators, dist, i, cfg.batch_size, grid, rng
        )
        member = fake_models.member(i)
        phi = featurize(member.features, noisy, prefixes, t)
        fake_models.replace_member(
            i, update_head(member, phi * t[:, None], target, cfg)
        )
    return None


def dmd_train(
    generators: ChunkModelSet,
    fake_models: ChunkModelSet,
    dist: SequenceDistribution,
    grid: TimestepGrid,
    cfg: TrainConfig,
    seed: int = 0,
    force_real_fake: bool = False,
) -> StageResult:
    """Distribution-matching updates of few-step generators.

    Per step: draw prefixes, sample the generator few-step, noise the samples
    at a fresh uniform time, and step the head along the score difference
    between the exact conditional law and a fake law fitted to the
    generator's own output (fake_update_ratio fresh-fit updates per
    generator update).  force_real_fake substitutes the exact score for the
    fake one, which makes the update identically zero and is only useful as
    a control.  The trace records mean |score difference|^2 per step; a trace
    above DMD_DIVERGENCE_LIMIT aborts with DivergenceError.
    """
    if generators.role != "generator":
        raise ConfigError("dmd_train expects generator students")
    if fake_models.role != "fake-score":
        raise ConfigError("dmd_train expects fake-score companions")
    if fake_models.parameterization != "anchored":
        raise ConfigError(
            "fake-score models must use the anchored readout; see fake_score"
        )
    if generators.seq_spec != dist.spec or fake_models.seq_spec != dist.spec:
        raise ConfigError("model and distribution sequence layouts differ")
    spec = dist.spec
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    trace = np.empty(cfg.step_count)
    fit_chunks, fits = [], []

    for step in range(cfg.step_count):
        i = int(rng.integers(1, spec.n_chunks + 1))
        if not force_real_fake:
            readings = _dmd_fake_update(
                fake_models, generators, dist, i, grid, cfg, rng
            )
            if readings is not None:
                fit_chunks.append(i)
                fits.append(readings)
        prefixes = _dmd_prefixes(dist, i, cfg.batch_size, rng)
        member = generators.member(i)
        x_tilde, (final_phi, t_last) = _sample_chunk_batch(
            member, prefixes, grid, rng, capture=True
        )
        t = _uniform_times(rng, cfg.batch_size)
        eps = rng.standard_normal(x_tilde.shape)
        x_t = (1.0 - t)[:, None] * x_tilde + t[:, None] * eps
        cond = condition_clean_prefix_batch(dist, i, prefixes)
        s_real = cond.score(x_t, t)
        if force_real_fake:
            s_fake = s_real
        else:
            s_fake = fake_score(fake_models.member(i), x_t, prefixes, t)
        delta = s_real - s_fake
        trace[step] = float(np.mean(np.sum(delta**2, axis=1)))
        if not np.isfinite(trace[step]) or trace[step] > DMD_DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"score difference blew up at step {step}: {trace[step]:.3e}"
            )
        grad = dmd_generator_gradient(member, final_phi, t_last, delta)
        generators.replace_member(i, sgd_step(member, grad, cfg.learning_rate))

    info = {"fake_models": fake_models}
    if fits:
        info["ridge"] = _ridge_info(fit_chunks, fits)
    return StageResult(
        models=generators,
        loss_trace=trace,
        config=cfg,
        master_seed=seed,
        wall_seconds=time.perf_counter() - start,
        info=info,
    )


# ---------------------------------------------------------------------------
# stage 4: consistency training
# ---------------------------------------------------------------------------


def _one_teacher_step(field_fn, x, t, dt_mag):
    """One solver step from per-row times t down to t - dt_mag.

    Interior rows take a Heun step; rows landing exactly at 0 use the
    endpoint rule x - t * v(x, t), mirroring the integrator's last step.
    """
    t_next = t - dt_mag
    boundary = t_next <= 1e-12
    v0 = field_fn(x, t)
    euler = x - dt_mag * v0
    t_safe = np.where(boundary, dt_mag, t_next)
    v1 = field_fn(euler, t_safe)
    heun = x - 0.5 * dt_mag * (v0 + v1)
    return np.where(boundary[:, None], euler, heun), t_next


def cd_train(
    dist: SequenceDistribution,
    students: ChunkModelSet,
    cfg: TrainConfig,
    seed: int = 0,
    grid_size: int = 48,
    teacher=None,
    teacher_kind: str = "autoregressive",
) -> StageResult:
    """Consistency training on the uniform grid t_k = k / grid_size.

    Per step: noise ground-truth chunks at a random grid time, solve one
    teacher step backward, and pull the student's prediction toward the EMA
    target head's prediction at the earlier time.  teacher_kind
    "bidirectional" noises the whole sequence and solves the joint field
    instead, so chunk targets come from a one-step joint solve; the student
    still conditions on the clean prefix.

    cfg.method picks the inner optimizer.  "sgd" takes one gradient step on
    the consistency loss per draw.  "ridge" solves the same regression in
    closed form against the frozen targets (fitted iteration); information
    then propagates one grid cell per refit instead of diffusing at SGD
    speed, so a few dozen steps with a large batch replace thousands of
    gradient updates.  Its trace reading, the residual of the head before
    the refit, comes from the refit's normal equations.
    """
    if grid_size < 2:
        raise ConfigError("consistency training needs a grid of at least 2 steps")
    if teacher_kind not in ("autoregressive", "bidirectional"):
        raise ConfigError(f"unknown teacher_kind {teacher_kind!r}")
    if teacher_kind == "bidirectional" and teacher is not None:
        raise ConfigError("the bidirectional teacher is always the exact field")
    if students.role != "generator":
        raise ConfigError("cd_train expects generator students")
    if students.parameterization != "anchored":
        raise ConfigError(
            "consistency training requires anchored students; the identity "
            "boundary at t = 0 is what the recursion bottoms out on"
        )
    spec = students.seq_spec
    if spec != dist.spec:
        raise ConfigError("student and distribution sequence layouts differ")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    dt = 1.0 / grid_size
    theta_minus = {
        i: students.member(i).theta.copy() for i in range(1, spec.n_chunks + 1)
    }
    # autoregressive: chunk-conditional field given each step's clean
    # prefixes, from the oracle (teacher None) or a trained velocity set;
    # bidirectional: the full-dimension joint oracle field
    source = dist if teacher is None else teacher
    joint_field = bi_velocity_field(dist)
    trace = np.empty(cfg.step_count)
    fit_chunks, fits = [], []

    for step in range(cfg.step_count):
        i = int(rng.integers(1, spec.n_chunks + 1))
        x_gt = sample_clean_with_rng(dist, cfg.batch_size, rng)
        k = rng.integers(1, grid_size + 1, size=cfg.batch_size)
        t = k * dt
        prefixes = x_gt[:, spec.prefix_slice(i)]
        member = students.member(i)
        if teacher_kind == "autoregressive":
            eps = rng.standard_normal((cfg.batch_size, spec.chunk_dim))
            x_t = (1.0 - t)[:, None] * x_gt[:, spec.chunk_slice(i)] + t[:, None] * eps
            field_fn = chunk_velocity_field(source, i, prefixes)
            x_prev, t_prev = _one_teacher_step(field_fn, x_t, t, dt)
            student_in = x_t
        else:
            eps = rng.standard_normal((cfg.batch_size, spec.total_dim))
            x_t_full = (1.0 - t)[:, None] * x_gt + t[:, None] * eps
            x_prev_full, t_prev = _one_teacher_step(joint_field, x_t_full, t, dt)
            student_in = x_t_full[:, spec.chunk_slice(i)]
            x_prev = x_prev_full[:, spec.chunk_slice(i)]
        target_model = LinearStudent(
            member.features, theta_minus[i], "generator", "anchored"
        )
        target = _predict_x0(target_model, x_prev, prefixes, t_prev)
        if cfg.method == "ridge":
            normal = normal_equations(
                member.features, student_in, prefixes, t, student_in - target, t
            )
            trace[step] = residual_sse(member.theta, normal) / target.size
            member, readings = fit_head(member, normal, cfg.ridge_lambda)
            fit_chunks.append(i)
            fits.append(readings)
        else:
            phi = featurize(member.features, student_in, prefixes, t)
            diff = head_residual(member.theta, phi, target, (student_in, t))
            trace[step] = float(np.mean(diff**2))
            member = update_head(member, phi, target, cfg, (student_in, t), diff)
        students.replace_member(i, member)
        theta_minus[i] = ema_update(
            theta_minus[i], students.member(i).theta, cfg.ema_rate
        )

    info = {"grid_size": grid_size, "teacher_kind": teacher_kind}
    if fits:
        info["ridge"] = _ridge_info(fit_chunks, fits)
    return StageResult(
        models=students,
        loss_trace=trace,
        config=cfg,
        master_seed=seed,
        wall_seconds=time.perf_counter() - start,
        info=info,
    )
