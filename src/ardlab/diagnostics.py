"""Estimators that turn the lab's structural claims into numbers.

Audits implemented here:

* injectivity_variance -- how much the joint flow's chunk endpoint still
  moves when the chunk's own noisy value is held fixed and everything else
  is resampled from its exact conditional.
* collapse_gap -- RMS distance of a trained generator from the
  conditional-mean oracle it is predicted to collapse to, plus the
  second-moment deficit of its outputs against the data chunk.
* df_mismatch -- expected KL between the noisy-prefix conditional evaluated
  at a clean prefix value and the true clean conditional.
* energy_distance / gaussian_kl / motion_variability -- distributional
  metrics used by the experiment presets.

Every estimator is deterministic given its seed and reports sample counts
and uncertainties through DiagnosticsReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distributions import (
    SequenceDistribution,
    chunk_second_moment,
    condition_clean_prefix_batch,
    condition_on_coordinates,
    df_conditional_dist,
    noisy_marginal,
    sample_clean_with_rng,
)
from .errors import ConfigError, SingularCovarianceError
from .models import _row_blocks, _share
from .ode import (
    _integrate_segments,
    _segment_plan,
    bi_velocity_field,
    chunk_velocity_field,
    integrate,
)
from .stages import _sample_chunk_batch

VARIANCE_WITNESS_FACTOR = 10.0
# Variances at or below this are treated as exact zeros: a constant endpoint
# computed in floats shows ~1e-30 "variance", and its MC standard error is
# the same size, so a purely relative witness test would flip on roundoff.
VARIANCE_ABS_FLOOR = 1e-12


@dataclass
class MetricEntry:
    """One named scalar with its uncertainty and estimator metadata."""

    value: float
    uncertainty: float
    sample_count: int
    note: str = ""

    def __post_init__(self):
        if not np.isfinite(self.value) or not np.isfinite(self.uncertainty):
            raise ValueError("metric values and uncertainties must be finite")


@dataclass
class DiagnosticsReport:
    """Named metric collection; the unit of experimental output."""

    name: str
    config_digest: str = ""
    metrics: dict[str, MetricEntry] = dataclass_field(default_factory=dict)

    def add(self, key: str, value, uncertainty, sample_count, note=""):
        self.metrics[key] = MetricEntry(
            value=float(value),
            uncertainty=float(uncertainty),
            sample_count=int(sample_count),
            note=note,
        )

    def __getitem__(self, key: str) -> MetricEntry:
        return self.metrics[key]


def mean_with_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


# ---------------------------------------------------------------------------
# distributional metrics
# ---------------------------------------------------------------------------


# energy_distance takes its pair distances in row blocks of about this many
# cells (rows of a x rows of b): 2 MiB of float64 per block, the unit its
# threads share out.  The blocks do not depend on the CPU count.
_ENERGY_CELLS = 1 << 18


def _mean_cross_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs, via the Gram expansion.

    Each row block of `a` fills one buffer with its squared distances to
    every row of `b`, takes their square roots in place and stores its row
    sums; the blocks are shared among threads by models._share, so memory
    is O(len(a) + block) and the bits do not depend on the CPU count.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    sq_a = np.sum(a * a, axis=1)
    sq_b = np.sum(b * b, axis=1)
    # a copy, so that a @ a.T is never taken as a symmetric (syrk) product,
    # whose last bits can differ from those of a @ a.copy().T
    b_t = np.array(b.T, order="C")
    row_sums = np.empty(n_a)

    def block(rows):
        lo, hi = rows
        d = a[lo:hi] @ b_t
        d *= -2.0
        d += sq_a[lo:hi, None]
        d += sq_b
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        np.sum(d, axis=1, out=row_sums[lo:hi])

    _share(block, _row_blocks(n_a, n_b, _ENERGY_CELLS), cells=n_a * n_b)
    return float(np.sum(row_sums) / (n_a * n_b))


def energy_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """2 E|A - B| - E|A - A'| - E|B - B'| over all sample pairs.

    Both sets are rows (n, d): a 1-D vector is refused, since it could be
    n scalar draws or one n-dimensional point.  Within-set terms include
    every ordered pair, which keeps the statistic nonnegative and exactly
    zero on identical sample sets.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("energy distance needs 2-d (n, d) sample arrays")
    if a.size == 0 or b.size == 0:
        raise ValueError("energy distance needs nonempty sample sets")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample dimensions differ")
    return 2.0 * _mean_cross_norm(a, b) - _mean_cross_norm(a, a) - _mean_cross_norm(b, b)


def gaussian_kl(p: tuple, q: tuple):
    """KL(N(mean_p, cov_p) || N(mean_q, cov_q)), closed form.

    Means may also be rows (B, d) against shared covariances; the result is
    then one KL per row, since only the mean term varies.
    """
    mean_p, cov_p = p
    mean_q, cov_q = q
    mean_p = np.asarray(mean_p, dtype=float)
    mean_q = np.asarray(mean_q, dtype=float)
    cov_p = np.atleast_2d(np.asarray(cov_p, dtype=float))
    cov_q = np.atleast_2d(np.asarray(cov_q, dtype=float))
    d = cov_p.shape[0]
    try:
        chol_q = np.linalg.cholesky(cov_q)
        chol_p = np.linalg.cholesky(cov_p)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("KL needs positive-definite covariances") from exc
    solved = np.linalg.solve(cov_q, cov_p)
    log_det = 2.0 * (
        np.sum(np.log(np.diag(chol_q))) - np.sum(np.log(np.diag(chol_p)))
    )
    diff = np.atleast_1d(mean_q - mean_p)
    rows = diff.ndim == 2
    if rows:
        maha = np.einsum("bd,db->b", diff, np.linalg.solve(cov_q, diff.T))
    else:
        maha = diff @ np.linalg.solve(cov_q, diff)
    kl = 0.5 * (np.trace(solved) + maha - d + log_det)
    return kl if rows else float(kl)


def motion_variability(sequences: np.ndarray, frame_dim: int) -> float:
    """Mean squared difference between successive frames, averaged over rows."""
    seqs = np.atleast_2d(np.asarray(sequences, dtype=float))
    if seqs.shape[1] % frame_dim:
        raise ValueError("sequence width is not a multiple of frame_dim")
    n_frames = seqs.shape[1] // frame_dim
    if n_frames < 2:
        raise ValueError("motion variability needs at least 2 frames")
    frames = seqs.reshape(seqs.shape[0], n_frames, frame_dim)
    jumps = np.sum((frames[:, 1:] - frames[:, :-1]) ** 2, axis=2)
    return float(np.mean(jumps))


# ---------------------------------------------------------------------------
# injectivity audit
# ---------------------------------------------------------------------------


def _resample_complement(dist, chunk_index, anchors, t, n_resample, rng):
    """Fill complementary coordinates from p_t(rest | chunk), per anchor.

    Returns full-dimension states of shape (n_anchor * n_resample, total_dim)
    where each anchor's chunk coordinates repeat across its resamples.  All
    anchors are conditioned at once; sampling stays per anchor so the draw
    order matches one sample_clean_with_rng call per anchor.
    """
    spec = dist.spec
    sl = spec.chunk_slice(chunk_index)
    observed = np.arange(sl.start, sl.stop)
    rest = np.setdiff1d(np.arange(spec.total_dim), observed)
    cond = condition_on_coordinates(noisy_marginal(dist, t), observed, anchors)
    full = np.empty((anchors.shape[0] * n_resample, spec.total_dim))
    for b in range(anchors.shape[0]):
        z = cond.sample(b, n_resample, rng)
        block = full[b * n_resample : (b + 1) * n_resample]
        block[:, observed] = anchors[b]
        block[:, rest] = z
    return full


def injectivity_variance(
    dist: SequenceDistribution,
    chunk_index: int = 1,
    t: float = 0.5,
    n_anchor: int = 32,
    n_resample: int = 10_000,
    steps: int = 128,
    seed: int = 0,
) -> DiagnosticsReport:
    """Variance of the joint flow's chunk endpoint under complement resampling.

    For each anchor x_t ~ p_t: hold the chunk's noisy coordinates fixed,
    resample every other coordinate from the exact conditional of p_t, push
    the completed states through the joint flow map, and measure the variance
    of the endpoint's chunk coordinates.  An anchor "witnesses" sensitivity
    when its variance exceeds VARIANCE_WITNESS_FACTOR times its own MC
    standard error; the fraction of witnesses estimates whether the chunk
    value alone determines its endpoint.
    """
    spec = dist.spec
    if spec.n_chunks < 2:
        raise ConfigError("the audit needs at least two chunks to resample")
    if not (0.0 < t <= 1.0):
        raise ConfigError("audit time must lie in (0, 1]")
    if n_anchor < 2 or n_resample < 2:
        raise ConfigError("need at least 2 anchors and 2 resamples")
    rng = np.random.default_rng(seed)
    sl = spec.chunk_slice(chunk_index)

    x0 = sample_clean_with_rng(dist, n_anchor, rng)
    eps = rng.standard_normal(x0.shape)
    anchors = ((1.0 - t) * x0 + t * eps)[:, sl]

    full = _resample_complement(dist, chunk_index, anchors, t, n_resample, rng)
    endpoints = integrate(bi_velocity_field(dist), full, t, 0.0, steps)
    chunk_ends = endpoints[:, sl].reshape(n_anchor, n_resample, -1)

    per_anchor_var = chunk_ends.var(axis=1, ddof=1).sum(axis=1)
    centered = chunk_ends - chunk_ends.mean(axis=1, keepdims=True)
    sq = np.sum(centered**2, axis=2)
    fourth = np.mean(sq**2, axis=1)
    var_se = np.sqrt(
        np.maximum(fourth - per_anchor_var**2, 0.0) / (n_resample - 1)
    )
    witnesses = (per_anchor_var > VARIANCE_WITNESS_FACTOR * var_se) & (
        per_anchor_var > VARIANCE_ABS_FLOOR
    )

    report = DiagnosticsReport(name="injectivity_variance")
    mean_var, se = mean_with_se(per_anchor_var)
    report.add(
        "mean_variance", mean_var, se, n_anchor * n_resample,
        note=f"chunk {chunk_index}, t={t}",
    )
    report.add("max_variance", per_anchor_var.max(), float(var_se.max()), n_resample)
    report.add(
        "positive_fraction", witnesses.mean(), 0.0, n_anchor,
        note=f"variance > {VARIANCE_WITNESS_FACTOR} x its MC standard error",
    )
    return report


def injectivity_variance_oracle(dist: SequenceDistribution, chunk_index: int, t: float) -> float:
    """Closed form for single-Gaussian data: |M_cr|^2-weighted conditional
    covariance of the resampled coordinates, M the affine joint flow map."""
    if len(dist.components) != 1:
        raise ConfigError("the closed form covers single-component data only")
    from .ode import gaussian_flow_map

    comp = dist.components[0]
    spec = dist.spec
    m, _ = gaussian_flow_map(comp.mean, comp.covariance, t)
    sl = spec.chunk_slice(chunk_index)
    observed = np.arange(sl.start, sl.stop)
    rest = np.array([j for j in range(spec.total_dim) if j not in set(observed)])
    a = 1.0 - t
    noisy_cov = a * a * comp.covariance + t * t * np.eye(spec.total_dim)
    s_oo = noisy_cov[np.ix_(observed, observed)]
    s_rr = noisy_cov[np.ix_(rest, rest)]
    s_ro = noisy_cov[np.ix_(rest, observed)]
    cond_cov = s_rr - s_ro @ np.linalg.solve(s_oo, s_ro.T)
    m_cr = m[np.ix_(observed, rest)]
    return float(np.trace(m_cr @ cond_cov @ m_cr.T))


# ---------------------------------------------------------------------------
# collapse audit
# ---------------------------------------------------------------------------


def _conditional_mean_oracle(dist, chunk_index, anchors, t, n_inner, steps, rng):
    """Brute-force E[endpoint chunk | noisy chunk] under the joint flow."""
    full = _resample_complement(dist, chunk_index, anchors, t, n_inner, rng)
    endpoints = integrate(bi_velocity_field(dist), full, t, 0.0, steps)
    sl = dist.spec.chunk_slice(chunk_index)
    return endpoints[:, sl].reshape(anchors.shape[0], n_inner, -1).mean(axis=1)


def collapse_gap(
    students,
    dist: SequenceDistribution,
    t_set,
    n: int = 2000,
    chunk_index: int = 1,
    coupling: str = "bidirectional",
    n_rms: int | None = None,
    n_inner: int = 1500,
    steps: int = 128,
    seed: int = 0,
) -> DiagnosticsReport:
    """Distance of a trained generator from its predicted collapse target.

    coupling "bidirectional": the student saw chunk snapshots of joint
    trajectories, so the reference is the conditional mean of the joint
    flow's endpoint given the noisy chunk alone (MC over the unobserved
    coordinates).  coupling "autoregressive": the student saw per-chunk
    conditional flows given clean data prefixes, so the reference is the
    conditional flow map itself and no coordinate is unobserved.  The
    second-moment deficit compares the student's outputs on all n anchors to
    the data chunk's exact second moment; collapse makes it positive.  The
    oracle comparison runs on the first n_rms anchors per time (default all
    of them) because the bidirectional reference costs n_inner flow maps per
    anchor.
    """
    if coupling not in ("bidirectional", "autoregressive"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    if chunk_index != 1 and coupling == "bidirectional":
        raise ConfigError(
            "the bidirectional reference conditions on the noisy chunk alone, "
            "which matches the student inputs only for the first chunk"
        )
    spec = dist.spec
    member = students.member(chunk_index)
    rng = np.random.default_rng(seed)
    n_rms = n if n_rms is None else min(n_rms, n)
    from .models import predict_x0

    sq_gaps = []
    outputs = []
    for t in t_set:
        x0 = sample_clean_with_rng(dist, n, rng)
        if coupling == "bidirectional":
            eps = rng.standard_normal(x0.shape)
            x_t = ((1.0 - t) * x0 + t * eps)[:, spec.chunk_slice(chunk_index)]
            prefix = np.empty((n, 0))
            oracle = _conditional_mean_oracle(
                dist, chunk_index, x_t[:n_rms], t, n_inner, steps, rng
            )
        else:
            prefix = x0[:, spec.prefix_slice(chunk_index)]
            eps = rng.standard_normal((n, spec.chunk_dim))
            x_t = (1.0 - t) * x0[:, spec.chunk_slice(chunk_index)] + t * eps
            field_fn = chunk_velocity_field(dist, chunk_index, prefix[:n_rms])
            oracle = integrate(field_fn, x_t[:n_rms], t, 0.0, steps)
        pred = predict_x0(member, x_t, prefix, t)
        sq_gaps.append(np.sum((pred[:n_rms] - oracle) ** 2, axis=1))
        outputs.append(pred)

    sq_gaps = np.concatenate(sq_gaps)
    outputs = np.concatenate(outputs, axis=0)
    data_moment = chunk_second_moment(dist, chunk_index)
    out_sq = np.sum(outputs**2, axis=1)
    moment, moment_se = mean_with_se(out_sq)

    report = DiagnosticsReport(name="collapse_gap")
    report.add(
        "rms_gap",
        np.sqrt(np.mean(sq_gaps)),
        float(np.std(sq_gaps, ddof=1) / np.sqrt(sq_gaps.size)),
        sq_gaps.size,
        note=f"reference: {coupling} conditional mean",
    )
    report.add("output_second_moment", moment, moment_se, out_sq.size)
    report.add(
        "second_moment_deficit",
        data_moment - moment,
        moment_se,
        out_sq.size,
        note=f"data chunk second moment {data_moment:.6f} (exact)",
    )
    return report


def conditional_energy_distance(
    students,
    dist: SequenceDistribution,
    grid,
    chunk_index: int,
    count: int = 2000,
    seed: int = 0,
) -> float:
    """Joint (prefix, chunk) energy distance between student and data.

    Prefixes are clean data draws; the student samples its chunk with the
    few-step sampler, the reference pairs each prefix draw with the true
    clean chunk from an independent data draw.
    """
    spec = dist.spec
    rng = np.random.default_rng(seed)
    member = students.member(chunk_index)
    x0_a = sample_clean_with_rng(dist, count, rng)
    prefixes = x0_a[:, spec.prefix_slice(chunk_index)]
    samples = _sample_chunk_batch(member, prefixes, grid, rng)
    x0_b = sample_clean_with_rng(dist, count, rng)
    upto = spec.chunk_slice(chunk_index).stop
    return energy_distance(
        np.concatenate([prefixes, samples], axis=1), x0_b[:, :upto]
    )


# ---------------------------------------------------------------------------
# noisy-prefix conditional mismatch
# ---------------------------------------------------------------------------


def _single_gaussian_rows(cond):
    """Per-row means (B, d) and the shared covariance of a one-component
    BatchedConditional."""
    return cond.means[:, 0], cond.covariances[0]


def df_mismatch(
    dist: SequenceDistribution,
    chunk_index: int,
    t: float,
    n: int = 2000,
    seed: int = 0,
) -> DiagnosticsReport:
    """Expected KL between the noisy-prefix conditional evaluated at clean
    prefix values and the true clean conditional, over prefix draws.

    Each draw plugs the same clean prefix y into both conditionals; for
    Gaussian data both are Gaussian with prefix-free covariances, so the
    per-draw KL is closed form, only its mean term varies with y, and the MC
    part is only the average over y.
    """
    if chunk_index < 2:
        raise ConfigError("the first chunk has no prefix to mismatch")
    if not (0.0 < t <= 1.0):
        raise ConfigError("time must lie in (0, 1]")
    if len(dist.components) != 1:
        raise ConfigError(
            "per-draw closed-form KL is implemented for single-component data"
        )
    rng = np.random.default_rng(seed)
    spec = dist.spec
    x0 = sample_clean_with_rng(dist, n, rng)
    prefixes = x0[:, spec.prefix_slice(chunk_index)]
    noisy_cond = df_conditional_dist(dist, chunk_index, prefixes, t)
    clean_cond = condition_clean_prefix_batch(dist, chunk_index, prefixes)
    kls = gaussian_kl(
        _single_gaussian_rows(noisy_cond), _single_gaussian_rows(clean_cond)
    )
    value, se = mean_with_se(kls)
    report = DiagnosticsReport(name="df_mismatch")
    report.add("expected_kl", value, se, n, note=f"chunk {chunk_index}, t={t}")
    return report


def _prefix_regressions(dist: SequenceDistribution, chunk_index: int, t: float):
    """Closed-form conditionals of chunk i for single-Gaussian data.

    Returns (k_clean, v_clean, k_noisy, v_noisy): given a clean prefix y the
    chunk is N(mu_c + k_clean (y - mu_p), v_clean); given a noisy prefix
    z = a y + t w it is N(mu_c + k_noisy (z - a mu_p), v_noisy).
    """
    spec = dist.spec
    comp = dist.components[0]
    p_sl = spec.prefix_slice(chunk_index)
    c_sl = spec.chunk_slice(chunk_index)
    p_idx = np.arange(p_sl.start, p_sl.stop)
    c_idx = np.arange(c_sl.start, c_sl.stop)
    sigma = comp.covariance
    s_cc = sigma[np.ix_(c_idx, c_idx)]
    s_cp = sigma[np.ix_(c_idx, p_idx)]
    s_pp = sigma[np.ix_(p_idx, p_idx)]
    a = 1.0 - t

    # clean conditional: mean coef K_c = S_cp S_pp^-1, cov V_c
    k_clean = np.linalg.solve(s_pp, s_cp.T).T
    v_clean = s_cc - k_clean @ s_cp.T
    # noisy-prefix conditional: observe a * prefix + t * noise
    s_pp_noisy = a * a * s_pp + t * t * np.eye(p_idx.size)
    k_noisy = a * np.linalg.solve(s_pp_noisy, s_cp.T).T
    v_noisy = s_cc - a * k_noisy @ s_cp.T
    return k_clean, v_clean, k_noisy, v_noisy


def df_mismatch_oracle(dist: SequenceDistribution, chunk_index: int, t: float) -> float:
    """Analytic expectation of the df_mismatch KL for single-Gaussian data.

    Both conditionals are Gaussian with prefix-linear means; the variance
    terms are prefix-free and the mean term averages to a trace against the
    prefix second moment.
    """
    if len(dist.components) != 1:
        raise ConfigError("closed form covers single-component data only")
    k_clean, v_clean, k_noisy, v_noisy = _prefix_regressions(dist, chunk_index, t)
    comp = dist.components[0]
    p_sl = dist.spec.prefix_slice(chunk_index)
    s_pp = comp.covariance[p_sl, p_sl]

    d = v_clean.shape[0]
    solved = np.linalg.solve(v_clean, v_noisy)
    log_det = float(np.linalg.slogdet(v_clean)[1] - np.linalg.slogdet(v_noisy)[1])
    delta = k_noisy - k_clean
    # E over prefix y of the mean term; prefix second moment is S_pp + mu mu^T
    mu_p = comp.mean[p_sl]
    second = s_pp + np.outer(mu_p, mu_p)
    mean_term = float(np.trace(np.linalg.solve(v_clean, delta @ second @ delta.T)))
    return 0.5 * (np.trace(solved) + mean_term - d + log_det)


def trained_conditional_kl(
    students,
    dist: SequenceDistribution,
    chunk_index: int,
    n_prefix: int = 12,
    n_samples: int = 400,
    steps: int = 64,
    seed: int = 0,
) -> DiagnosticsReport:
    """KL of a trained velocity model's clean-prefix conditional to the data's.

    For each clean prefix draw, the model's conditional law is the endpoint
    cloud of its own velocity field integrated from fresh noise with that
    prefix held fixed; the cloud is moment-matched to a Gaussian and compared
    against the exact Gaussian conditional.  Averaging over prefixes gives
    the expected conditional KL that separates teacher forcing from
    diffusion forcing.
    """
    if len(dist.components) != 1:
        raise ConfigError("conditional KL oracle covers single-component data")
    from .stages import learned_conditional_endpoints

    spec = dist.spec
    rng = np.random.default_rng(seed)
    member = students.member(chunk_index)
    x0 = sample_clean_with_rng(dist, n_prefix, rng)
    prefix_draws = x0[:, spec.prefix_slice(chunk_index)]
    tiled = np.repeat(prefix_draws, n_samples, axis=0)
    endpoints = learned_conditional_endpoints(
        member, tiled, seed=int(rng.integers(2**32)), steps=steps
    )
    cond_means, cond_cov = _single_gaussian_rows(
        condition_clean_prefix_batch(dist, chunk_index, prefix_draws)
    )
    kls = np.empty(n_prefix)
    for p in range(n_prefix):
        cloud = endpoints[p * n_samples : (p + 1) * n_samples]
        moments = (cloud.mean(axis=0), np.atleast_2d(np.cov(cloud, rowvar=False)))
        kls[p] = gaussian_kl(moments, (cond_means[p], cond_cov))
    value, se = mean_with_se(kls)
    report = DiagnosticsReport(name="trained_conditional_kl")
    report.add(
        "expected_kl", value, se, n_prefix,
        note=f"chunk {chunk_index}, {n_samples} endpoints per prefix",
    )
    return report


def consistency_rms(
    students,
    dist: SequenceDistribution,
    grid,
    chunk_index: int,
    count: int = 1500,
    steps: int = 200,
    seed: int = 0,
) -> DiagnosticsReport:
    """RMS gap between one-shot student outputs and exact conditional-flow
    endpoints, over states visited at the grid times.

    Teacher trajectories run the conditional oracle field from fresh noise
    with clean data prefixes, recording the state at every grid time; the
    student maps each recorded state straight to time zero.  A trained
    consistency student should agree with the endpoint everywhere along the
    trajectory, so the average is over both draws and grid times.
    """
    times = tuple(grid)
    spec = dist.spec
    rng = np.random.default_rng(seed)
    member = students.member(chunk_index)
    x0 = sample_clean_with_rng(dist, count, rng)
    prefix = x0[:, spec.prefix_slice(chunk_index)]
    field_fn = chunk_velocity_field(dist, chunk_index, prefix)
    x = rng.standard_normal((count, spec.chunk_dim))
    endpoint, snaps = _integrate_segments(field_fn, x, _segment_plan(times, steps))

    from .models import predict_x0

    sq = []
    for t in times:
        pred = predict_x0(member, snaps[t], prefix, t)
        sq.append(np.sum((pred - endpoint) ** 2, axis=1))
    sq = np.concatenate(sq)
    report = DiagnosticsReport(name="consistency_rms")
    report.add(
        "rms_gap",
        float(np.sqrt(np.mean(sq))),
        float(np.std(sq, ddof=1) / np.sqrt(sq.size)),
        sq.size,
        note=f"chunk {chunk_index}, {len(times)} grid times, {steps}-step teacher",
    )
    return report
