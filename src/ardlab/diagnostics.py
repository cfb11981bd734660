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
* energy_distances / gaussian_kl / motion_variability -- distributional
  metrics used by the experiment presets; a comparison scores all its arms
  in one call, against one reference draw.

Every estimator is deterministic given its seed and reports sample counts
and uncertainties through DiagnosticsReport.  injectivity_variance (on a
one-component law) and df_mismatch add their closed form to their own
report as an oracle row; the closed forms take every conditional from
distributions' one Gaussian-conditioning kernel, and reject what their
estimators reject through one argument guard.
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
from .errors import ConfigError, DivergenceError, SingularCovarianceError
from .models import _row_blocks, _share, predict_x0
from .ode import (
    _integrate_through,
    bi_velocity_field,
    chunk_velocity_field,
    gaussian_flow_map,
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


def _check_audit(dist, chunk_index, t, first_chunk=1, closed_form=False):
    """Raise ConfigError for what an audit or its closed form cannot take.

    The law needs two chunks, chunk_index must lie in first_chunk..n_chunks
    and t in (0, 1]; closed_form also needs a one-component law.
    """
    n_chunks = dist.spec.n_chunks
    if n_chunks < 2:
        raise ConfigError("the audit needs at least two chunks")
    if not (first_chunk <= chunk_index <= n_chunks):
        raise ConfigError(f"chunk {chunk_index} out of range {first_chunk}..{n_chunks}")
    if not (0.0 < t <= 1.0):
        raise ConfigError("audit time must lie in (0, 1]")
    if closed_form and len(dist.components) != 1:
        raise ConfigError("the closed form covers single-component data only")


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


def energy_distances(sample_sets, reference: np.ndarray) -> list[float]:
    """2 E|A - B| - E|A - A'| - E|B - B'| of each set A against one set B.

    Every set is rows (n, d): a 1-D vector is refused, since it could be
    n scalar draws or one n-dimensional point.  Within-set terms include
    every ordered pair, which keeps the statistic nonnegative and exactly
    zero on identical sample sets.  E|B - B'| is taken once for all sets,
    so the arms of one comparison share it as they share the reference.
    """
    b = np.asarray(reference, dtype=float)
    sets = [np.asarray(a, dtype=float) for a in sample_sets]
    if not sets:
        raise ConfigError("energy_distances needs at least one sample set")
    for a in sets:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("energy distance needs 2-d (n, d) sample arrays")
        if a.size == 0 or b.size == 0:
            raise ValueError("energy distance needs nonempty sample sets")
        if a.shape[1] != b.shape[1]:
            raise ValueError("sample dimensions differ")
    bb = _mean_cross_norm(b, b)
    return [2.0 * _mean_cross_norm(a, b) - _mean_cross_norm(a, a) - bb for a in sets]


def energy_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """energy_distances of the one set `samples_a` against `samples_b`."""
    return energy_distances([samples_a], samples_b)[0]


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


def _complement_chunk_ends(dist, chunk_index, anchors, t, n_resample, steps, rng):
    """Joint-flow endpoints of the chunk after complement resampling.

    Each anchor's noisy chunk is held fixed while every other coordinate is
    drawn n_resample times from p_t(rest | chunk); the completed states run
    through the joint flow to t = 0.  Returns the chunk coordinates of the
    endpoints, (n_anchor, n_resample, chunk_dim).  All anchors are
    conditioned at once; sampling stays per anchor so the draw order matches
    one sample_clean_with_rng call per anchor.
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
    endpoints = _integrate_through(bi_velocity_field(dist), full, (t,), steps)[0]
    return endpoints[:, sl].reshape(anchors.shape[0], n_resample, -1)


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
    value alone determines its endpoint.  On a one-component law the report
    also holds the closed form, injectivity_variance_oracle, as
    oracle_variance.
    """
    _check_audit(dist, chunk_index, t)
    spec = dist.spec
    if n_anchor < 2 or n_resample < 2:
        raise ConfigError("need at least 2 anchors and 2 resamples")
    rng = np.random.default_rng(seed)
    sl = spec.chunk_slice(chunk_index)

    x0 = sample_clean_with_rng(dist, n_anchor, rng)
    eps = rng.standard_normal(x0.shape)
    anchors = ((1.0 - t) * x0 + t * eps)[:, sl]

    chunk_ends = _complement_chunk_ends(
        dist, chunk_index, anchors, t, n_resample, steps, rng
    )

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
    if len(dist.components) == 1:
        report.add(
            "oracle_variance", injectivity_variance_oracle(dist, chunk_index, t),
            0.0, 1, note="closed form, single Gaussian",
        )
    return report


def injectivity_variance_oracle(dist: SequenceDistribution, chunk_index: int, t: float) -> float:
    """Closed form for single-Gaussian data: |M_cr|^2-weighted conditional
    covariance of the resampled coordinates, M the affine joint flow map.

    The conditional covariance of p_t does not depend on the observed value,
    so the conditioning is taken at zero.
    """
    _check_audit(dist, chunk_index, t, closed_form=True)
    comp = dist.components[0]
    sl = dist.spec.chunk_slice(chunk_index)
    observed = np.arange(sl.start, sl.stop)
    rest = np.setdiff1d(np.arange(dist.dim), observed)
    cond = condition_on_coordinates(
        noisy_marginal(dist, t), observed, np.zeros((1, observed.size))
    )
    m, _ = gaussian_flow_map(comp.mean, comp.covariance, t)
    m_cr = m[np.ix_(observed, rest)]
    return float(np.trace(m_cr @ cond.covariances[0] @ m_cr.T))


# ---------------------------------------------------------------------------
# collapse audit
# ---------------------------------------------------------------------------


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
    sq_gaps = []
    outputs = []
    for t in t_set:
        x0 = sample_clean_with_rng(dist, n, rng)
        if coupling == "bidirectional":
            eps = rng.standard_normal(x0.shape)
            x_t = ((1.0 - t) * x0 + t * eps)[:, spec.chunk_slice(chunk_index)]
            prefix = np.empty((n, 0))
            # brute-force E[endpoint chunk | noisy chunk] under the joint flow
            oracle = _complement_chunk_ends(
                dist, chunk_index, x_t[:n_rms], t, n_inner, steps, rng
            ).mean(axis=1)
        else:
            prefix = x0[:, spec.prefix_slice(chunk_index)]
            eps = rng.standard_normal((n, spec.chunk_dim))
            x_t = (1.0 - t) * x0[:, spec.chunk_slice(chunk_index)] + t * eps
            field_fn = chunk_velocity_field(dist, chunk_index, prefix[:n_rms])
            oracle = _integrate_through(field_fn, x_t[:n_rms], (t,), steps)[0]
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
    student_sets,
    dist: SequenceDistribution,
    grid,
    chunk_index: int,
    count: int = 2000,
    seed: int = 0,
) -> list[float]:
    """Joint (prefix, chunk) energy distance between each student set and
    data, one value per set.

    Prefixes are clean data draws, and every set samples its chunk for them
    with the few-step sampler from the same generator state, so the sets of
    one comparison differ only in their models.  The reference pairs each
    prefix draw with the true clean chunk from an independent data draw,
    drawn once after the sampling.
    """
    student_sets = list(student_sets)
    if not student_sets:
        raise ConfigError("conditional_energy_distance needs at least one student set")
    spec = dist.spec
    rng = np.random.default_rng(seed)
    x0_a = sample_clean_with_rng(dist, count, rng)
    prefixes = x0_a[:, spec.prefix_slice(chunk_index)]
    start = rng.bit_generator.state
    joints = []
    for students in student_sets:
        rng.bit_generator.state = start
        samples = _sample_chunk_batch(students.member(chunk_index), prefixes, grid, rng)
        joints.append(np.concatenate([prefixes, samples], axis=1))
    x0_b = sample_clean_with_rng(dist, count, rng)
    upto = spec.chunk_slice(chunk_index).stop
    return energy_distances(joints, x0_b[:, :upto])


# ---------------------------------------------------------------------------
# noisy-prefix conditional mismatch
# ---------------------------------------------------------------------------


def _single_gaussian_rows(cond):
    """Per-row means (B, d) and the shared covariance of a one-component
    BatchedConditional."""
    return cond.means[:, 0], cond.covariances[0]


def _prefix_kls(dist, chunk_index, prefixes, t):
    """Per-row KL between the noisy-prefix conditional evaluated at each
    clean prefix row and the true clean conditional, single-Gaussian data."""
    noisy_cond = df_conditional_dist(dist, chunk_index, prefixes, t)
    clean_cond = condition_clean_prefix_batch(dist, chunk_index, prefixes)
    return gaussian_kl(
        _single_gaussian_rows(noisy_cond), _single_gaussian_rows(clean_cond)
    )


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
    part is only the average over y.  The report also holds the analytic
    expectation, df_mismatch_oracle, as oracle_kl.
    """
    oracle = df_mismatch_oracle(dist, chunk_index, t)  # also guards the arguments
    if n < 2:
        raise ConfigError("need at least 2 prefix draws")
    rng = np.random.default_rng(seed)
    x0 = sample_clean_with_rng(dist, n, rng)
    prefixes = x0[:, dist.spec.prefix_slice(chunk_index)]
    value, se = mean_with_se(_prefix_kls(dist, chunk_index, prefixes, t))
    report = DiagnosticsReport(name="df_mismatch")
    report.add("expected_kl", value, se, n, note=f"chunk {chunk_index}, t={t}")
    report.add("oracle_kl", oracle, 0.0, 1, note="analytic expectation")
    return report


def df_mismatch_oracle(dist: SequenceDistribution, chunk_index: int, t: float) -> float:
    """Analytic expectation of the df_mismatch KL for single-Gaussian data.

    Both conditionals are Gaussian with prefix-free covariances and means
    affine in the prefix y, so the per-draw KL is a quadratic in y plus
    prefix-free variance terms.  A quadratic's mean under N(mu_p, S_pp) is
    its average over the 2p symmetric sigma points mu_p +- sqrt(p) L_j (L
    the Cholesky factor of S_pp, p the prefix dimension), which share the
    law's mean and covariance (the unscented transform; Julier & Uhlmann
    1997).  So the per-draw KL of df_mismatch, averaged over those points,
    is exact, nonzero means included.
    """
    _check_audit(dist, chunk_index, t, first_chunk=2, closed_form=True)
    comp = dist.components[0]
    p_sl = dist.spec.prefix_slice(chunk_index)
    try:
        chol = np.linalg.cholesky(comp.covariance[p_sl, p_sl])
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("the prefix covariance is singular") from exc
    spread = np.sqrt(chol.shape[0]) * chol.T  # row j: sqrt(p) L_j
    points = comp.mean[p_sl] + np.concatenate([spread, -spread])
    return float(np.mean(_prefix_kls(dist, chunk_index, points, t)))


def trained_conditional_kl(
    student_sets,
    dist: SequenceDistribution,
    chunk_index: int,
    n_prefix: int = 12,
    n_samples: int = 400,
    steps: int = 64,
    seed: int = 0,
) -> list[DiagnosticsReport]:
    """KL of each trained velocity set's clean-prefix conditional to the
    data's, one report per set, in order.

    For each clean prefix draw, a set's conditional law is the endpoint
    cloud of its own velocity field integrated from fresh noise with that
    prefix held fixed; the cloud is moment-matched to a Gaussian and compared
    against the exact Gaussian conditional.  Averaging over prefixes gives
    the expected conditional KL that separates teacher forcing from
    diffusion forcing.  The prefixes, the noise and the exact conditional
    are drawn once, so the sets of one comparison differ only in their
    models; each set's integration is one models._share item, so the arms
    integrate at once and each gets the bits it gets alone.
    """
    sets = list(student_sets)
    spec = dist.spec
    if not sets:
        raise ConfigError("trained_conditional_kl needs at least one student set")
    for students in sets:
        students.expect("ar-velocity", spec, "trained_conditional_kl")
    if len(dist.components) != 1:
        raise ConfigError("conditional KL oracle covers single-component data")
    if not (1 <= chunk_index <= spec.n_chunks):
        raise ConfigError(f"chunk {chunk_index} out of range 1..{spec.n_chunks}")
    if n_prefix < 2:
        raise ConfigError("need at least 2 prefix draws")
    if n_samples <= spec.chunk_dim:
        # fewer endpoints than chunk_dim + 1 give a singular cloud covariance
        raise ConfigError(f"need more than {spec.chunk_dim} endpoints per prefix")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    x0 = sample_clean_with_rng(dist, n_prefix, rng)
    prefix_draws = x0[:, spec.prefix_slice(chunk_index)]
    tiled = np.repeat(prefix_draws, n_samples, axis=0)
    noise_rng = np.random.default_rng(int(rng.integers(2**32)))
    x1 = noise_rng.standard_normal((tiled.shape[0], spec.chunk_dim))
    cond_means, cond_cov = _single_gaussian_rows(
        condition_clean_prefix_batch(dist, chunk_index, prefix_draws)
    )

    def endpoints(students):
        field_fn = chunk_velocity_field(students, chunk_index, tiled)
        return integrate(field_fn, x1, 1.0, 0.0, steps)

    reports = []
    for position, ends in enumerate(_share(endpoints, sets)):
        kls = np.empty(n_prefix)
        for p in range(n_prefix):
            cloud = ends[p * n_samples : (p + 1) * n_samples]
            with np.errstate(over="ignore", invalid="ignore"):
                moments = (cloud.mean(axis=0), np.atleast_2d(np.cov(cloud, rowvar=False)))
            if not all(np.all(np.isfinite(m)) for m in moments):
                # huge but finite states pass integrate; their moments overflow
                raise DivergenceError(f"student set {position}: non-finite "
                                      f"endpoint moments for prefix {p}")
            kls[p] = gaussian_kl(moments, (cond_means[p], cond_cov))
        value, se = mean_with_se(kls)
        report = DiagnosticsReport(name="trained_conditional_kl")
        report.add(
            "expected_kl", value, se, n_prefix,
            note=f"chunk {chunk_index}, {n_samples} endpoints per prefix",
        )
        reports.append(report)
    return reports


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
    endpoint, snapshots = _integrate_through(field_fn, x, times, steps)
    sq = []
    for k, t in enumerate(times):
        pred = predict_x0(member, snapshots[:, k], prefix, t)
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
