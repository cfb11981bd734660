"""Gaussian-mixture laws over fixed-length sequences, with exact oracles.

Every probabilistic quantity the lab needs (densities, scores, posterior
means, prefix conditionals) has a closed form for finite Gaussian mixtures,
which is what makes brute-force verification of the training stages
possible.  Distributions are immutable after construction; all sampling is
driven by explicit seeds or generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularCovarianceError

_SYM_TOL = 1e-12
_EIG_FLOOR = -1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))
# rows per block of the mixture kernels (see _mixture_blocks)
_KERNEL_ROWS = 8192


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSpec:
    """Shape of one sample: n_frames frames of frame_dim coordinates, grouped
    into chunks of chunk_size frames."""

    n_frames: int
    frame_dim: int
    chunk_size: int = 1

    def __post_init__(self):
        for name in ("n_frames", "frame_dim", "chunk_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.n_frames < 1 or self.frame_dim < 1:
            raise ValueError("n_frames and frame_dim must be positive")
        if not (1 <= self.chunk_size <= self.n_frames):
            raise ValueError("chunk_size must lie in [1, n_frames]")
        if self.n_frames % self.chunk_size != 0:
            raise ValueError("chunk_size must divide n_frames")

    @property
    def total_dim(self) -> int:
        return self.n_frames * self.frame_dim

    @property
    def n_chunks(self) -> int:
        return self.n_frames // self.chunk_size

    @property
    def chunk_dim(self) -> int:
        return self.chunk_size * self.frame_dim

    def chunk_slice(self, i: int) -> slice:
        """Flat-coordinate slice of chunk i (1-based)."""
        if not (1 <= i <= self.n_chunks):
            raise ValueError(f"chunk index {i} out of range 1..{self.n_chunks}")
        lo = (i - 1) * self.chunk_dim
        return slice(lo, lo + self.chunk_dim)

    def prefix_slice(self, i: int) -> slice:
        """Flat-coordinate slice of all chunks before chunk i (1-based)."""
        if not (1 <= i <= self.n_chunks):
            raise ValueError(f"chunk index {i} out of range 1..{self.n_chunks}")
        return slice(0, (i - 1) * self.chunk_dim)

    def prefix_dim(self, i: int) -> int:
        return (i - 1) * self.chunk_dim


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component with cached eigendecomposition.

    The eigensystem is reused everywhere: sampling, noisy-marginal densities,
    posterior means, and closed-form flow maps all share it, because noising
    the component only rescales its eigenvalues (a^2 lam + s^2) and never
    rotates the eigenvectors.
    """

    weight: float
    mean: np.ndarray
    covariance: np.ndarray
    eigvecs: np.ndarray = field(init=False, repr=False, compare=False)
    eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError("component weight must be finite and nonnegative")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("component mean and covariance must be finite")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        if np.max(np.abs(cov - cov.T), initial=0.0) > _SYM_TOL:
            raise ValueError("covariance must be symmetric within 1e-12")
        lam, q = np.linalg.eigh(cov)
        if np.min(lam) < _EIG_FLOOR:
            raise ValueError("covariance has an eigenvalue below -1e-12")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "eigvecs", q)
        object.__setattr__(self, "eigvals", np.clip(lam, 0.0, None))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class SequenceDistribution:
    """Finite Gaussian mixture over flattened sequences."""

    spec: SequenceSpec
    components: tuple[GaussianComponent, ...]
    # stacked per-component arrays, cached for vectorized kernels
    _log_w: np.ndarray = field(init=False, repr=False, compare=False)
    _means: np.ndarray = field(init=False, repr=False, compare=False)
    _covs: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        dim = self.spec.total_dim
        for c in comps:
            if c.dim != dim:
                raise ValueError("component dimension does not match the spec")
        w = np.array([c.weight for c in comps], dtype=float)
        if abs(float(w.sum()) - 1.0) > _SYM_TOL:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        object.__setattr__(self, "components", comps)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_w", np.log(w))
        object.__setattr__(self, "_means", np.stack([c.mean for c in comps]))
        object.__setattr__(self, "_covs", np.stack([c.covariance for c in comps]))
        object.__setattr__(self, "_eigvecs", np.stack([c.eigvecs for c in comps]))
        object.__setattr__(self, "_eigvals", np.stack([c.eigvals for c in comps]))

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self._log_w)


# ---------------------------------------------------------------------------
# vectorized mixture kernels (shared by exact ops and batched conditionals)
# ---------------------------------------------------------------------------


def _as_batch(x: np.ndarray, dim: int) -> np.ndarray:
    """x as float rows (B, dim); anything else raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected rows (B, {dim}), got shape {x.shape}")
    return x


def _check_nonsingular(noisy_lam: np.ndarray, t):
    # an empty batch of per-row times has nothing to invert
    if noisy_lam.size and np.min(noisy_lam) <= 0.0:
        raise SingularCovarianceError(
            f"noisy covariance is singular at t={t}; a degenerate component "
            "cannot be inverted at this time"
        )


def _mixture_blocks(log_w, means, eigvecs, eigvals, x, t):
    """Shared core: per row block, responsibilities and eigenbasis residuals.

    log_w: (K,) or (B, K); means: (K, D) or (B, K, D); x: (B, D).
    t may be a scalar or one time per row.  Noising a component rescales its
    eigenvalues to a^2 lam + s^2 without rotating eigenvectors, so all the
    Gaussian algebra happens on eigencoordinates.  They are laid out
    coordinate-major, (K, D, rows), over blocks of _KERNEL_ROWS rows, so
    every einsum and broadcast runs its inner loop along the rows instead
    of along D or K (often 1 or 2).  A 1-row rest joins the block before
    it: einsum reduces a lone row over D and K in another order, so its
    last bits could differ from the same row's in a larger block.  Yields
    (row slice, resp (K, n), y (K, D, n), noisy_lam, a,
    means (K, D, 1 or n)).  A one-component law yields resp = None and
    skips the responsibility algebra: for a finite row its log
    responsibility is exactly 0, so every weight would be exactly 1 and
    _mix gives the same bits without it.
    """
    t_arr = np.asarray(t, dtype=float)
    per_row = t_arr.ndim == 1
    # rounding is monotone, so the smallest noisy eigenvalue of every row
    # comes from the smallest clean one
    a_all = 1.0 - t_arr
    _check_nonsingular(a_all * a_all * np.min(eigvals) + t_arr * t_arr, t)
    if not per_row:
        a = 1.0 - float(t_arr)
        noisy_lam = a * a * eigvals[:, :, None] + float(t_arr) ** 2
    shared_w = log_w.ndim == 1
    if shared_w:
        log_w = log_w[:, None]
    shared_means = means.ndim == 2
    if shared_means:
        means = means[:, :, None]
    dim = eigvals.shape[1]
    n = x.shape[0]
    starts = list(range(0, n, _KERNEL_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        rows = slice(lo, hi)
        xt = np.ascontiguousarray(x[rows].T)  # (D, n)
        if per_row:
            a = a_all[None, None, rows]  # (1, 1, n)
            t_blk = t_arr[rows]
            noisy_lam = a * a * eigvals[:, :, None] + (t_blk * t_blk)[None, None, :]
        # per-row means are copied C-contiguous: a strided diff slows the
        # einsums several times over
        m = means if shared_means else np.ascontiguousarray(
            means[rows].transpose(1, 2, 0)
        )
        w = log_w if shared_w else log_w[rows].T
        diff = xt[None, :, :] - a * m  # (K, D, n)
        y = np.einsum("kdb,kde->keb", diff, eigvecs)  # coordinates in eigenbasis
        if eigvals.shape[0] == 1:
            yield rows, None, y, noisy_lam, a, m
            continue
        quad = np.einsum("keb,keb->kb", y * y, 1.0 / noisy_lam)
        log_det = np.sum(np.log(noisy_lam), axis=1)  # (K, 1 or n)
        log_norm = -0.5 * (quad + log_det + dim * _LOG_2PI)
        log_post = w + log_norm
        # log-space responsibilities with max subtraction for stability
        shift = np.max(log_post, axis=0)
        log_z = shift + np.log(np.sum(np.exp(log_post - shift), axis=0))
        yield rows, np.exp(log_post - log_z), y, noisy_lam, a, m


def _write_rows(out, rows, cols):
    """out[rows] = cols.T, one coordinate at a time: copying the (D, n) block
    in one call would run the inner loop along D."""
    for d, col in enumerate(cols):
        out[rows, d] = col


def _mix(resp, per_comp):
    """Responsibility-weighted sum over components, (K, D, n) -> (D, n).

    resp None is one component of weight exactly 1.  einsum sums from +0.0,
    so its -0.0 entries come out +0.0; adding 0.0 does the same here.
    """
    if resp is None:
        return per_comp[0] + 0.0
    return np.einsum("kb,kdb->db", resp, per_comp)


def _mixture_posterior_mean(log_w, means, eigvecs, eigvals, x, t):
    """E[x0 | x_t = x] for the mixture, batched over rows of x."""
    out = np.empty(x.shape)
    for rows, resp, y, noisy_lam, a, m in _mixture_blocks(
        log_w, means, eigvecs, eigvals, x, t
    ):
        gain = a * eigvals[:, :, None] / noisy_lam  # posterior gain per eigenmode
        pulled = np.einsum("kde,keb->kdb", eigvecs, gain * y)
        _write_rows(out, rows, _mix(resp, m + pulled))
    return out


def _mixture_score(log_w, means, eigvecs, eigvals, x, t):
    """Gradient of log p_t at x, batched over rows of x."""
    out = np.empty(x.shape)
    for rows, resp, y, noisy_lam, _, _ in _mixture_blocks(
        log_w, means, eigvecs, eigvals, x, t
    ):
        per_comp = -np.einsum("kde,keb->kdb", eigvecs, y / noisy_lam)
        _write_rows(out, rows, _mix(resp, per_comp))
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def sample_clean(dist: SequenceDistribution, count: int, seed) -> np.ndarray:
    """Draw `count` exact samples of the clean law; returns (count, D)."""
    rng = np.random.default_rng(seed)
    return sample_clean_with_rng(dist, count, rng)


def sample_clean_with_rng(
    dist: SequenceDistribution, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sampling core reused by callers that manage their own generator."""
    return _sample_mixture(
        dist.weights, dist._means, dist._eigvecs, dist._eigvals, count, rng
    )


def _sample_mixture(weights, means, eigvecs, eigvals, count, rng):
    """Draw `count` rows: component labels first, then one normal per row."""
    ks = rng.choice(weights.size, size=count, p=weights)
    eps = rng.standard_normal((count, means.shape[1]))
    out = np.empty((count, means.shape[1]))
    for k in range(weights.size):
        mask = ks == k
        if not np.any(mask):
            continue
        root = eigvecs[k] * np.sqrt(eigvals[k])[None, :]
        out[mask] = means[k][None, :] + eps[mask] @ root.T
    return out


def _noised_law(dist: SequenceDistribution, t: float, noised):
    """Component means and covariances of x_0 with the coordinates `noised`
    replaced by x_t = a x_0 + t eps (a = 1 - t).

    Scaling coordinate j by s_j (a if noised, else 1) maps a component
    N(mu, S) to N(s * mu, (s s^T) * S), and the noise adds t^2 to the noised
    diagonal entries.
    """
    scale = np.ones(dist.dim)
    scale[noised] = 1.0 - t
    extra = np.zeros(dist.dim)
    extra[noised] = t * t
    means = scale * dist._means
    covs = np.outer(scale, scale) * dist._covs + np.diag(extra)
    return means, covs


def noisy_marginal(dist: SequenceDistribution, t: float) -> SequenceDistribution:
    """The law of x_t as an explicit mixture: components N(a mu, a^2 S + s^2 I)."""
    means, covs = _noised_law(dist, t, np.arange(dist.dim))
    comps = tuple(
        GaussianComponent(weight=c.weight, mean=m, covariance=s)
        for c, m, s in zip(dist.components, means, covs)
    )
    return SequenceDistribution(spec=dist.spec, components=comps)


# ---------------------------------------------------------------------------
# conditionals (shared covariances, per-row means and weights)
# ---------------------------------------------------------------------------


@dataclass
class BatchedConditional:
    """Per-row conditional mixtures over the same kept coordinates.

    Gaussian conditional covariances do not depend on the observed value, so
    all rows share the component covariances (and their cached eigensystems)
    while means and weights vary per row.  This is what makes trajectory-level
    batching of the conditional velocity field cheap.
    """

    log_w: np.ndarray  # (B, K), normalized per row
    means: np.ndarray  # (B, K, D)
    covariances: np.ndarray  # (K, D, D)
    eigvecs: np.ndarray = field(init=False, repr=False)
    eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam, q = np.linalg.eigh(self.covariances)
        self.eigvals = np.clip(lam, 0.0, None)
        self.eigvecs = q

    @property
    def batch(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[2]

    def posterior_mean(self, x: np.ndarray, t: float) -> np.ndarray:
        return _mixture_posterior_mean(
            self.log_w, self.means, self.eigvecs, self.eigvals, x, t
        )

    def score(self, x: np.ndarray, t: float) -> np.ndarray:
        return _mixture_score(
            self.log_w, self.means, self.eigvecs, self.eigvals, x, t
        )

    def sample(self, b: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` samples of row b, in sample_clean_with_rng's order."""
        return _sample_mixture(
            np.exp(self.log_w[b]), self.means[b], self.eigvecs, self.eigvals,
            count, rng,
        )


def _condition(log_w, means, covs, observed, kept, values) -> BatchedConditional:
    """Condition every mixture component on coordinates `observed` = values.

    The one Gaussian-conditioning kernel.  log_w (K,), means (K, D) and
    covs (K, D, D) describe the mixture; values (B, len(observed)) holds one
    observation per row.  Per component, the Cholesky factor of the observed
    block gives the Schur complement over the `kept` coordinates, shared by
    every row, and per row the conditional mean plus the log marginal
    density of the observation that reweights the component.  Coordinates in
    neither set are marginalized out.  Raises SingularCovarianceError when an
    observed block is not positive definite.
    """
    nB, kK, nR = values.shape[0], log_w.size, kept.size
    if observed.size == 0:
        return BatchedConditional(
            np.broadcast_to(log_w, (nB, kK)).copy(),
            np.broadcast_to(means[:, kept], (nB, kK, nR)).copy(),
            covs[:, kept][:, :, kept],
        )
    cond_w = np.empty((nB, kK))
    cond_means = np.empty((nB, kK, nR))
    cond_covs = np.empty((kK, nR, nR))
    for k in range(kK):
        s_oo = covs[k][np.ix_(observed, observed)]
        s_ro = covs[k][np.ix_(kept, observed)]
        s_rr = covs[k][np.ix_(kept, kept)]
        try:
            chol = np.linalg.cholesky(s_oo)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                "observed covariance block is singular; cannot condition"
            ) from exc
        resid = values - means[k, observed][None, :]  # (B, O)
        # solve S_oo^{-1} resid and S_oo^{-1} S_or through the Cholesky factor
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid.T))  # (O, B)
        beta = np.linalg.solve(chol.T, np.linalg.solve(chol, s_ro.T))  # (O, R)
        cond_means[:, k, :] = means[k, kept][None, :] + (s_ro @ alpha).T
        cov = s_rr - s_ro @ beta
        cond_covs[k] = 0.5 * (cov + cov.T)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        quad = np.einsum("bo,ob->b", resid, alpha)
        cond_w[:, k] = log_w[k] - 0.5 * (quad + log_det + observed.size * _LOG_2PI)
    shift = np.max(cond_w, axis=1, keepdims=True)
    log_z = shift + np.log(np.sum(np.exp(cond_w - shift), axis=1, keepdims=True))
    if not np.all(np.isfinite(log_z)):
        raise SingularCovarianceError("conditioning produced no usable component")
    return BatchedConditional(cond_w - log_z, cond_means, cond_covs)


def condition_on_coordinates(
    dist: SequenceDistribution, observed_idx, values: np.ndarray
) -> BatchedConditional:
    """Exact mixture conditional on an arbitrary coordinate subset, one row
    of values (B, len(observed_idx)) per conditional.

    Weights are reweighted by each component's marginal density of the
    observation, accumulated in log space.  Every unobserved coordinate is
    kept.
    """
    observed_idx = np.asarray(observed_idx, dtype=int)
    values = _as_batch(values, observed_idx.size)
    rest_idx = np.setdiff1d(np.arange(dist.dim), observed_idx)
    if rest_idx.size == 0:
        raise ValueError("cannot condition on every coordinate")
    return _condition(
        dist._log_w, dist._means, dist._covs, observed_idx, rest_idx, values
    )


def _coordinates(sl: slice) -> np.ndarray:
    return np.arange(sl.start, sl.stop)


def condition_clean_prefix_batch(
    dist: SequenceDistribution, i: int, prefixes: np.ndarray
) -> BatchedConditional:
    """Law of clean chunk i given each row of clean prefixes (B, prefix_dim).

    Chunks after i are marginalized out, never conditioned on.
    """
    spec = dist.spec
    prefixes = _as_batch(prefixes, spec.prefix_dim(i))
    return _condition(
        dist._log_w, dist._means, dist._covs,
        _coordinates(spec.prefix_slice(i)), _coordinates(spec.chunk_slice(i)),
        prefixes,
    )


def df_conditional_dist(
    dist: SequenceDistribution, i: int, prefixes: np.ndarray, t: float
) -> BatchedConditional:
    """Law of clean chunk i given each row of noisy prefixes x_t^{<i} = z
    (B, prefix_dim) at time t.

    Per component, (x_t^{<i}, x0^i) is jointly Gaussian with
    Cov(x_t^{<i}) = a^2 S_PP + s^2 I and Cov(x0^i, x_t^{<i}) = a S_CP, so
    the conditional is the same Gaussian conditioning applied to that law.
    """
    spec = dist.spec
    chunk_idx = _coordinates(spec.chunk_slice(i))
    prefix_idx = _coordinates(spec.prefix_slice(i))
    if prefix_idx.size == 0:
        raise ValueError("chunk 1 has no prefix to condition on")
    z = _as_batch(prefixes, prefix_idx.size)
    means, covs = _noised_law(dist, t, prefix_idx)
    return _condition(dist._log_w, means, covs, prefix_idx, chunk_idx, z)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def chunk_second_moment(dist: SequenceDistribution, i: int) -> float:
    """E ||x0^i||^2 for chunk i, in closed form."""
    idx = _coordinates(dist.spec.chunk_slice(i))
    w = dist.weights
    mean = np.einsum("k,kd->d", w, dist._means)
    cov = np.zeros((dist.dim, dist.dim))
    for k, comp in enumerate(dist.components):
        diff = comp.mean - mean
        cov += w[k] * (comp.covariance + np.outer(diff, diff))
    return float(np.trace(cov[np.ix_(idx, idx)]) + mean[idx] @ mean[idx])
