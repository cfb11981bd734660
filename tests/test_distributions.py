"""Exact-law machinery: mixture kernels, conditionals, scores, moments."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ardlab import distributions
from ardlab.config import ar1_sequence, bivariate_pair, two_mode
from ardlab.diagnostics import _prefix_regressions
from ardlab.distributions import (
    GaussianComponent,
    SequenceDistribution,
    SequenceSpec,
    _condition,
    _mixture_posterior_mean,
    _mixture_score,
    chunk_second_moment,
    condition_clean_prefix_batch,
    condition_on_coordinates,
    df_conditional_dist,
    noisy_marginal,
    sample_clean,
)
from ardlab.errors import SingularCovarianceError

RHO = 0.8
DIST = bivariate_pair(RHO)


def test_spec_layout():
    spec = SequenceSpec(n_frames=6, frame_dim=2, chunk_size=3)
    assert spec.total_dim == 12
    assert spec.n_chunks == 2
    assert spec.chunk_dim == 6
    assert spec.chunk_slice(2) == slice(6, 12)
    assert spec.prefix_slice(2) == slice(0, 6)
    assert spec.prefix_dim(1) == 0


def test_spec_rejects_bad_chunking():
    with pytest.raises(ValueError):
        SequenceSpec(n_frames=5, frame_dim=1, chunk_size=2)
    with pytest.raises(ValueError):
        SequenceSpec(n_frames=0, frame_dim=1)


def test_component_validation():
    with pytest.raises(ValueError):
        GaussianComponent(1.0, np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        GaussianComponent(1.0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        SequenceDistribution(
            SequenceSpec(1, 1), (GaussianComponent(0.7, np.zeros(1), np.eye(1)),)
        )


def mean_and_covariance(dist):
    """Mean vector and covariance matrix of the mixture, from its components."""
    w = dist.weights
    mean = w @ dist._means
    cov = sum(
        wk * (c.covariance + np.outer(c.mean - mean, c.mean - mean))
        for wk, c in zip(w, dist.components)
    )
    return mean, cov


def exact_kernel(kernel, dist, x, t):
    """A mixture kernel of the whole law `dist` on rows x at time t."""
    return kernel(dist._log_w, dist._means, dist._eigvecs, dist._eigvals, x, t)


def test_sampling_matches_mixture_moments():
    dist = two_mode(3.0)
    draws = sample_clean(dist, 60_000, seed=3)
    mean, cov = mean_and_covariance(dist)
    assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
    assert np.allclose(np.cov(draws, rowvar=False), cov, atol=0.2)


def test_sampling_is_deterministic():
    a = sample_clean(DIST, 100, seed=11)
    b = sample_clean(DIST, 100, seed=11)
    assert np.array_equal(a, b)


def test_noisy_marginal_covariance():
    t = 0.4
    marg = noisy_marginal(DIST, t)
    comp = marg.components[0]
    expected = (1.0 - t) ** 2 * DIST.components[0].covariance + t**2 * np.eye(2)
    assert np.allclose(comp.covariance, expected)
    assert np.allclose(comp.mean, (1.0 - t) * DIST.components[0].mean)


def test_score_matches_log_density_gradient():
    dist = two_mode(2.0)
    t = 0.5
    h = 1e-6
    covs = dist._covs
    for x in (-2.5, -0.3, 0.0, 1.7):
        score = exact_kernel(_mixture_score, dist, np.array([[x]]), t)
        _, _, up = dense_kernels(dist._log_w, dist._means, covs, np.array([[x + h]]), t)
        _, _, dn = dense_kernels(dist._log_w, dist._means, covs, np.array([[x - h]]), t)
        fd = (up[0] - dn[0]) / (2.0 * h)
        assert abs(score[0, 0] - fd) < 1e-5


def test_posterior_mean_matches_tweedie():
    # E[(1 - t) x0 | x_t] = x_t + t^2 * score(x_t)
    dist = two_mode(3.0)
    t = 0.6
    x = np.array([[0.8], [-1.5], [2.2]])
    post = exact_kernel(_mixture_posterior_mean, dist, x, t)
    score = exact_kernel(_mixture_score, dist, x, t)
    assert np.allclose((1.0 - t) * post, x + t**2 * score, atol=1e-10)


def test_two_mode_posterior_mean_symmetry():
    dist = two_mode(3.0)
    post = exact_kernel(_mixture_posterior_mean, dist, np.array([[0.0], [1.0]]), 0.5)
    assert abs(post[0, 0]) < 1e-12
    assert post[1, 0] > 0.0


def test_condition_on_coordinates_schur():
    cov = DIST.components[0].covariance
    marg = noisy_marginal(DIST, 0.5)
    noisy_cov = marg.components[0].covariance
    cond = condition_on_coordinates(marg, np.array([0]), np.array([[1.2]]))
    expected_mean = noisy_cov[1, 0] / noisy_cov[0, 0] * 1.2
    expected_var = noisy_cov[1, 1] - noisy_cov[1, 0] ** 2 / noisy_cov[0, 0]
    assert np.allclose(cond.means[0, 0], [expected_mean], atol=1e-12)
    assert np.allclose(cond.covariances[0], [[expected_var]], atol=1e-12)
    assert cov is DIST.components[0].covariance  # untouched


def test_conditional_clean_dist_bivariate():
    cond = condition_clean_prefix_batch(DIST, 2, np.array([[0.7]]))
    assert np.allclose(cond.means[0, 0], [RHO * 0.7], atol=1e-12)
    assert np.allclose(cond.covariances[0], [[1.0 - RHO**2]], atol=1e-12)


def test_df_conditional_noisy_prefix_moments():
    # observing z = (1 - t) y + t w shrinks the regression coefficient to
    # (1 - t) rho / ((1 - t)^2 + t^2) and widens the conditional variance
    t = 0.3
    z = 0.9
    a = 1.0 - t
    cond = df_conditional_dist(DIST, 2, np.array([[z]]), t)
    coef = a * RHO / (a**2 + t**2)
    var = 1.0 - a * RHO * coef
    assert np.allclose(cond.means[0, 0], [coef * z], atol=1e-12)
    assert np.allclose(cond.covariances[0], [[var]], atol=1e-12)


@given(
    k=st.integers(1, 3),
    n_chunks=st.integers(2, 3),
    frame_dim=st.integers(1, 2),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_noisy_prefix_conditional_at_time_zero_is_the_clean_one(
    k, n_chunks, frame_dim, rows, seed
):
    # at t = 0 the noisy prefix is the clean prefix
    rng = np.random.default_rng(seed)
    dist = random_mixture(rng, k, n_chunks, frame_dim)
    i = int(rng.integers(2, n_chunks + 1))
    z = rng.standard_normal((rows, dist.spec.prefix_dim(i)))
    noisy = df_conditional_dist(dist, i, z, 0.0)
    clean = condition_clean_prefix_batch(dist, i, z)
    for field in ("log_w", "means", "covariances"):
        np.testing.assert_allclose(
            getattr(noisy, field), getattr(clean, field), rtol=0.0, atol=1e-12
        )


def test_exact_law_functions_refuse_anything_but_rows():
    for bad in (np.array([0.7]), np.zeros((1, 2)), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            condition_clean_prefix_batch(DIST, 2, bad)
        with pytest.raises(ValueError):
            df_conditional_dist(DIST, 2, bad, 0.5)
        with pytest.raises(ValueError):
            condition_on_coordinates(DIST, np.array([0]), bad)


def test_batched_conditional_matches_scalar_closed_form():
    # chunk 2 | y is N(rho y, 1 - rho^2); its posterior mean after noising is
    # the standard scalar-Gaussian formula
    prefixes = np.array([[0.5], [-1.0], [2.0]])
    cond = condition_clean_prefix_batch(DIST, 2, prefixes)
    t = 0.45
    a = 1.0 - t
    x = np.array([[0.2], [0.4], [-0.9]])
    mu = RHO * prefixes
    s2 = 1.0 - RHO**2
    expected = mu + a * s2 * (x - a * mu) / (a**2 * s2 + t**2)
    assert np.allclose(cond.posterior_mean(x, t), expected, atol=1e-10)


def test_batched_conditional_score_consistency():
    prefixes = np.array([[0.5], [-1.0]])
    cond = condition_clean_prefix_batch(DIST, 2, prefixes)
    t = 0.45
    x = np.array([[0.2], [-0.9]])
    post = cond.posterior_mean(x, t)
    # score of N((1-t) mu, (1-t)^2 s^2 + t^2) relates to the posterior mean by
    # s = ((1 - t) post - x) / t^2
    assert np.allclose(cond.score(x, t), ((1.0 - t) * post - x) / t**2, atol=1e-10)


def test_chunk_second_moment():
    assert chunk_second_moment(DIST, 1) == pytest.approx(1.0)
    assert chunk_second_moment(two_mode(3.0), 1) == pytest.approx(10.0)
    ar = ar1_sequence(6, 0.8, chunk_size=3)
    assert chunk_second_moment(ar, 2) == pytest.approx(3.0)


def test_ar1_covariance_structure():
    dist = ar1_sequence(4, 0.5)
    cov = dist.components[0].covariance
    assert cov[0, 3] == pytest.approx(0.5**3)
    assert np.allclose(np.diag(cov), 1.0)


# ---------------------------------------------------------------------------
# the batched conditioning kernel against dense per-row references
# ---------------------------------------------------------------------------


def random_mixture(rng, k, n_frames, frame_dim=1, chunk_size=1):
    """K random well-conditioned SPD components with random weights."""
    spec = SequenceSpec(n_frames=n_frames, frame_dim=frame_dim, chunk_size=chunk_size)
    dim = spec.total_dim
    weights = rng.dirichlet(np.ones(k))
    weights[-1] = 1.0 - weights[:-1].sum()
    comps = []
    for w in weights:
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T / dim + 0.5 * np.eye(dim)
        comps.append(GaussianComponent(float(w), rng.standard_normal(dim), 0.5 * (cov + cov.T)))
    return SequenceDistribution(spec, tuple(comps))


def dense_conditional(dist, observed, kept, value):
    """One row's conditional via the explicit inverse of the observed block:
    normalized weights, per-component means and covariances."""
    log_post, means, covs = [], [], []
    for comp in dist.components:
        s = comp.covariance
        inv = np.linalg.inv(s[np.ix_(observed, observed)])
        gain = s[np.ix_(kept, observed)] @ inv
        resid = value - comp.mean[observed]
        means.append(comp.mean[kept] + gain @ resid)
        covs.append(s[np.ix_(kept, kept)] - gain @ s[np.ix_(observed, kept)])
        log_det = np.linalg.slogdet(s[np.ix_(observed, observed)])[1]
        log_post.append(
            np.log(comp.weight)
            - 0.5 * (resid @ inv @ resid + log_det + observed.size * np.log(2 * np.pi))
        )
    log_post = np.array(log_post)
    w = np.exp(log_post - log_post.max())
    return w / w.sum(), np.array(means), np.array(covs)


@given(
    k=st.integers(1, 3),
    dim=st.integers(2, 6),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_condition_kernel_matches_dense_reference(k, dim, rows, seed):
    rng = np.random.default_rng(seed)
    dist = random_mixture(rng, k, dim)
    order = rng.permutation(dim)
    n_obs = int(rng.integers(1, dim))
    observed = np.sort(order[:n_obs])
    rest = order[n_obs:]
    kept = np.sort(rng.choice(rest, size=int(rng.integers(1, rest.size + 1)), replace=False))
    values = rng.standard_normal((rows, n_obs))
    cond = _condition(dist._log_w, dist._means, dist._covs, observed, kept, values)
    assert cond.batch == rows and cond.dim == kept.size
    for b in range(rows):
        w, means, covs = dense_conditional(dist, observed, kept, values[b])
        assert np.allclose(np.exp(cond.log_w[b]), w, rtol=0.0, atol=1e-9)
        assert np.allclose(cond.means[b], means, rtol=0.0, atol=1e-9)
        assert np.allclose(cond.covariances, covs, rtol=0.0, atol=1e-9)
    # the public wrapper keeps every unobserved coordinate
    batched = condition_on_coordinates(dist, observed, values)
    w, means, covs = dense_conditional(dist, observed, np.sort(rest), values[0])
    assert np.allclose(np.exp(batched.log_w[0]), w, rtol=0.0, atol=1e-9)
    assert np.allclose(batched.means[0], means, rtol=0.0, atol=1e-9)
    assert np.allclose(batched.covariances, covs, rtol=0.0, atol=1e-9)


@given(
    n_chunks=st.integers(2, 3),
    frame_dim=st.integers(1, 2),
    t=st.floats(0.05, 0.95),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_noisy_prefix_conditional_matches_oracle_regression(
    n_chunks, frame_dim, t, rows, seed
):
    rng = np.random.default_rng(seed)
    dist = random_mixture(rng, 1, n_chunks, frame_dim)
    i = int(rng.integers(2, n_chunks + 1))
    spec = dist.spec
    mean = dist.components[0].mean
    mu_p, mu_c = mean[spec.prefix_slice(i)], mean[spec.chunk_slice(i)]
    z = rng.standard_normal((rows, spec.prefix_dim(i)))
    k_clean, v_clean, k_noisy, v_noisy = _prefix_regressions(dist, i, t)
    noisy = df_conditional_dist(dist, i, z, t)
    expected = mu_c + (z - (1.0 - t) * mu_p) @ k_noisy.T
    assert np.allclose(noisy.means[:, 0], expected, rtol=0.0, atol=1e-9)
    assert np.allclose(noisy.covariances[0], v_noisy, rtol=0.0, atol=1e-9)
    clean = condition_clean_prefix_batch(dist, i, z)
    assert np.allclose(clean.means[:, 0], mu_c + (z - mu_p) @ k_clean.T, rtol=0.0, atol=1e-9)
    assert np.allclose(clean.covariances[0], v_clean, rtol=0.0, atol=1e-9)


def test_conditioning_singular_observed_block_raises():
    spec = SequenceSpec(n_frames=2, frame_dim=1)
    flat = np.array([[0.0, 0.0], [0.0, 1.0]])
    dist = SequenceDistribution(spec, (GaussianComponent(1.0, np.zeros(2), flat),))
    with pytest.raises(SingularCovarianceError):
        condition_clean_prefix_batch(dist, 2, np.array([[0.3]]))
    with pytest.raises(SingularCovarianceError):
        condition_clean_prefix_batch(dist, 2, np.array([[0.3], [0.1]]))


# ---------------------------------------------------------------------------
# the mixture posterior-mean and score kernels
# ---------------------------------------------------------------------------


def kernel_inputs(rng, k, dim, rows, per_row_t, per_row_laws):
    """Kernel arguments for K random SPD components over `dim` coordinates,
    plus the covariances; t and the weights and means are per row or shared."""
    a = rng.standard_normal((k, dim, dim))
    covs = a @ a.transpose(0, 2, 1) / dim + 0.5 * np.eye(dim)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    lam, q = np.linalg.eigh(covs)
    shape = (rows, k) if per_row_laws else (k,)
    log_w = np.log(rng.dirichlet(np.ones(k), size=shape[:-1] or None))
    means = rng.standard_normal(shape + (dim,))
    x = 2.0 * rng.standard_normal((rows, dim))
    t = rng.uniform(0.05, 1.0, rows) if per_row_t else float(rng.uniform(0.05, 1.0))
    return (log_w, means, q, np.clip(lam, 0.0, None), x, t), covs


def dense_kernels(log_w, means, covs, x, t):
    """Per-row posterior mean, score and log density by explicit solves of
    the noisy covariances a^2 S_k + t^2 I."""
    rows, dim = x.shape
    post, score, dens = np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows)
    for b in range(rows):
        tb = float(t[b]) if np.ndim(t) else float(t)
        ab = 1.0 - tb
        w = log_w[b] if log_w.ndim == 2 else log_w
        mu = means[b] if means.ndim == 3 else means
        log_post, pulled, whitened = [], [], []
        for k, cov in enumerate(covs):
            noisy = ab * ab * cov + tb * tb * np.eye(dim)
            r = x[b] - ab * mu[k]
            solved = np.linalg.solve(noisy, r)
            log_det = np.linalg.slogdet(noisy)[1]
            log_post.append(w[k] - 0.5 * (r @ solved + log_det + dim * np.log(2 * np.pi)))
            pulled.append(mu[k] + ab * cov @ solved)
            whitened.append(-solved)
        log_post = np.array(log_post)
        shift = log_post.max()
        dens[b] = shift + np.log(np.sum(np.exp(log_post - shift)))
        resp = np.exp(log_post - dens[b])
        post[b] = resp @ np.array(pulled)
        score[b] = resp @ np.array(whitened)
    return post, score, dens


KERNELS = (_mixture_posterior_mean, _mixture_score)


def row_args(args, rows):
    """Kernel arguments restricted to a slice of rows."""
    log_w, means, eigvecs, eigvals, x, t = args
    return (
        log_w[rows] if log_w.ndim == 2 else log_w,
        means[rows] if means.ndim == 3 else means,
        eigvecs, eigvals, x[rows],
        t[rows] if np.ndim(t) else t,
    )


@given(
    k=st.integers(1, 3),
    dim=st.integers(1, 6),
    rows=st.integers(0, 20),
    per_row_t=st.booleans(),
    per_row_laws=st.booleans(),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_mixture_kernels_match_dense_reference(
    k, dim, rows, per_row_t, per_row_laws, block, seed
):
    rng = np.random.default_rng(seed)
    args, covs = kernel_inputs(rng, k, dim, rows, per_row_t, per_row_laws)
    # an empty batch gives an empty result, with a scalar time or per-row
    # times alike (the dense reference loops over no rows)
    expected = dense_kernels(args[0], args[1], covs, args[4], args[5])
    with mock.patch.object(distributions, "_KERNEL_ROWS", block):
        for kernel, want in zip(KERNELS, expected):
            got = kernel(*args)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("per_row_t", [True, False])
def test_mixture_kernels_return_empty_for_an_empty_batch(per_row_t):
    rng = np.random.default_rng(0)
    args, _ = kernel_inputs(rng, 2, 3, 0, per_row_t, per_row_laws=False)
    for kernel in KERNELS:
        assert kernel(*args).shape == (0, 3)


@given(
    k=st.integers(1, 3),
    dim=st.integers(3, 6),
    per_row_t=st.booleans(),
    per_row_laws=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mixture_kernels_fold_a_one_row_rest_into_the_block_before(
    k, dim, per_row_t, per_row_laws, seed
):
    # 9 rows in blocks of 4 leave a 1-row rest.  With D >= 3 einsum reduces
    # a lone row in another order, so the rest must join the block before
    # it for the last row to get the bits it gets in any block of 2+ rows.
    rng = np.random.default_rng(seed)
    args, _ = kernel_inputs(rng, k, dim, 9, per_row_t, per_row_laws)
    with mock.patch.object(distributions, "_KERNEL_ROWS", 4):
        for kernel in KERNELS:
            got = kernel(*args)
            assert np.array_equal(got[7:], kernel(*row_args(args, slice(7, 9))))


def rowmajor_kernels(log_w, means, eigvecs, eigvals, x, t):
    """Row-major reference: posterior mean and score on (B, K, D) arrays,
    all rows in one piece."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 1:
        a = (1.0 - t_arr)[:, None, None]
        noisy_lam = a * a * eigvals[None, :, :] + (t_arr * t_arr)[:, None, None]
    else:
        a = 1.0 - float(t_arr)
        noisy_lam = a * a * eigvals[None, :, :] + float(t_arr) ** 2
    if means.ndim == 2:
        means = means[None, :, :]
    diff = x[:, None, :] - a * means
    y = np.einsum("bkd,kde->bke", diff, eigvecs)
    quad = np.einsum("bke,bke->bk", y * y, 1.0 / noisy_lam)
    log_det = np.sum(np.log(noisy_lam), axis=2)
    log_norm = -0.5 * (quad + log_det + eigvals.shape[1] * np.log(2.0 * np.pi))
    log_post = (log_w if log_w.ndim == 2 else log_w[None, :]) + log_norm
    shift = np.max(log_post, axis=1, keepdims=True)
    log_z = shift + np.log(np.sum(np.exp(log_post - shift), axis=1, keepdims=True))
    resp = np.exp(log_post - log_z)
    gain = a * eigvals[None, :, :] / noisy_lam
    pulled = np.einsum("kde,bke->bkd", eigvecs, gain * y)
    post = np.einsum("bk,bkd->bd", resp, means + pulled)
    per_comp = -np.einsum("kde,bke->bkd", eigvecs, y / noisy_lam)
    score = np.einsum("bk,bkd->bd", resp, per_comp)
    return post, score


@given(
    k=st.integers(1, 2),
    dim=st.integers(1, 2),
    rows=st.integers(1, 20),
    per_row_t=st.booleans(),
    per_row_laws=st.booleans(),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_mixture_kernels_keep_rowmajor_bits_up_to_two_dims(
    k, dim, rows, per_row_t, per_row_laws, block, seed
):
    # With D <= 2 and K <= 2 every reduction adds at most two terms, so the
    # coordinate-major blocks do the row-major kernel's arithmetic exactly.
    # This pins the bytes of the presets with one or two coordinates.
    rng = np.random.default_rng(seed)
    args, _ = kernel_inputs(rng, k, dim, rows, per_row_t, per_row_laws)
    expected = rowmajor_kernels(*args)
    with mock.patch.object(distributions, "_KERNEL_ROWS", block):
        for kernel, want in zip(KERNELS, expected):
            got = kernel(*args)
            assert np.array_equal(got, want)
            # a row's bits do not depend on the batch or block it sits in
            alone = [kernel(*row_args(args, slice(b, b + 1))) for b in range(rows)]
            assert np.array_equal(np.concatenate(alone), got)
