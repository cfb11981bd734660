"""Velocity fields, fixed-step integration, closed-form flow maps, datasets."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ardlab import ode
from ardlab.config import ar1_sequence, bivariate_pair
from ardlab.distributions import (
    GaussianComponent,
    SequenceDistribution,
    SequenceSpec,
    sample_clean_with_rng,
)
from ardlab.errors import DivergenceError, GridError
from ardlab.models import make_chunk_models, predict
from ardlab.ode import (
    DEFAULT_GRID,
    TimestepGrid,
    _integrate_through,
    bi_velocity_field,
    chunk_velocity_field,
    gaussian_flow_map,
    integrate,
    make_pairs_bi,
    make_pairs_causal,
)

RHO = 0.8
DIST = bivariate_pair(RHO)
# two components, so its exact field is stepped row by row
MIXTURE = SequenceDistribution(DIST.spec, (
    GaussianComponent(0.3, np.array([1.0, -0.5]), DIST.components[0].covariance),
    GaussianComponent(0.7, np.array([-0.4, 0.2]), np.diag([0.5, 1.5])),
))


def standard_normal_dist(dim=2):
    spec = SequenceSpec(n_frames=dim, frame_dim=1, chunk_size=1)
    return SequenceDistribution(
        spec, (GaussianComponent(1.0, np.zeros(dim), np.eye(dim)),)
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_accepts_default():
    assert DEFAULT_GRID.times[0] == 1.0
    assert len(DEFAULT_GRID) == 4
    assert list(DEFAULT_GRID) == sorted(DEFAULT_GRID.times, reverse=True)


@pytest.mark.parametrize(
    "times",
    [(), (0.9, 0.5), (1.0, 0.5, 0.5), (1.0, 0.5, 0.7), (1.0, 0.0), (1.0, 1.2)],
)
def test_grid_rejects_malformed(times):
    with pytest.raises(GridError):
        TimestepGrid(times)


# ---------------------------------------------------------------------------
# velocity fields and integration
# ---------------------------------------------------------------------------


def test_standard_normal_velocity_closed_form():
    dist = standard_normal_dist(2)
    for t in (0.1, 0.4, 0.9):
        x = np.array([[1.5, -0.5], [0.0, 2.0]])
        v = bi_velocity_field(dist)(x, t)
        coef = (2.0 * t - 1.0) / (2.0 * t**2 - 2.0 * t + 1.0)
        assert np.allclose(v, coef * x, atol=1e-12)


def test_integrate_linear_field():
    # dx/dt = x integrated downward has the exact solution x * exp(t1 - t0)
    end = integrate(lambda x, t: x, np.array([[2.0]]), 0.9, 0.3, steps=400)
    assert end[0, 0] == pytest.approx(2.0 * np.exp(0.3 - 0.9), rel=1e-6)


def test_integrate_is_heun_only():
    with pytest.raises(ValueError):
        integrate(lambda x, t: x, np.array([[2.0]]), 0.9, 0.3, 4, method="euler")
    assert make_pairs_bi(DIST, count=2, steps=4).metadata["solver"] == "heun"


def test_gaussian_flow_map_matches_integrated_flow():
    comp = DIST.components[0]
    t = 0.7
    m, b = gaussian_flow_map(comp.mean, comp.covariance, t)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2))
    closed = x @ m.T + b
    numeric = integrate(bi_velocity_field(DIST), x, t, 0.0, steps=4096)
    assert np.max(np.abs(numeric - closed)) < 1e-6


def test_gaussian_flow_map_frozen_entry():
    # off-diagonal of the rho=0.8 map at t = 0.5, frozen from the eigenmode
    # formula sqrt(lam)/sqrt(a^2 lam + t^2) evaluated independently
    m, b = gaussian_flow_map(np.zeros(2), DIST.components[0].covariance, 0.5)
    assert m[0, 1] == pytest.approx(0.39353543527341023, abs=1e-12)
    assert np.allclose(b, 0.0)


def test_flow_map_transports_noise_to_data_moments():
    rng = np.random.default_rng(1)
    eps = rng.standard_normal((4000, 2))
    x0 = integrate(bi_velocity_field(DIST), eps, 1.0, 0.0, steps=128)
    cov = np.cov(x0, rowvar=False)
    assert np.allclose(cov, DIST.components[0].covariance, atol=0.08)


def test_conditional_flow_map_at_t1_is_affine():
    # from pure noise, the chunk-2 conditional flow given prefix y collapses
    # to x -> rho y + sqrt(1 - rho^2) x
    y = 1.0
    x = np.array([[-1.0], [0.0], [2.0]])
    field_fn = chunk_velocity_field(DIST, 2, np.full((3, 1), y))
    out = integrate(field_fn, x, 1.0, 0.0, steps=2048)
    expected = RHO * y + np.sqrt(1.0 - RHO**2) * x
    assert np.max(np.abs(out - expected)) < 1e-6


def test_chunk_velocity_field_oracle_gives_one_row_per_prefix():
    v = chunk_velocity_field(DIST, 2, np.array([[0.5]]))(np.array([[0.3]]), 0.6)
    assert v.shape == (1, 1)
    assert np.isfinite(v).all()


@given(
    i=st.integers(1, 3),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(i=3, rows=6, seed=4159497)
@settings(max_examples=25, deadline=None)
def test_chunk_field_from_models_matches_predict_per_row(i, rows, seed):
    rng = np.random.default_rng(seed)
    spec = SequenceSpec(n_frames=6, frame_dim=1, chunk_size=2)
    models = make_chunk_models(spec, role="ar-velocity", m=16, seed=seed % 1000)
    member = models.member(i)
    member.theta[:] = rng.standard_normal(member.theta.shape)
    x = rng.standard_normal((rows, spec.chunk_dim))
    prefixes = rng.standard_normal((rows, spec.prefix_dim(i)))
    t = 1.0 - rng.random(rows)
    field_fn = chunk_velocity_field(models, i, prefixes)
    v = field_fn(x, t)
    assert np.array_equal(v, predict(member, x, prefixes, t))
    for b in range(rows):
        one = predict(member, x[b : b + 1], prefixes[b : b + 1], float(t[b]))
        assert np.allclose(v[b], one[0], rtol=0.0, atol=1e-12)
    # the oracle source accepts the same per-row times
    dist = ar1_sequence(6, 0.7, 2)
    oracle = chunk_velocity_field(dist, i, prefixes)(x, t)
    for b in range(rows):
        field_b = chunk_velocity_field(dist, i, prefixes[b : b + 1])
        one = field_b(x[b : b + 1], float(t[b]))
        # the field is (x - m) / t and x - m carries the rounding of O(1)
        # values, so the error grows like eps / t
        assert np.allclose(oracle[b], one[0], rtol=0.0, atol=1e-12 / t[b])


@given(t=st.floats(0.05, 1.0))
@settings(max_examples=20, deadline=None)
def test_flow_map_identity_on_component_mean_ray(t):
    # the noised mean (1 - t) mu maps back to mu exactly for one Gaussian
    mean = np.array([0.4, -1.2])
    cov = DIST.components[0].covariance
    dist = SequenceDistribution(
        SequenceSpec(2, 1, 1), (GaussianComponent(1.0, mean, cov),)
    )
    m, b = gaussian_flow_map(mean, cov, t)
    back = m @ ((1.0 - t) * mean) + b
    assert np.allclose(back, mean, atol=1e-10)


# ---------------------------------------------------------------------------
# pair datasets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("times", [DEFAULT_GRID, (0.9, 0.5, 0.125)],
                         ids=["grid", "tuple"])
def test_integrate_through_matches_chained_integrate_calls(times):
    # a mixture's field is stepped row by row: the same bits as the chain
    field_fn = bi_velocity_field(MIXTURE)
    x = np.random.default_rng(3).standard_normal((50, 2))
    steps = 40
    endpoint, snapshots = _integrate_through(field_fn, x, times, steps)
    assert snapshots.shape == (50, len(times), 2)
    assert np.array_equal(snapshots[:, 0], x)
    assert not np.shares_memory(snapshots, x)
    bounds = list(times) + [0.0]
    state = x
    for k, (hi, lo) in enumerate(zip(bounds, bounds[1:])):
        assert np.array_equal(snapshots[:, k], state)
        sub = max(1, int(round(steps * (hi - lo) / bounds[0])))
        state = integrate(field_fn, state, hi, lo, sub)
    assert np.array_equal(endpoint, state)


def _random_gaussian(data):
    """A one-component law with 1-2 frames per chunk, 2-3 chunks, a nonzero
    mean and covariance A A^T / d + c I."""
    chunk_size = data.draw(st.integers(1, 2), label="chunk_size")
    n_chunks = data.draw(st.integers(2, 3), label="n_chunks")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    d = chunk_size * n_chunks
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d + rng.uniform(0.05, 1.0) * np.eye(d)
    mean = rng.uniform(0.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
    spec = SequenceSpec(n_frames=d, frame_dim=1, chunk_size=chunk_size)
    comp = GaussianComponent(1.0, mean, 0.5 * (cov + cov.T))
    return SequenceDistribution(spec, (comp,)), rng


def _chained(field_fn, x, times, steps):
    """_integrate_through's segments, each stepped row by row by integrate,
    and the smallest time at which the field is evaluated."""
    bounds = list(times) + [0.0]
    states, t_min = [x], 1.0
    for hi, lo in zip(bounds, bounds[1:]):
        sub = max(1, int(round(steps * (hi - lo) / bounds[0])))
        states.append(integrate(field_fn, states[-1], hi, lo, sub))
        t_min = min(t_min, lo + (hi - lo) / sub)
    return states, t_min


@given(
    data=st.data(),
    times=st.one_of(
        st.just(tuple(DEFAULT_GRID)),
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4, unique=True)
        .map(lambda ts: tuple(sorted(ts, reverse=True))),
    ),
    steps=st.integers(1, 96),
)
@settings(max_examples=40, deadline=None)
def test_affine_route_matches_row_stepping(data, times, steps):
    # on a one-component law the joint field and the prefix-conditioned chunk
    # fields take the affine route; it is Heun on the same grid reassociated,
    # so it matches the row-stepped chain to rounding.  The field is
    # (x - m) / t, so the rounding grows like eps * steps / t_min.
    dist, rng = _random_gaussian(data)
    spec = dist.spec
    i = data.draw(st.integers(2, spec.n_chunks), label="chunk")
    x = 2.0 * rng.standard_normal((30, spec.total_dim))
    prefixes = sample_clean_with_rng(dist, 30, rng)[:, spec.prefix_slice(i)]
    for field_fn, rows in (
        (bi_velocity_field(dist), x),
        (chunk_velocity_field(dist, i, prefixes), x[:, spec.chunk_slice(i)]),
    ):
        scale = 1.0 + np.max(np.abs(rows)) + np.max(np.abs(dist._means))
        # the grid, and one (t,) segment as the audits integrate
        for ts in (times, times[-1:]):
            endpoint, snapshots = _integrate_through(field_fn, rows, ts, steps)
            states, t_min = _chained(field_fn, rows, ts, steps)
            bound = 4.0 * np.finfo(float).eps * steps / t_min * scale
            assert np.array_equal(snapshots[:, 0], rows)
            for k in range(1, len(ts)):
                assert np.max(np.abs(snapshots[:, k] - states[k])) <= bound
            assert np.max(np.abs(endpoint - states[-1])) <= bound


@pytest.mark.parametrize("field_of", [
    lambda: bi_velocity_field(DIST),
    lambda: chunk_velocity_field(ar1_sequence(6, 0.7, 2), 3,
                                 np.linspace(-1.0, 1.0, 200).reshape(50, 4)),
    lambda: bi_velocity_field(MIXTURE),
], ids=["joint", "chunk", "mixture"])
def test_integrate_through_route_survives_a_wrapped_field(monkeypatch, field_of):
    # a profiler that hands integrate a functools.partial around the field
    # must not move the rows to another route (and so to other bits)
    field_fn = field_of()
    x = np.random.default_rng(4).standard_normal((50, 2))
    plain = _integrate_through(field_fn, x, DEFAULT_GRID, 40)
    calls = []

    def wrapped(field, *args, **kwargs):
        calls.append(field)
        return integrate(functools.partial(lambda f, x, t: f(x, t), field),
                         *args, **kwargs)

    monkeypatch.setattr(ode, "integrate", wrapped)
    shimmed = _integrate_through(field_fn, x, DEFAULT_GRID, 40)
    assert len(calls) == len(DEFAULT_GRID)
    assert np.array_equal(plain[0], shimmed[0])
    assert np.array_equal(plain[1], shimmed[1])


def test_affine_route_raises_divergence_naming_the_time():
    # the flow from t = 0.5 to 0 stretches the law's major axis by about
    # 1.6, so rows near the largest float overflow in the product; the error
    # names the segment's end time, as integrate's does
    x = np.full((3, 2), 1.5e308)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="t=0.0"):
        _integrate_through(bi_velocity_field(DIST), x, (0.5,), 16)


def test_make_pairs_bi_layout_and_determinism():
    ds = make_pairs_bi(DIST, DEFAULT_GRID, count=40, steps=32, seed=5)
    assert ds.provenance == "bidirectional"
    assert len(ds.records) == 80  # one record per (draw, chunk)
    cols = ds.records
    assert cols.seed.shape == (40,) and cols.seed.dtype == np.uint64
    assert cols.snapshots.shape == (40, len(DEFAULT_GRID), 2)
    assert cols.prefix.shape == (40, 1)
    assert cols.endpoint.shape == (40, 2)
    # the t = 1 snapshot is the trajectory's starting noise
    assert np.array_equal(
        cols.snapshots[0, 0], np.random.default_rng(int(cols.seed[0])).standard_normal(2)
    )
    again = make_pairs_bi(DIST, DEFAULT_GRID, count=40, steps=32, seed=5)
    assert np.array_equal(cols.seed, again.records.seed)
    assert np.array_equal(cols.endpoint, again.records.endpoint)
    assert np.array_equal(cols.snapshots, again.records.snapshots)


def test_make_pairs_bi_prefix_is_own_endpoint():
    ds = make_pairs_bi(ar1_sequence(3, 0.5), DEFAULT_GRID, count=10, steps=32, seed=5)
    cols = ds.records
    assert np.array_equal(cols.prefix, cols.endpoint[:, :2])


def test_make_pairs_causal_prefix_is_ground_truth():
    ds = make_pairs_causal(DIST, DEFAULT_GRID, count=30, steps=32, seed=9)
    assert ds.provenance == "autoregressive-oracle"
    assert len(ds.records) == 60
    cols = ds.records
    # the prefix is the clean draw made first from each trajectory's own seed
    for r in (0, 29):
        rng = np.random.default_rng(int(cols.seed[r]))
        assert np.array_equal(cols.prefix[r], sample_clean_with_rng(DIST, 1, rng)[0, :1])
    # chunk-2 endpoints given prefix y should center on rho y
    resid = cols.endpoint[:, 1] - RHO * cols.prefix[:, 0]
    assert abs(resid.mean()) < 4.0 * np.sqrt(1 - RHO**2) / np.sqrt(resid.size)
