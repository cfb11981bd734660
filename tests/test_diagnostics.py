"""Oracle-backed estimators and distributional metrics."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ardlab import diagnostics, models
from ardlab.config import ar1_sequence, bivariate_pair, two_mode
from ardlab.diagnostics import (
    DiagnosticsReport,
    MetricEntry,
    collapse_gap,
    conditional_energy_distance,
    consistency_rms,
    df_mismatch,
    df_mismatch_oracle,
    energy_distance,
    gaussian_kl,
    injectivity_variance,
    injectivity_variance_oracle,
    motion_variability,
    trained_conditional_kl,
)
from ardlab.diagnostics import _mean_cross_norm
from ardlab.distributions import GaussianComponent, SequenceDistribution
from ardlab.errors import ConfigError, DivergenceError, SingularCovarianceError
from ardlab.models import _THREAD_CELLS, _row_blocks, make_chunk_models
from ardlab.ode import DEFAULT_GRID

RHO = 0.8
DIST = bivariate_pair(RHO)


def _zero_students(spec, **kwargs):
    return make_chunk_models(spec, role="generator", m=8, seed=0, **kwargs)


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------


def test_report_and_entry_validation():
    report = DiagnosticsReport(name="probe")
    report.add("metric", 1.5, 0.1, 100, note="example")
    assert report["metric"].value == 1.5
    assert report["metric"].sample_count == 100
    with pytest.raises(ValueError):
        MetricEntry(value=float("nan"), uncertainty=0.0, sample_count=1)


def test_energy_distance_zero_on_identical_sets():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 2))
    assert energy_distance(a, a.copy()) == 0.0
    with pytest.raises(ValueError):
        energy_distance(a, rng.standard_normal((10, 3)))
    # a vector of n scalar draws is not read as one n-dimensional point:
    # for N(0, 1) against N(3, 1) at n = 2,000 that reading gives about 293,
    # while the (n, 1) rows give about the closed form 3.78
    x, y = rng.standard_normal(2000), rng.standard_normal(2000) + 3.0
    for pair in ((x, y), (x, y[:, None]), (x[:, None], y)):
        with pytest.raises(ValueError):
            energy_distance(*pair)
    assert energy_distance(x[:, None], y[:, None]) == pytest.approx(3.78, rel=0.05)


def _gram_mean_norm(a, b):
    """The unblocked Gram expansion, over one n_a x n_b array."""
    sq_a = np.sum(a * a, axis=1)
    sq_b = np.sum(b * b, axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    return float(np.mean(np.sqrt(np.maximum(d2, 0.0))))


@given(
    n_a=st.integers(1, 80),
    n_b=st.integers(1, 80),
    dim=st.integers(1, 3),
    cells=st.sampled_from([16, 64, 300, diagnostics._ENERGY_CELLS]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**16),
)
@example(n_a=1, n_b=37, dim=1, cells=64, scale=1.0, seed=0)
@example(n_a=45, n_b=1, dim=3, cells=16, scale=1.0, seed=1)
@example(n_a=58, n_b=13, dim=2, cells=64, scale=1.0, seed=2)
@settings(max_examples=60, deadline=None)
def test_blocked_mean_cross_norm_matches_the_unblocked_kernel(
    n_a, n_b, dim, cells, scale, seed
):
    # b sits one unit or more from a along the first coordinate, so no pair
    # distance is small enough for the Gram expansion to lose more than
    # about 1e-14 of it to cancellation.  With cells under 8 n_b the blocks
    # are 4 rows, so the last block of 58 rows is ragged.
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(-1.0, 1.0, (n_a, dim))
    b = scale * rng.uniform(-1.0, 1.0, (n_b, dim))
    b[:, 0] += 3.0 * scale
    with mock.patch.object(diagnostics, "_ENERGY_CELLS", cells):
        got = _mean_cross_norm(a, b)
    assert got == pytest.approx(_gram_mean_norm(a, b), rel=1e-12)
    brute = np.mean(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
    assert got == pytest.approx(brute, rel=1e-8)


def test_energy_distance_bits_do_not_depend_on_the_cpu_count():
    # 5 row blocks of a against b (the last one ragged), 6 of a against a
    # and 4 of b against b, each call with cells enough for two threads
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1200, 2))
    b = 0.5 + rng.standard_normal((900, 2))
    assert len(_row_blocks(1200, 900, diagnostics._ENERGY_CELLS)) == 5
    assert 900 * 900 >= 2 * _THREAD_CELLS
    runs = []
    for cpus in (1, 2):
        with mock.patch.object(models, "_cpu_count", lambda: cpus):
            runs.append(energy_distance(a, b))
    assert runs[0] == runs[1]


def test_energy_distance_memory_stays_bounded():
    # one 6,000 x 6,000 array of float64 alone would be 275 MiB
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6000, 2))
    b = 0.1 + rng.standard_normal((6000, 2))
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_energy_distance_matches_folded_normal_closed_form():
    # for X ~ N(0,1), Y ~ N(mu,1): D = 2 E|X - Y| - E|X - X'| - E|Y - Y'|
    # with each term a folded-normal mean
    def folded_mean(mu, sigma):
        return sigma * math.sqrt(2.0 / math.pi) * math.exp(
            -(mu**2) / (2 * sigma**2)
        ) + mu * math.erf(mu / (sigma * math.sqrt(2.0)))

    mu = 3.0
    closed = 2 * folded_mean(mu, math.sqrt(2)) - 2 * folded_mean(0.0, math.sqrt(2))
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4000, 1))
    b = mu + rng.standard_normal((4000, 1))
    assert energy_distance(a, b) == pytest.approx(closed, rel=0.03)


def test_gaussian_kl_known_values():
    p = (np.zeros(1), np.eye(1))
    assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-12)
    # KL(N(1,1) || N(0,1)) = 1/2
    assert gaussian_kl((np.ones(1), np.eye(1)), p) == pytest.approx(0.5)
    # scalar formula for unequal variances
    q = (np.zeros(1), 2.0 * np.eye(1))
    expected = 0.5 * (0.5 + 0.0 - 1.0 + math.log(2.0))
    assert gaussian_kl(p, q) == pytest.approx(expected, abs=1e-12)
    # rows of means against shared covariances: one KL per row
    rng = np.random.default_rng(3)
    cov_p = np.array([[1.0, 0.3], [0.3, 0.8]])
    cov_q = np.array([[1.5, -0.2], [-0.2, 1.1]])
    mp, mq = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    per_row = [gaussian_kl((mp[b], cov_p), (mq[b], cov_q)) for b in range(4)]
    assert np.allclose(gaussian_kl((mp, cov_p), (mq, cov_q)), per_row, atol=1e-12)


def test_motion_variability():
    seqs = np.array([[0.0, 1.0, 3.0]])
    assert motion_variability(seqs, 1) == pytest.approx((1.0 + 4.0) / 2.0)
    # AR(1): E (x_{i+1} - x_i)^2 = 2 (1 - corr)
    from ardlab.distributions import sample_clean

    draws = sample_clean(ar1_sequence(6, 0.8), 40_000, seed=2)
    assert motion_variability(draws, 1) == pytest.approx(2 * (1 - 0.8), rel=0.05)
    with pytest.raises(ValueError):
        motion_variability(np.zeros((2, 1)), 1)


# ---------------------------------------------------------------------------
# injectivity audit
# ---------------------------------------------------------------------------


def test_injectivity_oracle_frozen_value():
    assert injectivity_variance_oracle(DIST, 1, 0.5) == pytest.approx(
        0.06504545830264963, abs=1e-15
    )
    with pytest.raises(ConfigError):
        injectivity_variance_oracle(two_mode(3.0), 1, 0.5)


def test_injectivity_variance_tracks_oracle():
    report = injectivity_variance(
        DIST, 1, t=0.5, n_anchor=12, n_resample=2000, steps=64, seed=3
    )
    oracle = injectivity_variance_oracle(DIST, 1, 0.5)
    assert abs(report["mean_variance"].value - oracle) < 0.15 * oracle
    assert report["positive_fraction"].value >= 0.9


def test_injectivity_variance_vanishes_for_independent_frames():
    dist = bivariate_pair(0.0)
    report = injectivity_variance(
        dist, 1, t=0.5, n_anchor=8, n_resample=1500, steps=64, seed=4
    )
    assert report["mean_variance"].value < 1e-3
    assert report["positive_fraction"].value == 0.0


def test_injectivity_variance_guards():
    with pytest.raises(ConfigError):
        injectivity_variance(two_mode(3.0), 1, t=0.5)
    for chunk, t in ((1, 0.0), (1, 1.5), (3, 0.5)):
        with pytest.raises(ConfigError):
            injectivity_variance(DIST, chunk, t=t)
        with pytest.raises(ConfigError):
            injectivity_variance_oracle(DIST, chunk, t)
    assert type(injectivity_variance_oracle(DIST, 1, 0.5)) is float


def test_injectivity_variance_carries_its_oracle_on_one_component_laws():
    report = injectivity_variance(
        DIST, 1, t=0.5, n_anchor=2, n_resample=20, steps=8, seed=3
    )
    entry = report["oracle_variance"]
    assert entry.value == injectivity_variance_oracle(DIST, 1, 0.5)
    assert (entry.uncertainty, entry.sample_count) == (0.0, 1)
    assert entry.note == "closed form, single Gaussian"
    cov = DIST.components[0].covariance
    mixture = SequenceDistribution(DIST.spec, (
        GaussianComponent(0.5, np.array([1.0, 0.0]), cov),
        GaussianComponent(0.5, np.array([-1.0, 0.0]), cov),
    ))
    report = injectivity_variance(
        mixture, 1, t=0.5, n_anchor=2, n_resample=20, steps=8, seed=3
    )
    assert "oracle_variance" not in report.metrics


# ---------------------------------------------------------------------------
# collapse audit mechanics
# ---------------------------------------------------------------------------


def test_collapse_gap_zero_head_has_positive_deficit():
    # the anchored zero head is the identity map; its outputs carry the
    # noisy second moment (1-t)^2 + t^2 < 1, so the deficit must be positive
    students = _zero_students(DIST.spec)
    report = collapse_gap(
        students, DIST, t_set=(0.5,), n=800, chunk_index=1,
        coupling="bidirectional", n_rms=64, n_inner=400, steps=48, seed=5,
    )
    deficit = report["second_moment_deficit"]
    assert deficit.value > 5 * deficit.uncertainty
    assert report["rms_gap"].value > 0.1


def test_collapse_gap_couplings_and_guards():
    students = _zero_students(DIST.spec)
    auto = collapse_gap(
        students, DIST, t_set=(0.5,), n=400, chunk_index=2,
        coupling="autoregressive", n_rms=64, n_inner=1, steps=48, seed=6,
    )
    assert auto["rms_gap"].value > 0.0
    with pytest.raises(ConfigError):
        collapse_gap(students, DIST, t_set=(0.5,), chunk_index=2, coupling="bidirectional")
    with pytest.raises(ConfigError):
        collapse_gap(students, DIST, t_set=(0.5,), coupling="marginal")


def test_conditional_energy_distance_float_and_determinism():
    students = _zero_students(DIST.spec)
    [a] = conditional_energy_distance([students], DIST, DEFAULT_GRID, 2, count=300, seed=7)
    [b] = conditional_energy_distance([students], DIST, DEFAULT_GRID, 2, count=300, seed=7)
    assert isinstance(a, float)
    assert a == b
    assert a > 0.0


def _random_head_students(spec, seed, role="generator", scale=0.3):
    """Students whose heads are random, so that arms differ."""
    students = make_chunk_models(spec, role=role, m=16, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(1, spec.n_chunks + 1):
        member = students.member(i)
        theta = scale * rng.standard_normal(member.theta.shape)
        students.replace_member(i, dataclasses.replace(member, theta=theta))
    return students


@pytest.mark.parametrize("dist", [DIST, ar1_sequence(6, 0.8, 3)],
                         ids=["bivariate", "ar1-c3"])
def test_conditional_energy_distance_arms_match_their_single_calls(dist):
    arms = [_random_head_students(dist.spec, seed) for seed in (1, 2, 3)]
    joint = conditional_energy_distance(arms, dist, DEFAULT_GRID, 2, count=400, seed=5)
    singles = [
        conditional_energy_distance([students], dist, DEFAULT_GRID, 2, count=400, seed=5)[0]
        for students in arms
    ]
    assert joint == singles
    assert len(set(joint)) == 3


def test_energy_distances_match_energy_distance_bit_for_bit():
    rng = np.random.default_rng(4)
    reference = rng.standard_normal((300, 3))
    sets = [rng.standard_normal((n, 3)) + shift for n, shift in ((200, 0.0), (350, 0.5), (1, 2.0))]
    assert diagnostics.energy_distances(sets, reference) == [
        energy_distance(a, reference) for a in sets
    ]
    with pytest.raises(ValueError):
        diagnostics.energy_distances([sets[0], rng.standard_normal((10, 2))], reference)
    with pytest.raises(ValueError):
        diagnostics.energy_distances([sets[0], reference[:, 0]], reference)


def test_an_empty_set_list_is_refused_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("no work may precede the refusal")

    monkeypatch.setattr(diagnostics, "_mean_cross_norm", fail)
    monkeypatch.setattr(diagnostics, "sample_clean_with_rng", fail)
    with pytest.raises(ConfigError):
        diagnostics.energy_distances([], np.ones((5, 2)))
    with pytest.raises(ConfigError):
        conditional_energy_distance([], DIST, DEFAULT_GRID, 2, count=100, seed=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_arm_call_takes_the_reference_term_once(k, monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return _mean_cross_norm(a, b)

    monkeypatch.setattr(diagnostics, "_mean_cross_norm", counting)
    arms = [_random_head_students(DIST.spec, seed) for seed in range(k)]
    conditional_energy_distance(arms, DIST, DEFAULT_GRID, 2, count=100, seed=0)
    assert len(calls) == 1 + 2 * k


# ---------------------------------------------------------------------------
# noisy-prefix mismatch
# ---------------------------------------------------------------------------


def test_df_mismatch_oracle_frozen_value():
    assert df_mismatch_oracle(DIST, 2, 0.5) == pytest.approx(
        0.12645006108444623, abs=1e-12
    )


def test_df_mismatch_mc_equals_oracle_at_half():
    # at t = 0.5 the noisy and clean regression coefficients coincide for the
    # bivariate pair, so the per-draw KL is constant and the MC mean is exact
    report = df_mismatch(DIST, 2, 0.5, n=500, seed=8)
    assert report["expected_kl"].value == pytest.approx(
        df_mismatch_oracle(DIST, 2, 0.5), abs=1e-12
    )
    assert report["expected_kl"].uncertainty < 1e-12


def test_df_mismatch_mc_within_se_elsewhere():
    for t in (0.25, 0.75):
        report = df_mismatch(DIST, 2, t, n=1200, seed=9)
        oracle = df_mismatch_oracle(DIST, 2, t)
        entry = report["expected_kl"]
        assert abs(entry.value - oracle) <= 3 * entry.uncertainty + 1e-9


def test_df_mismatch_zero_for_independent_frames():
    report = df_mismatch(bivariate_pair(0.0), 2, 0.5, n=200, seed=10)
    assert report["expected_kl"].value < 1e-12


def test_df_mismatch_carries_its_oracle():
    entry = df_mismatch(DIST, 2, 0.25, n=50, seed=8)["oracle_kl"]
    assert entry.value == df_mismatch_oracle(DIST, 2, 0.25)
    assert (entry.uncertainty, entry.sample_count) == (0.0, 1)
    assert entry.note == "analytic expectation"
    # independent frames: both conditionals coincide, so the oracle is zero
    assert df_mismatch(bivariate_pair(0.0), 2, 0.5, n=50)["oracle_kl"].value == 0.0


def test_df_mismatch_guards():
    with pytest.raises(ConfigError):
        df_mismatch(two_mode(3.0), 1, 0.5)
    for chunk, t in ((1, 0.5), (2, 0.0), (2, 1.5), (3, 0.5)):
        with pytest.raises(ConfigError):
            df_mismatch(DIST, chunk, t)
        with pytest.raises(ConfigError):
            df_mismatch_oracle(DIST, chunk, t)
    assert type(df_mismatch_oracle(DIST, 2, 0.5)) is float
    flat = SequenceDistribution(DIST.spec, (
        GaussianComponent(1.0, np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]])),
    ))
    for audit in (df_mismatch, df_mismatch_oracle):
        with pytest.raises(SingularCovarianceError):
            audit(flat, 2, 0.5)


# ---------------------------------------------------------------------------
# trained-model metrics (mechanics on untrained students)
# ---------------------------------------------------------------------------


def test_trained_conditional_kl_mechanics():
    velocities = make_chunk_models(DIST.spec, role="ar-velocity", m=8, seed=11)
    [report] = trained_conditional_kl(
        [velocities], DIST, 2, n_prefix=4, n_samples=120, steps=24, seed=12
    )
    entry = report["expected_kl"]
    # the zero velocity model leaves noise untouched: N(0,1) vs N(rho y, 1-rho^2)
    assert entry.value > 0.1
    assert np.isfinite(entry.uncertainty)


def _kl_bits(report):
    entry = report["expected_kl"]
    return entry.value, entry.uncertainty


@pytest.mark.parametrize("cpus", [1, 2])
def test_trained_conditional_kl_arms_match_their_single_calls(cpus):
    arms = [_random_head_students(DIST.spec, seed, role="ar-velocity") for seed in (1, 2, 3)]
    kwargs = dict(n_prefix=3, n_samples=40, steps=8, seed=9)
    singles = [_kl_bits(trained_conditional_kl([vel], DIST, 2, **kwargs)[0]) for vel in arms]
    with mock.patch.object(models, "_cpu_count", lambda: cpus):
        joint = [_kl_bits(report) for report in trained_conditional_kl(arms, DIST, 2, **kwargs)]
    assert joint == singles
    assert len(set(joint)) == 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_diverging_arm_reaches_the_trained_kl_caller(cpus, position):
    arms = [_random_head_students(DIST.spec, seed, role="ar-velocity") for seed in (1, 2)]
    arms.insert(position, _random_head_students(DIST.spec, 3, role="ar-velocity", scale=np.inf))
    with mock.patch.object(models, "_cpu_count", lambda: cpus):
        with pytest.raises(DivergenceError):
            trained_conditional_kl(arms, DIST, 2, n_prefix=3, n_samples=40, steps=8, seed=9)


_VELOCITIES = make_chunk_models(DIST.spec, role="ar-velocity", m=8, seed=11)


@pytest.mark.parametrize(
    "sets, kwargs",
    [
        ([], {}),
        ([_zero_students(DIST.spec)], {}),
        ([make_chunk_models(ar1_sequence(3, 0.8, 1).spec, "ar-velocity", m=8, seed=1)], {}),
        ([_VELOCITIES], {"chunk_index": 3}),
        ([_VELOCITIES], {"chunk_index": 0}),
        ([_VELOCITIES], {"n_prefix": 1}),
        ([_VELOCITIES], {"n_prefix": 0}),
        ([_VELOCITIES], {"n_samples": 1}),
        ([_VELOCITIES], {"n_samples": 0}),
        ([_VELOCITIES], {"steps": 0}),
    ],
    ids=["no-sets", "generator-role", "other-layout", "chunk-past-end", "chunk-0",
         "one-prefix", "no-prefix", "one-sample", "no-sample", "no-step"],
)
def test_trained_conditional_kl_refuses_bad_arguments_before_any_draw(
    sets, kwargs, monkeypatch
):
    def fail(*args):
        raise AssertionError("no draw may precede the refusal")

    monkeypatch.setattr(diagnostics, "sample_clean_with_rng", fail)
    args = {"chunk_index": 2, "n_prefix": 4, "n_samples": 50, "steps": 4, **kwargs}
    with pytest.raises(ConfigError):
        trained_conditional_kl(sets, DIST, **args)


def test_consistency_rms_mechanics():
    students = _zero_students(DIST.spec)
    report = consistency_rms(students, DIST, DEFAULT_GRID, 2, count=300, steps=60, seed=13)
    assert report["rms_gap"].value > 0.1
    again = consistency_rms(students, DIST, DEFAULT_GRID, 2, count=300, steps=60, seed=13)
    assert report["rms_gap"].value == again["rms_gap"].value
