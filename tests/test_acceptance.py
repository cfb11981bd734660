"""Acceptance gate: ten end-to-end properties at stated tolerances and budgets.

Each test prints one `[acceptance] criterion N (...)` verdict line before its
assertions, so a red run still reports every criterion's outcome (run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they happen).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ardlab.config import bivariate_pair, two_mode
from ardlab.diagnostics import (
    collapse_gap,
    conditional_energy_distance,
    consistency_rms,
    df_mismatch,
    df_mismatch_oracle,
    energy_distance,
    injectivity_variance,
    injectivity_variance_oracle,
    trained_conditional_kl,
)
from ardlab.distributions import sample_clean
from ardlab.models import (
    LinearStudent,
    TrainConfig,
    featurize,
    fit_ridge,
    make_chunk_models,
    predict,
    predict_x0,
)
from ardlab.ode import (
    DEFAULT_GRID,
    bi_velocity_field,
    gaussian_flow_map,
    integrate,
    make_pairs_bi,
    make_pairs_causal,
)
from ardlab.presets import PRESET_NAMES, run_all_presets, run_preset
from ardlab.stages import (
    cd_train,
    dmd_generator_gradient,
    dmd_train,
    ode_distill,
    rollout,
    train_ar_diffusion_df,
    train_ar_diffusion_tf,
)

INJECTIVITY_ORACLE = 0.06504545830264963
DF_MISMATCH_ORACLE = 0.12645006108444623


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} ({detail})", flush=True)


def test_criterion_1_velocity_oracle():
    start = time.perf_counter()
    dist = bivariate_pair(0.0)  # independent frames: N(0, I_2)
    axis = np.arange(-2.0, 3.0)
    points = np.array([(a, b) for a in axis for b in axis])
    worst = 0.0
    for t in np.arange(1, 10) / 10.0:
        v = bi_velocity_field(dist)(points, float(t))
        closed_form = (2.0 * t - 1.0) / (2.0 * t * t - 2.0 * t + 1.0) * points
        worst = max(worst, float(np.max(np.abs(v - closed_form))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _verdict(1, "velocity oracle", ok, f"max abs err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_solver_order():
    start = time.perf_counter()
    dist = bivariate_pair(0.8)
    component = dist.components[0]
    m, b = gaussian_flow_map(component.mean, component.covariance, 1.0)
    x1 = np.random.default_rng(2).standard_normal((512, 2))
    exact = x1 @ m.T + b
    field = bi_velocity_field(dist)
    errors = []
    for steps in (16, 32, 64, 128):
        endpoint = integrate(field, x1, 1.0, 0.0, steps)
        errors.append(float(np.sqrt(np.mean((endpoint - exact) ** 2))))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    elapsed = time.perf_counter() - start
    ok = all(3.0 <= r <= 5.0 for r in ratios) and elapsed < 5.0
    detail = "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    _verdict(2, "solver order", ok, f"{detail}, {elapsed:.2f}s")
    for ratio in ratios:
        assert 3.0 <= ratio <= 5.0
    assert elapsed < 5.0


def test_criterion_3_injectivity_audit():
    start = time.perf_counter()
    dist = bivariate_pair(0.8)
    assert injectivity_variance_oracle(dist, 1, 0.5) == pytest.approx(
        INJECTIVITY_ORACLE, abs=1e-12
    )
    measured = injectivity_variance(
        dist, chunk_index=1, t=0.5, n_anchor=24, n_resample=10_000, steps=96, seed=3
    )["mean_variance"].value
    rel_err = abs(measured - INJECTIVITY_ORACLE) / INJECTIVITY_ORACLE
    null = injectivity_variance(
        bivariate_pair(0.0), chunk_index=1, t=0.5, n_anchor=24, n_resample=2000,
        steps=96, seed=4,
    )["mean_variance"].value
    elapsed = time.perf_counter() - start
    ok = rel_err <= 0.10 and null < 1e-3 and elapsed < 30.0
    _verdict(
        3, "injectivity audit", ok,
        f"rho=0.8 variance {measured:.5f} vs oracle {INJECTIVITY_ORACLE:.5f} "
        f"(rel err {rel_err:.1%}), rho=0 variance {null:.1e}, {elapsed:.1f}s",
    )
    assert rel_err <= 0.10
    assert null < 1e-3
    assert elapsed < 30.0


def test_criterion_4_distillation_collapse():
    start = time.perf_counter()
    grid = DEFAULT_GRID
    cfg = TrainConfig(method="ridge", ridge_lambda=1e-6)

    def bidirectional_arm(rho, seed):
        dist = bivariate_pair(rho)
        pairs = make_pairs_bi(dist, grid, count=10_000, steps=128, seed=seed)
        students = make_chunk_models(
            dist.spec, "generator", m=1024, seed=seed + 1
        )
        ode_distill(pairs, students, cfg, seed=seed + 2)
        gap = collapse_gap(
            students, dist, grid.times, n=4000, chunk_index=1,
            coupling="bidirectional", n_rms=256, n_inner=800, steps=64, seed=seed + 3,
        )
        return students, gap

    asym_students, gap_corr = bidirectional_arm(0.8, seed=40)
    _, gap_null = bidirectional_arm(0.0, seed=50)
    rms = gap_corr["rms_gap"].value
    deficit = gap_corr["second_moment_deficit"]
    deficit_null = gap_null["second_moment_deficit"]

    dist = bivariate_pair(0.8)
    causal_pairs = make_pairs_causal(dist, grid, count=4096, steps=128, seed=60)
    causal_students = make_chunk_models(
        dist.spec, "generator", m=1024, seed=61
    )
    ode_distill(causal_pairs, causal_students, cfg, seed=62)
    ed_causal, ed_asym = conditional_energy_distance(
        [causal_students, asym_students], dist, grid, 2, count=6000, seed=63
    )
    elapsed = time.perf_counter() - start
    ok = (
        rms <= 0.05
        and deficit.value > 5.0 * deficit.uncertainty
        and abs(deficit_null.value) <= 3.0 * deficit_null.uncertainty
        and ed_causal < 0.05
        and ed_causal < 0.5 * ed_asym
        and elapsed < 120.0
    )
    _verdict(
        4, "asymmetric collapse vs causal distillation", ok,
        f"collapse rms {rms:.4f}, deficit {deficit.value:.4f} "
        f"({deficit.value / deficit.uncertainty:.0f} SE), rho=0 deficit "
        f"{deficit_null.value / deficit_null.uncertainty:+.1f} SE, conditional ED "
        f"causal {ed_causal:.4f} vs asymmetric {ed_asym:.4f}, {elapsed:.0f}s",
    )
    assert rms <= 0.05
    assert deficit.value > 5.0 * deficit.uncertainty
    assert abs(deficit_null.value) <= 3.0 * deficit_null.uncertainty
    assert ed_causal < 0.05
    assert ed_causal < 0.5 * ed_asym
    assert elapsed < 120.0


def test_criterion_5_forcing_mismatch():
    start = time.perf_counter()
    dist = bivariate_pair(0.8)
    assert df_mismatch_oracle(dist, 2, 0.5) == pytest.approx(
        DF_MISMATCH_ORACLE, abs=1e-12
    )
    entry = df_mismatch(dist, 2, 0.5, n=3000, seed=70)["expected_kl"]
    mc_gap = abs(entry.value - DF_MISMATCH_ORACLE)
    mc_ok = mc_gap <= 3.0 * entry.uncertainty + 1e-9

    cfg = TrainConfig(method="ridge", step_count=300, batch_size=100)
    tf_models = make_chunk_models(dist.spec, "ar-velocity", m=512, seed=71)
    df_models = make_chunk_models(dist.spec, "ar-velocity", m=512, seed=71)
    train_ar_diffusion_tf(dist, tf_models, cfg, seed=72)
    train_ar_diffusion_df(dist, df_models, cfg, seed=72)
    kl_tf, kl_df = (
        report["expected_kl"].value
        for report in trained_conditional_kl(
            [tf_models, df_models], dist, 2, n_prefix=12, n_samples=400,
            steps=64, seed=73,
        )
    )
    elapsed = time.perf_counter() - start
    ok = mc_ok and kl_df >= 5.0 * kl_tf and elapsed < 120.0
    _verdict(
        5, "noisy-prefix conditional mismatch", ok,
        f"MC KL {entry.value:.6f} within {mc_gap:.1e} of oracle "
        f"(3 SE = {3.0 * entry.uncertainty:.1e}), trained conditional KL "
        f"{kl_df:.4f} (noisy prefixes) vs {kl_tf:.4f} (clean prefixes), "
        f"ratio {kl_df / kl_tf:.1f}x, {elapsed:.0f}s",
    )
    assert mc_ok
    assert kl_df >= 5.0 * kl_tf
    assert elapsed < 120.0


def test_criterion_6_distribution_matching():
    start = time.perf_counter()
    dist = two_mode(3.0)
    grid = DEFAULT_GRID
    generators = make_chunk_models(
        dist.spec, "generator", m=256, seed=80
    )
    fakes = make_chunk_models(
        dist.spec, "fake-score", m=128, seed=81
    )
    data = sample_clean(dist, 2000, seed=82)
    ed_before = energy_distance(rollout(generators, grid, seed=83, count=2000), data)
    cfg = TrainConfig(
        method="ridge", step_count=500, batch_size=256, learning_rate=0.05,
        fake_update_ratio=2,
    )
    dmd_train(generators, fakes, dist, grid, cfg, seed=84)
    ed_after = energy_distance(rollout(generators, grid, seed=83, count=2000), data)

    # analytic generator gradient vs finite differences of the surrogate loss
    probe = make_chunk_models(
        dist.spec, "generator", m=32, seed=85
    ).member(1)
    probe = replace(probe, theta=np.random.default_rng(85).normal(size=probe.theta.shape))
    rng = np.random.default_rng(86)
    final_in = rng.standard_normal((64, 1))
    prefixes = np.empty((64, 0))
    delta = rng.standard_normal((64, 1))
    t_last = grid.times[-1]
    phi = featurize(probe.features, final_in, prefixes, t_last)
    analytic = dmd_generator_gradient(phi, t_last, delta)

    def surrogate(theta):
        model = replace(probe, theta=theta)
        return -float(np.mean(np.sum(delta * predict_x0(model, final_in, prefixes, t_last), axis=1)))

    h = 1e-6
    fd = np.empty_like(probe.theta)
    for j in range(probe.theta.shape[0]):
        bump = np.zeros_like(probe.theta)
        bump[j, 0] = h
        fd[j, 0] = (surrogate(probe.theta + bump) - surrogate(probe.theta - bump)) / (2 * h)
    fd_rel = float(np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)))

    # forcing the fake score to the real one must freeze the generator
    forced = make_chunk_models(
        dist.spec, "generator", m=256, seed=80
    )
    forced_fakes = make_chunk_models(
        dist.spec, "fake-score", m=128, seed=81
    )
    theta_before = forced.member(1).theta.copy()
    result = dmd_train(
        forced, forced_fakes, dist, grid,
        replace(cfg, step_count=50), seed=87, force_real_fake=True,
    )
    frozen = np.array_equal(forced.member(1).theta, theta_before)
    score_gap = float(np.max(result.loss_trace))

    elapsed = time.perf_counter() - start
    ok = (
        ed_after < 0.2 * ed_before
        and fd_rel < 1e-6
        and frozen
        and score_gap < 1e-8
        and elapsed < 120.0
    )
    _verdict(
        6, "distribution matching", ok,
        f"energy distance {ed_before:.3f} -> {ed_after:.3f} "
        f"({ed_after / ed_before:.2f}x initial), gradient FD rel err {fd_rel:.1e}, "
        f"forced real fake: theta frozen={frozen}, score gap {score_gap:.1e}, "
        f"{elapsed:.0f}s",
    )
    assert ed_after < 0.2 * ed_before
    assert fd_rel < 1e-6
    assert frozen
    assert score_gap < 1e-8
    assert elapsed < 120.0


def test_criterion_7_consistency_distillation():
    start = time.perf_counter()
    dist = bivariate_pair(0.8)
    cfg = TrainConfig(
        method="ridge", step_count=40, batch_size=4096, ema_rate=0.0,
        ridge_lambda=1e-6,
    )
    causal = make_chunk_models(
        dist.spec, "generator", m=512, seed=21
    )
    cd_train(dist, causal, cfg, seed=22, grid_size=12, teacher_kind="autoregressive")

    rng = np.random.default_rng(90)
    x = rng.standard_normal((256, 1))
    prefix = rng.standard_normal((256, 1))
    boundary_exact = np.array_equal(
        predict_x0(causal.member(2), x, prefix, 0.0), x
    ) and np.array_equal(
        predict_x0(causal.member(1), x, np.empty((256, 0)), 0.0), x
    )

    rms_causal = consistency_rms(
        causal, dist, DEFAULT_GRID, 2, count=2000, steps=200, seed=99
    )["rms_gap"].value

    asym = make_chunk_models(
        dist.spec, "generator", m=512, seed=21
    )
    cd_train(dist, asym, cfg, seed=22, grid_size=12, teacher_kind="bidirectional")
    rms_asym = consistency_rms(
        asym, dist, DEFAULT_GRID, 2, count=2000, steps=200, seed=99
    )["rms_gap"].value
    elapsed = time.perf_counter() - start
    ok = (
        boundary_exact
        and rms_causal <= 0.05
        and rms_asym > rms_causal
        and elapsed < 120.0
    )
    _verdict(
        7, "causal consistency distillation", ok,
        f"boundary exact={boundary_exact}, teacher-endpoint rms causal "
        f"{rms_causal:.4f} vs asymmetric {rms_asym:.4f}, {elapsed:.0f}s",
    )
    assert boundary_exact
    assert rms_causal <= 0.05
    assert rms_asym > rms_causal
    assert elapsed < 120.0


def test_criterion_8_ridge_and_jacobians():
    start = time.perf_counter()
    dist = bivariate_pair(0.8)
    member = make_chunk_models(dist.spec, "generator", m=24, seed=8).member(2)
    rng = np.random.default_rng(88)
    member = replace(member, theta=rng.normal(size=member.theta.shape))
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(1)
        y = rng.standard_normal(1)
        t = float(rng.uniform())
        analytic = featurize(member.features, x, y, t)
        fd = np.empty(member.features.m)
        for j in range(member.features.m):
            bump = np.zeros_like(member.theta)
            bump[j, 0] = h
            up = predict(replace(member, theta=member.theta + bump), x, y, t)
            down = predict(replace(member, theta=member.theta - bump), x, y, t)
            fd[j] = (up - down)[0] / (2 * h)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))))

    phi = rng.standard_normal((400, 32))
    targets = rng.standard_normal((400, 2))
    theta_star = fit_ridge(phi.T @ phi, phi.T @ targets, 1e-6)

    def loss(theta):
        resid = phi @ theta - targets
        return float(np.sum(resid**2) + 1e-6 * np.sum(theta**2))

    base = loss(theta_star)
    strict = True
    for _ in range(100):
        direction = rng.standard_normal(theta_star.shape)
        direction /= np.linalg.norm(direction)
        strict = strict and loss(theta_star + 1e-3 * direction) > base
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and strict
    _verdict(
        8, "ridge and gradient infrastructure", ok,
        f"Jacobian FD rel err {worst:.1e} over 100 points, ridge strict local "
        f"min under 100 perturbations={strict}, {elapsed:.0f}s",
    )
    assert worst < 1e-6
    assert strict


@pytest.fixture(scope="module")
def preset_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-suite")
    start = time.perf_counter()
    results = run_all_presets(output_dir=str(root))
    return results, time.perf_counter() - start, root


def test_criterion_9_reproducibility(preset_suite, tmp_path):
    _, _, root = preset_suite
    checked = 0
    identical = True
    for name in ("fig3-analog", "prop2-audit"):
        rerun = run_preset(name, output_dir=str(tmp_path))
        first = root / name
        rel_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        rel_rerun = sorted(
            p.relative_to(rerun.path) for p in rerun.path.rglob("*") if p.is_file()
        )
        identical = identical and rel_first == rel_rerun and len(rel_first) > 0
        for rel in rel_first:
            checked += 1
            identical = identical and (
                (first / rel).read_bytes() == (rerun.path / rel).read_bytes()
            )
    _verdict(
        9, "reproducibility", identical,
        f"{checked} artifact files byte-identical across independent reruns",
    )
    assert identical
    assert checked > 0


def test_criterion_10_suite_budget(preset_suite):
    results, elapsed, _ = preset_suite
    names = tuple(result.name for result in results)
    checks_pass = all(all(result.checks.values()) for result in results)
    ok = names == PRESET_NAMES and checks_pass and elapsed < 600.0
    _verdict(
        10, "preset suite budget", ok,
        f"{len(results)} presets, all checks pass={checks_pass}, "
        f"{elapsed:.0f}s sequential (< 600s)",
    )
    assert names == PRESET_NAMES
    assert checks_pass
    assert elapsed < 600.0


def test_d3_joint_init_starts_at_the_joint_data_baseline(preset_suite):
    # The joint-init student has the baseline's feature banks and head, so
    # d3 reports its starting distance without rolling it out again.
    results, _, _ = preset_suite
    d3 = next(result for result in results if result.name == "d3-init")
    energy = next(rep for rep in d3.reports if rep.name == "conditional_energy")
    assert energy["joint_init_before"].value == energy["joint_data_baseline"].value
    assert energy["joint_init_before"].value > 0.0
