"""Training stages: denoising regression, distillation, DMD, consistency."""

import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ardlab.stages
from ardlab.config import ar1_sequence, bivariate_pair, two_mode
from ardlab.distributions import (
    GaussianComponent,
    SequenceDistribution,
    SequenceSpec,
    _mixture_score,
    sample_clean,
)
from ardlab.errors import ConfigError, DivergenceError
from ardlab.models import (
    RIDGE_READINGS,
    TrainConfig,
    _row_blocks,
    build_student,
    featurize,
    head_residual,
    make_chunk_models,
    normal_equations,
    predict,
    predict_x0,
    update_head,
)
from ardlab.ode import (
    DEFAULT_GRID,
    _segment_plan,
    bi_velocity_field,
    chunk_velocity_field,
    gaussian_flow_map,
    integrate,
    make_pairs_bi,
    make_pairs_causal,
)
from ardlab.stages import (
    StageResult,
    cd_train,
    dmd_generator_gradient,
    dmd_train,
    fake_score,
    ode_distill,
    rollout,
    train_ar_diffusion_tf,
)
from ardlab.stages import _distill_design
from ardlab.storage import load_dataset, save_dataset

RHO = 0.8
DIST = bivariate_pair(RHO)
SPEC = DIST.spec


def standard_normal_dist(dim):
    spec = SequenceSpec(n_frames=dim, frame_dim=1, chunk_size=1)
    return SequenceDistribution(
        spec, (GaussianComponent(1.0, np.zeros(dim), np.eye(dim)),)
    )


# ---------------------------------------------------------------------------
# velocity/score algebra
# ---------------------------------------------------------------------------


def test_score_from_velocity_matches_exact_score():
    t = 0.45
    x = np.array([[0.2, -0.7], [1.1, 0.4]])
    v = bi_velocity_field(DIST)(x, t)
    # the score a velocity field implies: s(x, t) = -(x + (1 - t) v) / t
    s = -(x + (1.0 - t) * v) / t
    exact = _mixture_score(DIST._log_w, DIST._means, DIST._eigvecs, DIST._eigvals, x, t)
    assert np.allclose(s, exact, atol=1e-10)


# ---------------------------------------------------------------------------
# stage 1: denoising regression
# ---------------------------------------------------------------------------


def test_tf_training_learns_standard_normal_velocity():
    # regression against the noisy target eps - x0 recovers the conditional
    # mean; with a 60k-row design the in-distribution error is noise-limited
    dist = standard_normal_dist(1)
    students = make_chunk_models(dist.spec, role="ar-velocity", m=256, seed=1)
    cfg = TrainConfig(method="ridge", step_count=600, batch_size=100)
    result = train_ar_diffusion_tf(dist, students, cfg, seed=2)
    assert result.loss_trace.shape == (1,)
    rng = np.random.default_rng(3)
    for t in (0.2, 0.5, 0.8):
        sd = np.sqrt((1 - t) ** 2 + t**2)
        x = sd * rng.standard_normal((200, 1))
        v = predict(students.member(1), x, np.empty((200, 0)), t)
        coef = (2 * t - 1) / (2 * t**2 - 2 * t + 1)
        assert np.sqrt(np.mean((v - coef * x) ** 2)) < 0.15


def test_velocity_training_rejects_wrong_role():
    students = make_chunk_models(SPEC, role="generator", m=16, seed=0)
    with pytest.raises(ConfigError):
        train_ar_diffusion_tf(DIST, students, TrainConfig(step_count=1), seed=0)


def test_sgd_velocity_training_descends():
    students = make_chunk_models(SPEC, role="ar-velocity", m=64, seed=3)
    cfg = TrainConfig(method="sgd", learning_rate=0.5, step_count=400, batch_size=128)
    result = train_ar_diffusion_tf(DIST, students, cfg, seed=4)
    assert result.loss_trace.shape == (400,)
    assert np.mean(result.loss_trace[-50:]) < np.mean(result.loss_trace[:50])


# ---------------------------------------------------------------------------
# stage 2: distillation
# ---------------------------------------------------------------------------


def _distilled_students(m=256, count=1500, seed=5):
    pairs = make_pairs_causal(DIST, DEFAULT_GRID, count=count, steps=96, seed=seed)
    students = make_chunk_models(
        SPEC, role="generator", m=m, seed=seed + 1, parameterization="anchored"
    )
    ode_distill(pairs, students, TrainConfig(method="ridge"), seed=seed + 2)
    return students


def test_distill_learns_conditional_flow_map():
    students = _distilled_students()
    rng = np.random.default_rng(6)
    worst = 0.0
    for t in DEFAULT_GRID:
        y = rng.standard_normal((64, 1))
        x = rng.standard_normal((64, 1))
        pred = predict_x0(students.member(2), x, y, t)
        # conditional flow map of N(rho y, 1 - rho^2): the per-eigenmode
        # rescaling x0 = mu + s (x - a mu) / sqrt(a^2 s^2 + t^2)
        a, s2 = 1.0 - t, 1.0 - RHO**2
        expected = RHO * y + np.sqrt(s2) * (x - a * RHO * y) / np.sqrt(a**2 * s2 + t**2)
        worst = max(worst, float(np.sqrt(np.mean((pred - expected) ** 2))))
    assert worst < 0.05


def test_distill_requires_generator_role_and_matching_spec():
    pairs = make_pairs_causal(DIST, DEFAULT_GRID, count=8, steps=8, seed=0)
    wrong_role = make_chunk_models(SPEC, role="ar-velocity", m=8, seed=0)
    with pytest.raises(ConfigError):
        ode_distill(pairs, wrong_role, TrainConfig(), seed=0)
    other_spec = SequenceSpec(n_frames=4, frame_dim=1, chunk_size=1)
    wrong_spec = make_chunk_models(other_spec, role="generator", m=8, seed=0)
    with pytest.raises(ConfigError):
        ode_distill(pairs, wrong_spec, TrainConfig(), seed=0)


def test_distill_noisy_prefix_needs_bidirectional_data():
    pairs = make_pairs_causal(DIST, DEFAULT_GRID, count=8, steps=8, seed=0)
    students = make_chunk_models(SPEC, role="generator", m=8, seed=0)
    with pytest.raises(ConfigError):
        ode_distill(pairs, students, TrainConfig(), seed=0, prefix_mode="noisy")


def _design_from_file(path, prefix_mode):
    """Reference distill design, built record by record from a saved file.

    A noisy prefix joins the snapshots of the record's sibling chunks, found
    by seed, at the same time.
    """
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    recs = [json.loads(line) for line in lines[1:]]
    siblings = {(rec["seed"], rec["chunk_index"]): rec for rec in recs}
    n_chunks = header["spec"]["n_frames"] // header["spec"]["chunk_size"]
    keys = ["{:.6f}".format(t) for t in header["grid"]]
    design = {}
    for i in range(1, n_chunks + 1):
        rows = {"chunk": [], "prefix": [], "t": [], "target": []}
        for rec in recs:
            if rec["chunk_index"] != i:
                continue
            for t, key in zip(header["grid"], keys):
                rows["chunk"].append(rec["snapshots"][key])
                if prefix_mode == "noisy":
                    rows["prefix"].append(
                        [v for j in range(1, i)
                         for v in siblings[(rec["seed"], j)]["snapshots"][key]]
                    )
                else:
                    rows["prefix"].append(rec["prefix"])
                rows["t"].append(t)
                rows["target"].append(rec["endpoint"])
        design[i] = {k: np.array(v, dtype=float) for k, v in rows.items()}
    return design


@pytest.mark.parametrize(
    "build, prefix_mode",
    [(make_pairs_bi, "clean"), (make_pairs_bi, "noisy"), (make_pairs_causal, "clean")],
    ids=["bi-clean", "bi-noisy", "causal-clean"],
)
def test_distill_design_matches_record_by_record_reference(tmp_path, build, prefix_mode):
    ds = build(ar1_sequence(3, 0.5), DEFAULT_GRID, count=7, steps=8, seed=3)
    path = tmp_path / "pairs.jsonl"
    save_dataset(ds, path)
    expected = _design_from_file(path, prefix_mode)
    for data in (ds, load_dataset(path)):
        design = _distill_design(data, prefix_mode)
        assert design.keys() == expected.keys()
        for i, rows in expected.items():
            assert design[i].keys() == rows.keys()
            for key, want in rows.items():
                assert np.array_equal(design[i][key], want), (i, key)


def _watch_featurize(monkeypatch):
    """Count the stage's featurize calls; fail one made while an earlier
    call's features are still alive.  Returns weak references to them."""
    live = []

    def watched(*args):
        assert all(ref() is None for ref in live), "two chunks' features held at once"
        phi = featurize(*args)
        live.append(weakref.ref(phi))
        return phi

    monkeypatch.setattr(ardlab.stages, "featurize", watched)
    return live


def _run_ridge_stage(stage, m):
    """Run one stage with method "ridge" on designs of more than 16 rows."""
    dist = ar1_sequence(3, 0.5)
    cfg = TrainConfig(
        method="ridge", step_count=4, batch_size=32, fake_update_ratio=2
    )
    if stage == "velocity":
        students = make_chunk_models(dist.spec, role="ar-velocity", m=m, seed=56)
        return train_ar_diffusion_tf(dist, students, cfg, seed=57)
    students = make_chunk_models(
        dist.spec, role="generator", m=m, seed=54, parameterization="anchored"
    )
    if stage == "distill":
        pairs = make_pairs_causal(dist, DEFAULT_GRID, count=24, steps=8, seed=53)
        return ode_distill(pairs, students, cfg, seed=55)
    if stage == "dmd":
        fakes = make_chunk_models(
            dist.spec, role="fake-score", m=m, seed=58, parameterization="anchored"
        )
        return dmd_train(students, fakes, dist, DEFAULT_GRID, cfg, seed=59)
    return cd_train(dist, students, cfg, seed=60, grid_size=4)


@pytest.mark.parametrize("stage", ["velocity", "distill", "dmd", "cd"])
def test_ridge_stage_featurizes_one_block_at_a_time(monkeypatch, stage):
    # Blocks of 16 rows at m = 32.  Every ridge fit featurizes its design in
    # exactly _row_blocks' partition, one block per featurize call, and the
    # stage itself featurizes nothing but the DMD generator's SGD batches.
    m = 32
    cells = 16 * m
    monkeypatch.setattr(ardlab.models, "_NORMAL_CELLS", cells)
    fits = []  # per ridge fit, the rows of each featurize call it made
    inside = []

    def watched_featurize(*args, **kwargs):
        out = featurize(*args, **kwargs)
        if inside and kwargs.get("head") is None:
            fits[-1].append(out.shape[0])
        return out

    def watched_normal_equations(spec, chunk, *args):
        fits.append([])
        inside.append(True)
        try:
            return normal_equations(spec, chunk, *args)
        finally:
            inside.pop()
            blocks = _row_blocks(len(chunk), spec.m, cells)
            assert fits[-1] == [b - a for a, b in blocks]

    stage_rows = []

    def stage_featurize(*args, **kwargs):
        stage_rows.append(len(args[1]))
        return featurize(*args, **kwargs)

    monkeypatch.setattr(ardlab.models, "featurize", watched_featurize)
    monkeypatch.setattr(ardlab.stages, "normal_equations", watched_normal_equations)
    monkeypatch.setattr(ardlab.stages, "featurize", stage_featurize)
    result = _run_ridge_stage(stage, m)

    assert fits and max(sum(rows) for rows in fits) > 16
    assert max(max(rows) for rows in fits) <= 16 + 1  # a 1-row rest joins
    if stage == "dmd":
        assert stage_rows == [32] * 4  # the generator's gradient batches
    else:
        assert stage_rows == []
    readings = result.info["ridge"]
    assert readings["chunk"].shape == (len(fits),)
    for key in RIDGE_READINGS:
        assert readings[key].shape == (len(fits),)
        assert np.all(np.isfinite(readings[key])) and np.all(readings[key] >= 0.0)
    assert np.all(readings["chol_diag_min"] > 0.0)
    assert np.all(readings["chol_diag_min"] <= readings["chol_diag_max"])


def _sgd_distill_reference(dataset, students, cfg, seed, prefix_mode):
    """SGD distillation that featurizes every step's picked rows afresh."""
    rng = np.random.default_rng(seed)
    design = _distill_design(dataset, prefix_mode)
    anchored = students.parameterization == "anchored"
    trace = np.empty(cfg.step_count)
    for step in range(cfg.step_count):
        i = int(rng.integers(1, students.seq_spec.n_chunks + 1))
        pick = rng.integers(0, design[i]["t"].size, size=cfg.batch_size)
        rows = {k: v[pick] for k, v in design[i].items()}
        anchor = (rows["chunk"], rows["t"]) if anchored else None
        member = students.member(i)
        phi = featurize(member.features, rows["chunk"], rows["prefix"], rows["t"])
        resid = head_residual(member.theta, phi, rows["target"], anchor)
        students.replace_member(
            i, update_head(member, phi, rows["target"], cfg, anchor, resid)
        )
        trace[step] = float(np.mean(resid**2))
    return trace


@pytest.mark.parametrize("prefix_mode", ["clean", "noisy"])
@pytest.mark.parametrize("readout", ["anchored", "direct"])
@pytest.mark.parametrize("dist", [DIST, ar1_sequence(3, 0.5)], ids=["bivariate", "ar1-3"])
def test_sgd_distill_matches_per_step_featurize_reference(
    monkeypatch, dist, readout, prefix_mode
):
    build = make_pairs_bi if prefix_mode == "noisy" else make_pairs_causal
    pairs = build(dist, DEFAULT_GRID, count=24, steps=8, seed=50)
    cfg = TrainConfig(method="sgd", learning_rate=0.3, step_count=80, batch_size=16)

    def students():
        return make_chunk_models(
            dist.spec, role="generator", m=32, seed=51, parameterization=readout
        )

    expected = students()
    want_trace = _sgd_distill_reference(pairs, expected, cfg, 52, prefix_mode)
    live = _watch_featurize(monkeypatch)
    got = students()
    result = ode_distill(pairs, got, cfg, seed=52, prefix_mode=prefix_mode)
    assert len(live) <= dist.spec.n_chunks
    assert np.array_equal(result.loss_trace, want_trace)
    for member, want in zip(got.members, expected.members):
        assert np.array_equal(member.theta, want.theta)


def _random_heads(models, seed):
    """Give every member of a set its own random head."""
    rng = np.random.default_rng(seed)
    for i, member in enumerate(models.members, start=1):
        models.replace_member(
            i, replace(member, theta=0.3 * rng.standard_normal(member.theta.shape))
        )
    return models


@pytest.mark.parametrize("prefix_mode", ["clean", "noisy"])
@pytest.mark.parametrize("readout", ["anchored", "direct"])
@pytest.mark.parametrize("dist", [DIST, ar1_sequence(3, 0.5)], ids=["bivariate", "ar1-3"])
def test_lockstep_sgd_distill_matches_each_set_alone(
    monkeypatch, dist, readout, prefix_mode
):
    build = make_pairs_bi if prefix_mode == "noisy" else make_pairs_causal
    pairs = build(dist, DEFAULT_GRID, count=24, steps=8, seed=50)
    # 12 rows: with a power-of-two batch the 2/n scale is exact, and the
    # order of scale and product could not show in the bits
    cfg = TrainConfig(method="sgd", learning_rate=0.3, step_count=80, batch_size=12)

    def students(head_seed):
        models = make_chunk_models(
            dist.spec, role="generator", m=32, seed=51, parameterization=readout
        )
        return models if head_seed is None else _random_heads(models, head_seed)

    head_seeds = (None, 53)
    expected = [students(s) for s in head_seeds]
    want_traces = [
        _sgd_distill_reference(pairs, models, cfg, 52, prefix_mode)
        for models in expected
    ]
    live = _watch_featurize(monkeypatch)
    got = [students(s) for s in head_seeds]
    results = ode_distill(pairs, got, cfg, seed=52, prefix_mode=prefix_mode)
    assert len(live) <= dist.spec.n_chunks  # one design for both sets
    assert all(result.models is models for result, models in zip(results, got))
    assert not np.array_equal(want_traces[0], want_traces[1])
    for result, models, want_models, want_trace in zip(
        results, got, expected, want_traces
    ):
        assert np.array_equal(result.loss_trace, want_trace)
        for member, want in zip(models.members, want_models.members):
            assert np.array_equal(member.theta, want.theta)


def test_lockstep_distill_rejects_sets_that_do_not_share_a_design():
    pairs = make_pairs_causal(DIST, DEFAULT_GRID, count=8, steps=8, seed=54)
    cfg = TrainConfig(method="sgd", step_count=4, batch_size=4)

    def students(**kw):
        args = dict(role="generator", m=16, seed=55, parameterization="anchored")
        return make_chunk_models(kw.pop("spec", SPEC), **{**args, **kw})

    others = [
        students(seed=56),  # another feature bank
        students(parameterization="direct"),
        students(role="fake-score"),
        students(spec=SequenceSpec(n_frames=4, frame_dim=1, chunk_size=2)),
    ]
    for other in others:
        with pytest.raises(ConfigError, match="must share"):
            ode_distill(pairs, [students(), other], cfg, seed=0)
    with pytest.raises(ConfigError, match="at least one"):
        ode_distill(pairs, [], cfg, seed=0)


@pytest.mark.parametrize("readout", ["anchored", "direct"])
def test_lockstep_ridge_distill_gives_each_set_its_single_fit(readout):
    dist = ar1_sequence(3, 0.5)
    pairs = make_pairs_causal(dist, DEFAULT_GRID, count=24, steps=8, seed=57)
    cfg = TrainConfig(method="ridge")

    def students(head_seed):
        models = make_chunk_models(
            dist.spec, role="generator", m=32, seed=58, parameterization=readout
        )
        return models if head_seed is None else _random_heads(models, head_seed)

    head_seeds = (None, 59)
    alone = [ode_distill(pairs, students(s), cfg, seed=60) for s in head_seeds]
    together = ode_distill(pairs, [students(s) for s in head_seeds], cfg, seed=60)
    assert len(together) == len(alone)
    for got, want in zip(together, alone):
        assert np.array_equal(got.loss_trace, want.loss_trace)
        assert np.array_equal(got.info["per_chunk_loss"], want.info["per_chunk_loss"])
        for key, value in want.info["ridge"].items():
            assert np.array_equal(got.info["ridge"][key], value)
        for member, want_member in zip(got.models.members, want.models.members):
            assert np.array_equal(member.theta, want_member.theta)


def test_distill_rejects_an_empty_dataset(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_dataset(make_pairs_causal(DIST, DEFAULT_GRID, count=0, steps=8), path)
    students = make_chunk_models(SPEC, role="generator", m=8, seed=0)
    with pytest.raises(ConfigError, match="no records"):
        ode_distill(load_dataset(path), students, TrainConfig(), seed=0)


# ---------------------------------------------------------------------------
# few-step sampling
# ---------------------------------------------------------------------------


def test_few_step_sampler_deterministic_and_shaped():
    students = _distilled_students(m=128, count=400)
    a = rollout(students, DEFAULT_GRID, seed=7, count=3)
    b = rollout(students, DEFAULT_GRID, seed=7, count=3)
    c = rollout(students, DEFAULT_GRID, seed=8, count=3)
    assert a.shape == (3, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # one draw is still a row batch
    assert rollout(students, DEFAULT_GRID, seed=7).shape == (1, 2)


def test_rollout_matches_data_moments():
    students = _distilled_students()
    seqs = rollout(students, DEFAULT_GRID, seed=9, count=4000)
    assert seqs.shape == (4000, 2)
    cov = np.cov(seqs, rowvar=False)
    assert np.allclose(cov, DIST.components[0].covariance, atol=0.12)


# ---------------------------------------------------------------------------
# stage 3: distribution matching
# ---------------------------------------------------------------------------


def test_fake_score_consistent_with_velocity_algebra():
    # the fake field is v = -x + t * head; its implied score must equal the
    # bounded closed form the fake head trains against
    model = build_student(
        m=32, chunk_dim=1, prefix_dim=0, role="fake-score", seed=10,
        parameterization="anchored",
    )
    model.theta[:] = np.random.default_rng(10).standard_normal(model.theta.shape)
    x = np.array([[0.4], [-1.2]])
    t = np.array([0.3, 0.9])
    head = predict(model, x, np.empty((2, 0)), t)
    v = -x + t[:, None] * head
    t_col = t[:, None]
    assert np.allclose(
        fake_score(model, x, np.empty((2, 0)), t),
        -(x + (1.0 - t_col) * v) / t_col,
        atol=1e-10,
    )


def test_dmd_generator_gradient_matches_surrogate_fd():
    # gradient of mean_b <delta_b, sample_b(theta)> with the sampler's final
    # application as the only theta-dependent piece
    model = build_student(
        m=20, chunk_dim=1, prefix_dim=1, role="generator", seed=11,
        parameterization="anchored",
    )
    rng = np.random.default_rng(11)
    model.theta[:] = rng.standard_normal(model.theta.shape)
    n, t_last = 16, 0.625
    final_in = rng.standard_normal((n, 1))
    prefixes = rng.standard_normal((n, 1))
    delta = rng.standard_normal((n, 1))
    phi = featurize(model.features, final_in, prefixes, t_last)
    grad = dmd_generator_gradient(model, phi, t_last, delta)

    def surrogate(theta):
        from ardlab.models import LinearStudent

        probe = LinearStudent(model.features, theta, "generator", "anchored")
        return -float(np.mean(
            np.sum(delta * predict_x0(probe, final_in, prefixes, t_last), axis=1)
        ))

    h = 1e-6
    for j in (0, 9, 19):
        bumped = model.theta.copy()
        bumped[j, 0] += h
        up = surrogate(bumped)
        bumped[j, 0] -= 2 * h
        dn = surrogate(bumped)
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[j, 0]) < 1e-6 * max(1.0, abs(grad[j, 0]))


def test_dmd_forced_real_fake_is_a_fixed_point():
    dist = two_mode(3.0)
    generators = make_chunk_models(
        dist.spec, role="generator", m=64, seed=12, parameterization="anchored"
    )
    fakes = make_chunk_models(
        dist.spec, role="fake-score", m=32, seed=13, parameterization="anchored"
    )
    before = generators.member(1).theta.copy()
    result = dmd_train(
        generators, fakes, dist, DEFAULT_GRID,
        TrainConfig(step_count=20, batch_size=64, learning_rate=0.1),
        seed=14, force_real_fake=True,
    )
    assert np.array_equal(generators.member(1).theta, before)
    assert np.max(result.loss_trace) == 0.0


def test_dmd_improves_energy_distance():
    from ardlab.diagnostics import energy_distance

    dist = two_mode(3.0)
    generators = make_chunk_models(
        dist.spec, role="generator", m=128, seed=15, parameterization="anchored"
    )
    fakes = make_chunk_models(
        dist.spec, role="fake-score", m=64, seed=16, parameterization="anchored"
    )
    data = sample_clean(dist, 1500, seed=41)
    ed_before = energy_distance(rollout(generators, DEFAULT_GRID, seed=40, count=1500), data)
    cfg = TrainConfig(
        method="ridge", step_count=300, batch_size=256, learning_rate=0.05,
        fake_update_ratio=2,
    )
    dmd_train(generators, fakes, dist, DEFAULT_GRID, cfg, seed=17)
    ed_after = energy_distance(rollout(generators, DEFAULT_GRID, seed=40, count=1500), data)
    assert ed_after < 0.35 * ed_before


def test_dmd_validates_roles():
    dist = two_mode(3.0)
    generators = make_chunk_models(
        dist.spec, role="generator", m=8, seed=0, parameterization="anchored"
    )
    direct_fakes = make_chunk_models(dist.spec, role="fake-score", m=8, seed=1)
    with pytest.raises(ConfigError):
        dmd_train(generators, direct_fakes, dist, DEFAULT_GRID, TrainConfig(), seed=0)
    with pytest.raises(ConfigError):
        dmd_train(generators, generators, dist, DEFAULT_GRID, TrainConfig(), seed=0)


# ---------------------------------------------------------------------------
# stage 4: consistency training
# ---------------------------------------------------------------------------


def test_cd_requires_anchored_generators():
    direct = make_chunk_models(SPEC, role="generator", m=8, seed=0)
    with pytest.raises(ConfigError):
        cd_train(DIST, direct, TrainConfig(step_count=1), seed=0)
    velocity = make_chunk_models(SPEC, role="ar-velocity", m=8, seed=0)
    with pytest.raises(ConfigError):
        cd_train(DIST, velocity, TrainConfig(step_count=1), seed=0)
    anchored = make_chunk_models(
        SPEC, role="generator", m=8, seed=0, parameterization="anchored"
    )
    with pytest.raises(ConfigError):
        cd_train(DIST, anchored, TrainConfig(step_count=1), seed=0, grid_size=1)
    with pytest.raises(ConfigError):
        cd_train(
            DIST, anchored, TrainConfig(step_count=1), seed=0, teacher_kind="joint"
        )


def test_cd_boundary_is_exact_regardless_of_training():
    students = make_chunk_models(
        SPEC, role="generator", m=64, seed=18, parameterization="anchored"
    )
    cd_train(
        DIST, students,
        TrainConfig(method="ridge", step_count=8, batch_size=512, ema_rate=0.0),
        seed=19, grid_size=8,
    )
    x = np.array([[0.3], [-2.0]])
    y = np.array([[0.5], [0.5]])
    assert np.array_equal(predict_x0(students.member(2), x, y, 0.0), x)


def test_cd_fitted_iteration_improves_consistency():
    from ardlab.diagnostics import consistency_rms

    students = make_chunk_models(
        SPEC, role="generator", m=256, seed=20, parameterization="anchored"
    )
    init = consistency_rms(students, DIST, DEFAULT_GRID, 2, count=600, steps=120, seed=21)
    cd_train(
        DIST, students,
        TrainConfig(method="ridge", step_count=24, batch_size=2048, ema_rate=0.0),
        seed=22, grid_size=8,
    )
    after = consistency_rms(students, DIST, DEFAULT_GRID, 2, count=600, steps=120, seed=21)
    assert after["rms_gap"].value < 0.1
    assert after["rms_gap"].value < 0.2 * init["rms_gap"].value


def test_stage_result_rejects_nonfinite_trace():
    students = make_chunk_models(SPEC, role="generator", m=8, seed=0)
    with pytest.raises(DivergenceError):
        StageResult(
            models=students,
            loss_trace=np.array([1.0, np.nan]),
            config=TrainConfig(),
            master_seed=0,
            wall_seconds=0.0,
        )


# ---------------------------------------------------------------------------
# every stage's SGD path
# ---------------------------------------------------------------------------


def _run_sgd_stage(stage):
    """Run one stage with method "sgd" on a small budget; returns the trace,
    the head sets the stage updates, and copies of their starting heads."""
    cfg = TrainConfig(
        method="sgd", learning_rate=0.5, step_count=300, batch_size=64,
        fake_update_ratio=2, ema_rate=0.5,
    )
    kind = "ar-velocity" if stage == "tf" else "generator"
    readout = "direct" if stage == "tf" else "anchored"
    students = make_chunk_models(
        SPEC, role=kind, m=32, seed=30, parameterization=readout
    )
    sets = [students]
    if stage == "dmd":
        sets.append(make_chunk_models(
            SPEC, role="fake-score", m=32, seed=31, parameterization="anchored"
        ))
    before = [[member.theta.copy() for member in models.members] for models in sets]
    if stage == "tf":
        result = train_ar_diffusion_tf(DIST, students, cfg, seed=32)
    elif stage == "distill":
        pairs = make_pairs_causal(DIST, DEFAULT_GRID, count=64, steps=16, seed=33)
        result = ode_distill(pairs, students, cfg, seed=32)
    elif stage == "dmd":
        result = dmd_train(students, sets[1], DIST, DEFAULT_GRID, cfg, seed=32)
    else:
        result = cd_train(DIST, students, cfg, seed=32, grid_size=4)
    return result.loss_trace, sets, before


@pytest.mark.parametrize("stage", ["tf", "distill", "dmd", "cd"])
def test_sgd_path_of_every_stage(stage):
    trace, sets, before = _run_sgd_stage(stage)
    assert trace.shape == (300,) and np.all(np.isfinite(trace))
    for models, start in zip(sets, before):
        for member, theta in zip(models.members, start):
            assert not np.array_equal(member.theta, theta)
    if stage != "dmd":  # the regression stages descend their loss
        tenth = trace.size // 10
        assert np.mean(trace[-tenth:]) < np.mean(trace[:tenth])


# ---------------------------------------------------------------------------
# the learned autoregressive teacher
# ---------------------------------------------------------------------------

AR3 = ar1_sequence(3, 0.5)


@pytest.fixture(scope="module")
def learned_teacher():
    velocities = make_chunk_models(AR3.spec, role="ar-velocity", m=32, seed=40)
    train_ar_diffusion_tf(
        AR3, velocities, TrainConfig(method="ridge", step_count=20, batch_size=64),
        seed=41,
    )
    return velocities


def test_learned_teacher_pairs_integrate_its_field(learned_teacher):
    steps = 12
    ds = make_pairs_causal(AR3, DEFAULT_GRID, count=7, steps=steps, seed=42,
                           teacher=learned_teacher)
    oracle = make_pairs_causal(AR3, DEFAULT_GRID, count=7, steps=steps, seed=42)
    assert ds.provenance == "autoregressive-learned"
    assert not np.allclose(ds.records.endpoint, oracle.records.endpoint)
    spec = AR3.spec
    cols = ds.records
    assert np.array_equal(cols.prefix, oracle.records.prefix)
    for i in range(1, spec.n_chunks + 1):
        sl = spec.chunk_slice(i)
        prefixes = cols.prefix[:, : spec.prefix_dim(i)]
        field_fn = chunk_velocity_field(learned_teacher, i, prefixes)
        x = cols.snapshots[:, 0, sl]  # the noise at t = 1
        for k, (hi, lo, sub) in enumerate(_segment_plan(DEFAULT_GRID, steps), start=1):
            x = integrate(field_fn, x, hi, lo, sub)
            if lo > 0.0:
                assert np.array_equal(x, cols.snapshots[:, k, sl])
        assert np.array_equal(x, cols.endpoint[:, sl])


def test_learned_teacher_pairs_save_load_save_is_byte_identical(
    tmp_path, learned_teacher
):
    ds = make_pairs_causal(AR3, DEFAULT_GRID, count=5, steps=8, seed=43,
                           teacher=learned_teacher)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_dataset(ds, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert load_dataset(first).provenance == "autoregressive-learned"


def test_cd_with_learned_teacher(learned_teacher):
    students = make_chunk_models(
        AR3.spec, role="generator", m=32, seed=44, parameterization="anchored"
    )
    cfg = TrainConfig(method="ridge", step_count=6, batch_size=128)
    result = cd_train(AR3, students, cfg, seed=45, grid_size=6, teacher=learned_teacher)
    assert result.loss_trace.shape == (6,) and np.all(np.isfinite(result.loss_trace))
    oracle = make_chunk_models(
        AR3.spec, role="generator", m=32, seed=44, parameterization="anchored"
    )
    oracle_trace = cd_train(AR3, oracle, cfg, seed=45, grid_size=6).loss_trace
    assert not np.array_equal(result.loss_trace, oracle_trace)
