"""Random-feature students: featurization, ridge fits, gradients, model sets."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ardlab
from ardlab import models
from ardlab.distributions import SequenceSpec
from ardlab.errors import SingularCovarianceError
from ardlab.models import (
    FeatureSpec,
    LinearStudent,
    TrainConfig,
    copy_head,
    ema_update,
    featurize,
    fit_head,
    fit_ridge,
    head_gradient,
    head_residual,
    make_chunk_models,
    member_seed,
    normal_equations,
    predict,
    predict_x0,
    residual_sse,
    sgd_step,
    time_embedding,
    update_head,
)
from ardlab.models import _BLOCK_CELLS, _row_blocks

SPEC = SequenceSpec(n_frames=2, frame_dim=1, chunk_size=1)


def test_time_embedding_values():
    emb = time_embedding(0.25)
    assert np.allclose(emb, [0.25, 0.75, 1.0, 0.0], atol=1e-12)
    batch = time_embedding(np.array([0.0, 1.0]))
    assert batch.shape == (2, 4)
    assert np.allclose(batch[0], [0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_feature_spec_is_seed_deterministic():
    a = FeatureSpec(m=16, chunk_dim=1, prefix_dim=2, seed=7)
    b = FeatureSpec(m=16, chunk_dim=1, prefix_dim=2, seed=7)
    c = FeatureSpec(m=16, chunk_dim=1, prefix_dim=2, seed=8)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.frequencies, c.frequencies)
    assert a == b and a != c


def test_featurize_bound_and_broadcast():
    spec = FeatureSpec(m=64, chunk_dim=2, prefix_dim=1, seed=0)
    chunk = np.array([0.3, -0.4])
    phi_single = featurize(spec, chunk, np.array([1.0]), 0.5)
    phi_batch = featurize(spec, chunk[None, :], np.array([[1.0]]), 0.5)
    assert phi_single.shape == (64,)
    assert np.array_equal(phi_single, phi_batch[0])
    assert np.max(np.abs(phi_single)) <= np.sqrt(2.0 / 64) + 1e-12


@given(
    m=st.integers(1, 96),
    chunk_dim=st.integers(1, 3),
    prefix_dim=st.integers(0, 3),
    n=st.integers(1, 40),
    single=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_featurize_matches_reference_and_is_row_independent(
    m, chunk_dim, prefix_dim, n, single, seed, data
):
    spec = FeatureSpec(m=m, chunk_dim=chunk_dim, prefix_dim=prefix_dim, seed=seed)
    rng = np.random.default_rng(seed)
    chunk = rng.standard_normal((n, chunk_dim))
    prefix = rng.standard_normal((n, prefix_dim))
    t = rng.random(n)
    W, b = spec.frequencies, spec.phases
    if single:
        z = np.concatenate([chunk[0], prefix[0], time_embedding(t[0])])
        want = np.sqrt(2 / m) * np.cos(z @ W + b)
        assert np.array_equal(featurize(spec, chunk[0], prefix[0], t[0]), want)
        return
    z = np.concatenate([chunk, prefix, time_embedding(t)], axis=1)
    want = np.sqrt(2 / m) * np.cos(z @ W + b)
    phi = featurize(spec, chunk, prefix, t)
    assert np.array_equal(phi, want)
    # Featurizing a design once and indexing it gives the same bits as
    # featurizing the picked rows, repeats included.  This holds while both
    # products are matrix-matrix: with one row or one feature numpy routes
    # z @ W to a BLAS vector kernel, whose last bits can differ.
    if n >= 2 and m >= 2:
        pick = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3 * n))
        )
        assert np.array_equal(
            phi[pick], featurize(spec, chunk[pick], prefix[pick], t[pick])
        )


@given(
    m=st.sampled_from([64, 96, 256, 512]),
    chunk_dim=st.integers(1, 2),
    prefix_dim=st.integers(0, 4),
    blocks=st.integers(0, 10),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_blocked_featurize_and_predict_match_one_batch(
    m, chunk_dim, prefix_dim, blocks, seed, data
):
    # n = whole blocks plus a remainder that is 0-3 rows (so n runs over
    # every residue mod 4 and hits 1 mod the block size) or any shorter run;
    # on 2 CPUs, batches from 2**19 cells (8 or 9 blocks) go to the threads.
    size = _BLOCK_CELLS // m // 4 * 4
    rem = data.draw(st.one_of(st.integers(0, 3), st.integers(0, size - 1)))
    n = max(1, blocks * size + rem)
    spec = FeatureSpec(m=m, chunk_dim=chunk_dim, prefix_dim=prefix_dim, seed=seed)
    rng = np.random.default_rng(seed)
    chunk = rng.standard_normal((n, chunk_dim))
    prefix = rng.standard_normal((n, prefix_dim))
    t = rng.random(n)
    theta = 100.0 * rng.standard_normal((m, data.draw(st.integers(1, 3))))
    model = LinearStudent(features=spec, theta=theta)

    ranges = _row_blocks(n, m)
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    assert all(a == prev_b for (_, prev_b), (a, _) in zip(ranges, ranges[1:]))
    assert all((b - a) % 4 == 0 for a, b in ranges[:-1])
    assert n == 1 or all(b - a >= 2 for a, b in ranges)

    z = np.concatenate([chunk, prefix, time_embedding(t)], axis=1)
    want = np.sqrt(2 / m) * np.cos(z @ spec.frequencies + spec.phases)
    phi = featurize(spec, chunk, prefix, t)
    assert np.array_equal(phi, want)
    assert np.array_equal(featurize(spec, chunk, prefix, t), phi)
    # a dot product of m terms rounds within m * eps * sum |phi_j theta_j|
    out = predict(model, chunk, prefix, t)
    assert np.all(np.abs(out - phi @ theta) <= 1e-12 * (np.abs(phi) @ np.abs(theta)))
    assert np.array_equal(predict(model, chunk, prefix, t), out)
    row = featurize(spec, chunk[-1], prefix[-1], t[-1])
    assert row.shape == (m,)
    assert predict(model, chunk[-1], prefix[-1], t[-1]).shape == (theta.shape[1],)


def test_readout_from_feature_rows_has_the_bits_of_predict():
    # predict_x0 given a batch's feature rows takes phi @ theta over
    # featurize's row blocks, as predict does.  At this shape (32 blocks,
    # shared among threads on two or more CPUs, k = 3) one product over the
    # whole batch does not round like predict's on every BLAS build.
    spec = FeatureSpec(m=512, chunk_dim=1, prefix_dim=2, seed=13)
    rng = np.random.default_rng(13)
    n = 4096
    chunk = rng.standard_normal((n, 1))
    prefix = rng.standard_normal((n, 2))
    theta = rng.standard_normal((spec.m, 3))
    for t in (0.625, rng.uniform(0.05, 1.0, n)):
        phi = featurize(spec, chunk, prefix, t)
        model = LinearStudent(spec, theta)
        assert np.array_equal(
            predict_x0(model, chunk, prefix, t, phi=phi),
            predict_x0(model, chunk, prefix, t),
        )


def test_featurize_starts_block_threads_only_for_large_batches():
    # In a fresh interpreter held to at most two CPUs: importing ardlab and
    # calls below the threading size start no thread; a larger call starts
    # at most one per further CPU, joins them all, and gives the one-batch
    # bits; an error in a started thread reaches the caller.
    code = textwrap.dedent(
        """
        import os, threading
        import numpy as np
        import ardlab
        from ardlab.models import _BLOCK_CELLS, _THREAD_CELLS, FeatureSpec, featurize

        started = []
        start = threading.Thread.start
        threading.Thread.start = lambda self: (started.append(self), start(self))[1]
        assert threading.active_count() == 1
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
        cpus = len(os.sched_getaffinity(0))
        spec = FeatureSpec(m=64, chunk_dim=1, prefix_dim=0, seed=0)
        big = _THREAD_CELLS * cpus // 64
        for n in (1, 2, _BLOCK_CELLS // 64, big - 1):
            featurize(spec, np.zeros((n, 1)), None, np.zeros(n))
        assert not started
        x, t = np.random.default_rng(0).random((2, big))
        z = np.concatenate([x[:, None], ardlab.models.time_embedding(t)], axis=1)
        want = np.sqrt(2 / 64) * np.cos(z @ spec.frequencies + spec.phases)
        for _ in range(2):
            assert np.array_equal(featurize(spec, x[:, None], None, t), want)
        assert len(started) == 2 * (cpus - 1)
        assert threading.active_count() == 1
        if cpus > 1:
            cos = np.cos
            def failing_cos(*args, **kwargs):
                if threading.current_thread() is started[-1]:
                    raise MemoryError("cos in a started thread")
                return cos(*args, **kwargs)
            np.cos = failing_cos
            try:
                featurize(spec, x[:, None], None, t)
            except MemoryError:
                pass
            else:
                raise AssertionError("error in a started thread was lost")
            np.cos = cos
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ardlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_the_first_failing_item_in_item_order_is_raised():
    def fail(exc):
        def item():
            raise exc
        return item

    with mock.patch.object(models, "_cpu_count", lambda: 2):
        with pytest.raises(KeyError):
            models._share(lambda item: item(), [fail(KeyError()), fail(ValueError())])
        with pytest.raises(ValueError):
            models._share(
                lambda item: item(), [lambda: 0, fail(ValueError()), fail(KeyError())]
            )
        assert models._share(lambda x: 2 * x, range(5)) == [0, 2, 4, 6, 8]


def test_started_threads_are_joined_when_the_calling_threads_item_raises():
    started = threading.Event()
    finished = []

    def fail():
        started.wait(5.0)
        raise RuntimeError("calling thread's item")

    def slow():
        started.set()
        time.sleep(0.2)
        finished.append(threading.current_thread() is not threading.main_thread())

    with mock.patch.object(models, "_cpu_count", lambda: 2):
        with pytest.raises(RuntimeError, match="calling thread's item"):
            models._share(lambda item: item(), [fail, slow])
    assert finished == [True]


@pytest.mark.parametrize("cpus", [1, 2])
def test_shared_items_run_under_the_callers_numpy_error_state(cpus):
    def item(_):
        try:
            return np.float64(1.0) / np.float64(0.0)
        except FloatingPointError:
            return "raised"

    with mock.patch.object(models, "_cpu_count", lambda: cpus), \
            np.errstate(all="raise"):
        assert models._share(item, [0, 1]) == ["raised", "raised"]


def test_share_starts_no_thread_below_the_threading_size():
    def thread_of(item):
        return threading.current_thread()

    main = threading.current_thread()
    with mock.patch.object(models, "_cpu_count", lambda: 2):
        below = models._share(thread_of, range(4), cells=2 * models._THREAD_CELLS - 1)
        at = models._share(thread_of, range(4), cells=2 * models._THREAD_CELLS)
    assert below == [main] * 4
    assert at[0] is at[2] is main
    assert at[1] is at[3] is not main


def test_share_inside_a_shared_item_starts_no_thread():
    starts = []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    def inner(item):
        return models._share(lambda x: (item, x, threading.current_thread()), range(4))

    with mock.patch.object(models, "_cpu_count", lambda: 2), \
            mock.patch.object(threading.Thread, "start", counted_start):
        nested = models._share(inner, range(2))
        assert len(starts) == 1  # the outer call's one started thread
        # each nested call ran all its items in the thread of its item
        for item, rows in enumerate(nested):
            assert [row[:2] for row in rows] == [(item, x) for x in range(4)]
            assert len({row[2] for row in rows}) == 1
        assert nested[0][0][2] is not nested[1][0][2]
        # a top-level call afterwards, in either thread, still shares
        again = models._share(lambda x: threading.current_thread(), range(2))
        assert len(starts) == 2 and again[0] is not again[1]


@pytest.mark.parametrize("failing", [(1, 2), (2, 3)])
def test_featurize_raises_the_first_failing_blocks_error(failing):
    # 8 row blocks shared by two threads: the calling thread takes blocks
    # 0, 2, 4, 6 and the started one 1, 3, 5, 7.  The first failing block
    # in block order fails last in time, yet its error is the one raised,
    # and no started thread outlives the call.
    spec = FeatureSpec(m=64, chunk_dim=1, prefix_dim=0, seed=0)
    size = _BLOCK_CELLS // spec.m
    n = 8 * size
    chunk = np.arange(n, dtype=float)[:, None]  # a block's first row number
    cos_features = models._cos_features
    threads = set()

    def failing_cos_features(spec, z, out=None):
        threads.add(threading.current_thread())
        block = int(z[0, 0]) // size
        if block in failing:
            if block == failing[0]:
                time.sleep(0.2)
            raise ValueError(block)
        return cos_features(spec, z, out)

    with mock.patch.object(models, "_cpu_count", lambda: 2), \
            mock.patch.object(models, "_cos_features", failing_cos_features):
        with pytest.raises(ValueError) as info:
            featurize(spec, chunk, None, np.zeros(n))
    assert info.value.args == (failing[0],)
    assert len(threads) == 2
    assert not any(thread.is_alive() for thread in threads - {threading.current_thread()})


def test_import_holds_openblas_to_one_thread():
    # Whatever OPENBLAS_NUM_THREADS says, importing ardlab leaves numpy's
    # OpenBLAS one thread, so a ridge head whose Gram product OpenBLAS would
    # otherwise split over two threads gets the same bits.
    if models._openblas_function("get_num_threads") is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    code = textwrap.dedent(
        """
        import hashlib
        import numpy as np
        import ardlab
        from ardlab.models import (
            FeatureSpec, _openblas_function, fit_ridge, normal_equations,
        )

        spec = FeatureSpec(m=256, chunk_dim=1, prefix_dim=2, seed=7)
        rng = np.random.default_rng(7)
        n = 4096
        chunk = rng.standard_normal((n, 1))
        prefix = rng.standard_normal((n, 2))
        t = rng.uniform(0.05, 1.0, n)
        y = rng.standard_normal((n, 1))
        gram, cross, _ = normal_equations(spec, chunk, prefix, t, y)
        theta = fit_ridge(gram, cross, 1e-6)
        print(_openblas_function("get_num_threads")())
        print(hashlib.sha256(theta.tobytes()).hexdigest())
        """
    )
    runs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.path.dirname(os.path.dirname(ardlab.__file__)),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert [run[0] for run in runs] == ["1", "1"]
    assert runs[0][1] == runs[1][1]


def test_featurize_rejects_bad_widths():
    spec = FeatureSpec(m=8, chunk_dim=2, prefix_dim=1, seed=0)
    with pytest.raises(ValueError):
        featurize(spec, np.zeros((3, 1)), np.zeros((3, 1)), 0.5)
    with pytest.raises(ValueError):
        featurize(spec, np.zeros((3, 2)), np.zeros((3, 2)), 0.5)


def test_fit_ridge_recovers_planted_head():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((400, 20))
    theta_true = rng.standard_normal((20, 2))
    theta = fit_ridge(phi.T @ phi, phi.T @ (phi @ theta_true), ridge_lambda=1e-10)
    assert np.allclose(theta, theta_true, atol=1e-6)


def test_fit_ridge_rankdeficient_raises_without_lambda():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((5, 12))  # fewer rows than features
    with pytest.raises(SingularCovarianceError):
        fit_ridge(phi.T @ phi, phi.T @ np.zeros(5), ridge_lambda=0.0)
    theta = fit_ridge(phi.T @ phi, phi.T @ np.zeros(5), ridge_lambda=1e-6)
    assert np.allclose(theta, 0.0)


def _brute_normal_equations(spec, chunk, prefix, t, y, scale):
    rows = featurize(spec, chunk, prefix, t)
    if scale is not None:
        rows = rows * (scale[:, None] if np.ndim(scale) else scale)
    return rows.T @ rows, rows.T @ y, float(np.sum(y**2))


def _assert_relative(got, want, tol):
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@given(
    m=st.integers(2, 40),
    chunk_dim=st.integers(1, 2),
    prefix_dim=st.integers(0, 3),
    blocks=st.integers(0, 4),
    extra=st.sampled_from([1, 2, 3, 5]),
    per_row_t=st.booleans(),
    shared_prefix=st.booleans(),
    scale_kind=st.sampled_from(["none", "scalar", "per-row"]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_normal_equations_match_brute_force(
    m, chunk_dim, prefix_dim, blocks, extra, per_row_t, shared_prefix,
    scale_kind, k, seed,
):
    # blocks of 8 rows; n = blocks * 8 + extra covers a 1-row rest (extra 1)
    spec = FeatureSpec(m=m, chunk_dim=chunk_dim, prefix_dim=prefix_dim, seed=seed)
    rng = np.random.default_rng(seed)
    n = blocks * 8 + extra
    chunk = rng.standard_normal((n, chunk_dim))
    prefix = rng.standard_normal(prefix_dim if shared_prefix else (n, prefix_dim))
    t = rng.uniform(0.05, 1.0, n) if per_row_t else float(rng.uniform(0.05, 1.0))
    y = rng.standard_normal((n, k))
    scale = {"none": None, "scalar": 0.7, "per-row": rng.uniform(0.05, 1.0, n)}[
        scale_kind
    ]
    with mock.patch.object(models, "_NORMAL_CELLS", 8 * m):
        gram, cross, yy = normal_equations(spec, chunk, prefix, t, y, scale)
    want = _brute_normal_equations(spec, chunk, prefix, t, y, scale)
    _assert_relative(gram, want[0], 1e-12)
    _assert_relative(cross, want[1], 1e-12)
    assert yy == pytest.approx(want[2], rel=1e-12)
    assert np.array_equal(gram, gram.T)


def test_normal_equations_bits_do_not_depend_on_the_cpu_count():
    # two full blocks plus one row, each block large enough for featurize to
    # share among two threads
    spec = FeatureSpec(m=256, chunk_dim=1, prefix_dim=2, seed=3)
    size = models._NORMAL_CELLS // spec.m
    n = 2 * size + 1
    rng = np.random.default_rng(3)
    chunk = rng.standard_normal((n, 1))
    prefix = rng.standard_normal((n, 2))
    t = rng.uniform(0.05, 1.0, n)
    y = rng.standard_normal((n, 1))
    assert _row_blocks(n, spec.m, models._NORMAL_CELLS) == [(0, size), (size, n)]
    runs = []
    for cpus in (1, 2):
        with mock.patch.object(models, "_cpu_count", lambda: cpus):
            runs.append(normal_equations(spec, chunk, prefix, t, y, t))
    for one, two in zip(*runs):
        assert np.array_equal(one, two)
    want = _brute_normal_equations(spec, chunk, prefix, t, y, t)
    _assert_relative(runs[0][0], want[0], 1e-12)
    _assert_relative(runs[0][1], want[1], 1e-12)


def test_residual_from_sums_matches_the_explicit_residual():
    # a design with more rows than features and a noise target: the fit
    # does not interpolate, and its residual is a sizeable share of |y|^2
    spec = FeatureSpec(m=64, chunk_dim=1, prefix_dim=1, seed=5)
    rng = np.random.default_rng(5)
    n = 3000
    chunk = rng.standard_normal((n, 1))
    prefix = rng.standard_normal((n, 1))
    t = rng.uniform(0.05, 1.0, n)
    y = np.sin(3.0 * chunk) + 0.3 * rng.standard_normal((n, 1))
    rows = featurize(spec, chunk, prefix, t) * t[:, None]
    model = LinearStudent(spec, np.zeros((64, 1)))
    normal = normal_equations(spec, chunk, prefix, t, y, t)
    fitted, readings = fit_head(model, normal, 1e-6)
    sse = float(np.sum((rows @ fitted.theta - y) ** 2))
    assert 0.01 < sse / np.sum(y**2) < 0.99
    assert readings["sse"] == pytest.approx(sse, rel=1e-9)
    assert readings["relative_residual"] == pytest.approx(sse / np.sum(y**2), rel=1e-9)
    assert readings["theta_abs_max"] == np.abs(fitted.theta).max()
    # the squared Cholesky pivots lie between the extreme eigenvalues
    eig = np.linalg.eigvalsh(normal[0] + 1e-6 * np.eye(64))
    lo, hi = readings["chol_diag_min"] ** 2, readings["chol_diag_max"] ** 2
    assert eig[0] * (1 - 1e-9) <= lo <= hi <= eig[-1] * (1 + 1e-9)
    # the same sums give the residual of any other head, as for cd's trace
    other = rng.standard_normal(fitted.theta.shape)
    explicit = float(np.sum((rows @ other - y) ** 2))
    assert residual_sse(other, normal) == pytest.approx(explicit, rel=1e-9)


def test_ridge_solution_is_strict_local_minimum():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((200, 16))
    y = rng.standard_normal((200, 2))
    lam = 1e-3
    theta_hat = fit_ridge(phi.T @ phi, phi.T @ y, lam)

    def loss(theta):
        return float(np.sum((phi @ theta - y) ** 2) + lam * np.sum(theta**2))

    base = loss(theta_hat)
    for _ in range(50):
        delta = rng.standard_normal(theta_hat.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert loss(theta_hat + delta) > base


def test_head_jacobian_matches_finite_differences():
    model = LinearStudent(FeatureSpec(m=24, chunk_dim=2, prefix_dim=1, seed=4),
                          np.zeros((24, 2)))
    rng = np.random.default_rng(4)
    model.theta[:] = rng.standard_normal(model.theta.shape)
    chunk = rng.standard_normal(2)
    prefix = rng.standard_normal(1)
    t = 0.35
    phi = featurize(model.features, chunk, prefix, t)
    h = 1e-6
    for j in (0, 7, 23):
        for k in (0, 1):
            bumped = model.theta.copy()
            bumped[j, k] += h
            up = predict(LinearStudent(model.features, bumped), chunk, prefix, t)
            bumped[j, k] -= 2 * h
            dn = predict(LinearStudent(model.features, bumped), chunk, prefix, t)
            fd = (up[k] - dn[k]) / (2 * h)
            assert abs(fd - phi[j]) < 1e-8


@given(t=st.floats(0.0, 1.0), x=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_anchored_readout_identity_at_zero(t, x):
    model = LinearStudent(FeatureSpec(m=8, chunk_dim=1, prefix_dim=0, seed=5),
                          np.zeros((8, 1)))
    model.theta[:] = 0.7
    out = predict_x0(model, np.array([x]), np.empty(0), t)
    head = predict(model, np.array([x]), np.empty(0), t)
    assert out[0] == pytest.approx(x - t * head[0], abs=1e-12)
    if t == 0.0:
        assert out[0] == x


def test_student_validation():
    spec = FeatureSpec(m=4, chunk_dim=1, prefix_dim=0, seed=0)
    with pytest.raises(ValueError):
        LinearStudent(spec, np.zeros((5, 1)))
    with pytest.raises(ValueError, match="unknown role"):
        make_chunk_models(SPEC, role="oracle", m=4)


@given(
    seed=st.integers(0, 2**32 - 1),
    anchored=st.booleans(),
    n=st.integers(8, 40),
    m=st.integers(1, 6),
    d=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_update_head_readouts_and_gradient(seed, anchored, n, m, d):
    rng = np.random.default_rng(seed)
    spec = FeatureSpec(m=m, chunk_dim=d, prefix_dim=0, seed=seed % 1000)
    chunk = rng.standard_normal((n, d))
    t = rng.uniform(0.05, 1.0, n)
    target = rng.standard_normal((n, d))
    anchor = (chunk, t) if anchored else None
    model = LinearStudent(spec, rng.standard_normal((m, d)))

    # the residual is the model's readout minus the target: the clean-chunk
    # readout of a generator, the head itself for a velocity model
    phi = featurize(spec, chunk, None, t)
    resid = head_residual(model.theta, phi, target, anchor)
    readout = (predict_x0 if anchored else predict)(model, chunk, None, t)
    assert np.allclose(resid, readout - target, atol=1e-12)

    # one SGD step descends mean_rows |residual|^2: with learning rate 1 the
    # step is the gradient, which must match central finite differences
    phi = rng.standard_normal((n, m))  # a well-conditioned design

    def loss(theta):
        return float(np.sum(head_residual(theta, phi, target, anchor) ** 2)) / n

    sgd = TrainConfig(method="sgd", learning_rate=1.0)
    stepped = update_head(model, phi, target, sgd, anchor)
    grad = model.theta - stepped.theta
    h = 1e-5
    numeric = np.zeros_like(model.theta)
    for idx in np.ndindex(*model.theta.shape):
        bump = np.zeros_like(model.theta)
        bump[idx] = h
        numeric[idx] = (loss(model.theta + bump) - loss(model.theta - bump)) / (2 * h)
    assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-7)
    resid = head_residual(model.theta, phi, target, anchor)
    given = update_head(model, phi, target, sgd, anchor, resid=resid)
    assert np.array_equal(given.theta, stepped.theta)

    # the ridge fit at lambda 0 on a full-rank design (n > m) is where that
    # gradient vanishes; it keeps the model's feature bank.  The anchored
    # fit regresses chunk - target on rows scaled by t.
    if anchored:
        rows, y = phi * t[:, None], chunk - target
    else:
        rows, y = phi, target
    fitted, _ = fit_head(model, (rows.T @ rows, rows.T @ y, float(np.sum(y**2))), 0.0)
    assert fitted.features == model.features
    step = fitted.theta - update_head(fitted, phi, target, sgd, anchor).theta
    scale = 1.0 + np.abs(fitted.theta).max() * np.abs(phi).max() ** 2
    assert np.abs(step).max() <= 1e-9 * scale


@given(
    seed=st.integers(0, 2**32 - 1),
    anchored=st.booleans(),
    n=st.one_of(st.sampled_from([1, 2, 8, 16, 64]), st.integers(1, 70)),
    m=st.integers(1, 9),
    k=st.integers(1, 3),
)
@settings(max_examples=80, deadline=None)
def test_head_gradient_matches_the_scaled_transpose_product(seed, anchored, n, m, k):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, m))
    resid = rng.standard_normal((n, k))
    t = rng.uniform(0.01, 1.0, n) if anchored else None
    got = head_gradient(phi, resid, t)
    # the scale applied to the transpose before the product with r
    if anchored:
        want = -(2.0 / n) * (phi * t[:, None]).T @ resid
        weights = np.abs(t)[:, None] * np.abs(resid)
    else:
        want = (2.0 / n) * phi.T @ resid
        weights = np.abs(resid)
    # Each side is within gamma_{n+3} |2/n| |Phi|^T |t r| of the exact
    # gradient: n - 1 roundings in the sum and at most four in each term
    # (2/n itself, the scale, and the two products), where gamma_j =
    # j u / (1 - j u) with unit roundoff u = 2**-53.
    u = 2.0**-53
    gamma = (n + 3) * u / (1.0 - (n + 3) * u)
    bound = 2.0 * gamma * (2.0 / n) * (np.abs(phi).T @ weights)
    assert got.shape == (m, k)
    assert np.all(np.abs(got - want) <= bound)


def test_sgd_step_and_ema():
    model = LinearStudent(FeatureSpec(m=4, chunk_dim=1, prefix_dim=0, seed=0),
                          np.zeros((4, 1)))
    grad = np.ones_like(model.theta)
    stepped = sgd_step(model, grad, 0.1)
    assert np.allclose(stepped.theta, model.theta - 0.1)
    with pytest.raises(ValueError):
        sgd_step(model, np.full_like(grad, np.nan), 0.1)
    with pytest.raises(ValueError):
        sgd_step(model, grad[:2], 0.1)
    theta_minus = np.zeros((4, 1))
    updated = ema_update(theta_minus, np.ones((4, 1)), 0.75)
    assert np.allclose(updated, 0.25)
    with pytest.raises(ValueError):
        ema_update(theta_minus, theta_minus, 1.0)


def test_ema_geometric_recursion():
    # n updates toward a fixed head give 1 - rate^n of the way there
    rate = 0.9
    theta_minus = np.zeros((2, 1))
    target = np.ones((2, 1))
    for _ in range(10):
        theta_minus = ema_update(theta_minus, target, rate)
    assert np.allclose(theta_minus, 1.0 - rate**10, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(ema_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(method="adam")


def test_member_seed_is_role_free_and_banks_match():
    assert member_seed(10, 1) != member_seed(10, 2)
    assert member_seed(10, 1) != member_seed(11, 1)
    velocities = make_chunk_models(SPEC, role="ar-velocity", m=32, seed=10)
    generators = make_chunk_models(SPEC, role="generator", m=32, seed=10)
    for i in (1, 2):
        assert velocities.member(i).features == generators.member(i).features


def test_copied_velocity_head_reads_out_its_x0_estimate():
    # a generator warm-started from a velocity head reads out x - t * v,
    # the velocity model's clean-chunk estimate, bit for bit
    velocities = make_chunk_models(SPEC, role="ar-velocity", m=32, seed=10)
    generators = make_chunk_models(SPEC, role="generator", m=32, seed=10)
    rng = np.random.default_rng(10)
    for member in velocities.members:
        member.theta[:] = rng.standard_normal(member.theta.shape)
    copy_head(velocities, generators)
    chunk = rng.standard_normal((64, 1))
    prefix = rng.standard_normal((64, 1))
    for t in (0.625, rng.uniform(0.05, 1.0, 64)):
        v = predict(velocities.member(2), chunk, prefix, t)
        x0 = predict_x0(generators.member(2), chunk, prefix, t)
        assert np.array_equal(x0, chunk - np.reshape(t, (-1, 1)) * v)


def test_copy_head_transfers_and_checks_banks():
    velocities = make_chunk_models(SPEC, role="ar-velocity", m=32, seed=10)
    generators = make_chunk_models(SPEC, role="generator", m=32, seed=10)
    velocities.member(1).theta[:] = 3.0
    copy_head(velocities, generators)
    assert np.allclose(generators.member(1).theta, 3.0)
    other = make_chunk_models(SPEC, role="generator", m=32, seed=11)
    with pytest.raises(ValueError):
        copy_head(velocities, other)


def test_chunk_model_set_prefix_widths():
    models = make_chunk_models(SPEC, role="generator", m=16, seed=0)
    assert models.member(1).features.prefix_dim == 0
    assert models.member(2).features.prefix_dim == 1
    with pytest.raises(ValueError):
        from ardlab.models import ChunkModelSet

        ChunkModelSet(SPEC, "generator", (models.member(2), models.member(2)))
