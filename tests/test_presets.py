"""presets._run_arms: d2-init's two DMD arms, run at once or in turn."""

import threading
import time
from unittest import mock

import pytest

from ardlab import models, presets
from ardlab.config import two_mode
from ardlab.errors import DivergenceError
from ardlab.models import TrainConfig, make_chunk_models
from ardlab.ode import DEFAULT_GRID
from ardlab.stages import dmd_train

DIST = two_mode(3.0)


def _dmd_arm(learning_rate=0.05, seed=92):
    """A small dmd_train arm owning its generators and fake models."""
    gens = make_chunk_models(
        DIST.spec, "generator", m=32, seed=90, parameterization="anchored"
    )
    fakes = make_chunk_models(
        DIST.spec, "fake-score", m=16, seed=91, parameterization="anchored"
    )
    cfg = TrainConfig(method="ridge", step_count=20, batch_size=64,
                      learning_rate=learning_rate, fake_update_ratio=2)
    return lambda: dmd_train(gens, fakes, DIST, DEFAULT_GRID, cfg, seed=seed)


def _bytes(result):
    thetas = b"".join(member.theta.tobytes() for member in result.models.members)
    return thetas, result.loss_trace.tobytes()


def test_arms_give_the_same_bits_on_one_cpu_and_two():
    runs = []
    for cpus in (1, 2):
        with mock.patch.object(models, "_cpu_count", lambda: cpus):
            results = presets._run_arms([_dmd_arm(seed=92), _dmd_arm(seed=93)])
        runs.append([_bytes(result) for result in results])
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[0][1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_arm_reaches_the_caller_when_the_other_succeeds(cpus):
    with mock.patch.object(models, "_cpu_count", lambda: cpus):
        with pytest.raises(DivergenceError):
            presets._run_arms([_dmd_arm(learning_rate=1e8), _dmd_arm()])
        with pytest.raises(DivergenceError):
            presets._run_arms([_dmd_arm(), _dmd_arm(learning_rate=1e8)])


def test_the_first_failing_arm_in_arm_order_is_raised():
    def fail(exc):
        def arm():
            raise exc
        return arm

    with mock.patch.object(models, "_cpu_count", lambda: 2):
        with pytest.raises(KeyError):
            presets._run_arms([fail(KeyError()), fail(ValueError())])
        with pytest.raises(ValueError):
            presets._run_arms([lambda: 0, fail(ValueError()), fail(KeyError())])


def test_the_started_thread_is_joined_when_the_calling_threads_arm_raises():
    started = threading.Event()
    finished = []

    def fail():
        started.wait(5.0)
        raise RuntimeError("calling thread's arm")

    def slow():
        started.set()
        time.sleep(0.2)
        finished.append(threading.current_thread() is not threading.main_thread())

    with mock.patch.object(models, "_cpu_count", lambda: 2):
        with pytest.raises(RuntimeError, match="calling thread's arm"):
            presets._run_arms([fail, slow])
    assert finished == [True]
