"""d2-init's two DMD arms, shared out by models._share: at once or in turn."""

from unittest import mock

import pytest

from ardlab import models
from ardlab.config import two_mode
from ardlab.errors import DivergenceError
from ardlab.models import TrainConfig, make_chunk_models
from ardlab.ode import DEFAULT_GRID
from ardlab.stages import dmd_train

DIST = two_mode(3.0)


def _dmd_arm(learning_rate=0.05, seed=92):
    """A small dmd_train arm owning its generators and fake models."""
    gens = make_chunk_models(DIST.spec, "generator", m=32, seed=90)
    fakes = make_chunk_models(DIST.spec, "fake-score", m=16, seed=91)
    cfg = TrainConfig(method="ridge", step_count=20, batch_size=64,
                      learning_rate=learning_rate, fake_update_ratio=2)
    return lambda: dmd_train(gens, fakes, DIST, DEFAULT_GRID, cfg, seed=seed)


def _call(arm):
    return arm()


def _bytes(result):
    thetas = b"".join(member.theta.tobytes() for member in result.models.members)
    return thetas, result.loss_trace.tobytes()


def test_arms_give_the_same_bits_on_one_cpu_and_two():
    runs = []
    for cpus in (1, 2):
        with mock.patch.object(models, "_cpu_count", lambda: cpus):
            results = models._share(_call, [_dmd_arm(seed=92), _dmd_arm(seed=93)])
        runs.append([_bytes(result) for result in results])
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[0][1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_arm_reaches_the_caller_when_the_other_succeeds(cpus):
    with mock.patch.object(models, "_cpu_count", lambda: cpus):
        with pytest.raises(DivergenceError):
            models._share(_call, [_dmd_arm(learning_rate=1e8), _dmd_arm()])
        with pytest.raises(DivergenceError):
            models._share(_call, [_dmd_arm(), _dmd_arm(learning_rate=1e8)])
