"""Work that presets share out by models._share, at once or in turn: d2-init's
two DMD arms, d3-init's joint and causal halves and fig4-analog's two
conditional-KL arms."""

import hashlib
import threading
from unittest import mock

import pytest

from ardlab import models, presets
from ardlab.config import two_mode
from ardlab.errors import DivergenceError, PresetCheckError
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


def _files_on_one_cpu_and_two(tmp_path, name, **cuts):
    """Each file's digest from a run of the preset, cut down by `cuts` and a
    small diffusion training so that it takes about a second, on one CPU and
    on two; only the two-CPU run may start threads."""
    def small_config(name, overrides=None):
        _, base_config = presets._PRESETS[name]
        config = base_config()
        train = dict(config.train)
        train["diffusion"] = TrainConfig(method="ridge", step_count=10, batch_size=50)
        return config.with_overrides(feature_count=32, train=train, **cuts)

    runs, starts = [], []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    for cpus in (1, 2):
        root = tmp_path / f"cpus{cpus}"
        starts.clear()
        with mock.patch.object(models, "_cpu_count", lambda: cpus), \
                mock.patch.object(presets, "preset_config", small_config), \
                mock.patch.object(threading.Thread, "start", counted_start):
            try:
                presets.run_preset(name, output_dir=str(root))
            except PresetCheckError:
                pass  # the cut-down run's checks are not what is compared
        assert bool(starts) == (cpus == 2)  # one CPU starts no thread
        runs.append({
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((root / name).iterdir())
        })
    assert runs[0] == runs[1]
    return set(runs[0])


def test_d3_writes_the_same_bytes_on_one_cpu_and_two(tmp_path):
    files = _files_on_one_cpu_and_two(tmp_path, "d3-init", dataset_size=64,
                                      solver_steps=8)
    assert {"report.csv", "report.txt", "pairs_bidirectional.jsonl",
            "pairs_causal.jsonl", "finetune_joint_init_trace.csv",
            "finetune_denoiser_init_trace.csv", "distill_baseline_trace.csv",
            "diffusion_tf_trace.csv"} <= files


def test_fig4_writes_the_same_bytes_on_one_cpu_and_two(tmp_path):
    files = _files_on_one_cpu_and_two(tmp_path, "fig4-analog")
    assert {"report.csv", "report.txt", "diffusion_tf_trace.csv",
            "diffusion_df_trace.csv"} <= files
