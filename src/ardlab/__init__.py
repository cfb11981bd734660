"""ardlab: a small lab for causal few-step distillation of sequence diffusion.

Exact Gaussian-mixture sequence distributions, closed-form scores and flow
maps, linear random-feature students, the four training stages (denoising
regression, ODE distillation, distribution matching, consistency training),
oracle-backed diagnostics, and a preset harness that reproduces the lab
experiments end to end.
"""

from .config import (
    ExperimentConfig,
    ar1_sequence,
    bivariate_pair,
    component_tables,
    load_config,
    named_distribution,
    save_config,
    two_mode,
)
from .diagnostics import (
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
from .distributions import (
    GaussianComponent,
    SequenceDistribution,
    SequenceSpec,
    condition_on_coordinates,
    df_conditional_dist,
    noisy_marginal,
    sample_clean,
)
from .errors import (
    ArdlabError,
    ConfigError,
    DatasetFormatError,
    DivergenceError,
    GridError,
    PresetCheckError,
    SingularCovarianceError,
)
from .models import (
    ChunkModelSet,
    FeatureSpec,
    LinearStudent,
    TrainConfig,
    copy_head,
    fit_ridge,
    make_chunk_models,
    normal_equations,
    predict,
    predict_x0,
)
from .ode import (
    DEFAULT_GRID,
    PairColumns,
    PairDataset,
    TimestepGrid,
    gaussian_flow_map,
    integrate,
    make_pairs_bi,
    make_pairs_causal,
)
from .presets import (
    PRESET_NAMES,
    PresetResult,
    preset_config,
    run_all_presets,
    run_preset,
)
from .stages import (
    StageResult,
    cd_train,
    dmd_generator_gradient,
    dmd_train,
    fake_score,
    ode_distill,
    rollout,
    train_ar_diffusion_df,
    train_ar_diffusion_tf,
)
from .storage import (
    emit_report,
    load_dataset,
    load_loss_trace,
    load_models,
    read_report_csv,
    save_dataset,
    save_loss_trace,
    save_models,
)

__version__ = "0.1.0"
