"""Secret key rate toolkit for surface-assisted multi-antenna probing.

Submodules
----------
channel     spatially correlated channel statistics and sampling
probing     probing designs and the two-way observation model
skr         closed-form, approximate and Monte Carlo key-rate evaluation
baseline    equal-phase water-filling design
neural      location-conditioned probing network and its trainer
experiments sweeps, CSV/plot emission, INI configuration
cli         command-line interface
"""

from .baseline import (
    WaterfillResult,
    baseline_design,
    equal_phase_vector,
    reconstruct_precoder,
    waterfill,
)
from .channel import (
    ChannelRealization,
    ChannelStatistics,
    SystemConfig,
    bs_correlation,
    cascade_covariance,
    channel_statistics,
    dbm_to_mw,
    irs_correlation,
    link_gains,
    load_system_config,
    mw_to_dbm,
    path_gain,
    sample_batch,
    sample_realization,
)
from .errors import ConfigError, NumericalError
from .experiments import (
    SweepResult,
    SweepRow,
    SweepSpec,
    load_experiment_config,
    random_design,
    read_csv,
    run_sweep,
    write_csv,
    write_plot_script,
)
from .neural import (
    NetParams,
    TrainConfig,
    forward,
    gradient,
    init_params,
    load_checkpoint,
    loss,
    loss_and_gradient,
    save_checkpoint,
    train,
)
from .probing import (
    ProbeDesign,
    ProbeObservation,
    combined_channel,
    dft_pilot,
    downlink_probe,
    probe_pair,
    uplink_probe,
    validate_design,
)
from .skr import (
    SkrReport,
    combined_covariance,
    effective_variance,
    per_mode_objective,
    skr_approximate,
    skr_closed_form,
    skr_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "ChannelStatistics",
    "ConfigError",
    "NetParams",
    "NumericalError",
    "ProbeDesign",
    "ProbeObservation",
    "SkrReport",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "TrainConfig",
    "WaterfillResult",
    "baseline_design",
    "bs_correlation",
    "cascade_covariance",
    "channel_statistics",
    "combined_channel",
    "combined_covariance",
    "dbm_to_mw",
    "dft_pilot",
    "downlink_probe",
    "effective_variance",
    "equal_phase_vector",
    "forward",
    "gradient",
    "init_params",
    "irs_correlation",
    "link_gains",
    "load_checkpoint",
    "load_experiment_config",
    "load_system_config",
    "loss",
    "loss_and_gradient",
    "mw_to_dbm",
    "path_gain",
    "per_mode_objective",
    "probe_pair",
    "random_design",
    "read_csv",
    "reconstruct_precoder",
    "run_sweep",
    "sample_batch",
    "sample_realization",
    "save_checkpoint",
    "skr_approximate",
    "skr_closed_form",
    "skr_monte_carlo",
    "train",
    "uplink_probe",
    "validate_design",
    "waterfill",
    "write_csv",
    "write_plot_script",
]
