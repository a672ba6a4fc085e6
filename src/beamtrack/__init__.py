"""Recursive analog beam tracking in phased antenna arrays.

Library layout:

* :mod:`beamtrack.arrays` -- steering vectors, beamformers, observations,
  likelihood, and the tracking update field.
* :mod:`beamtrack.crlb` -- Fisher information and Cramer-Rao bounds.
* :mod:`beamtrack.trackers` -- coarse-sweep codebook, dictionary projection
  and step-size schedules.
* :mod:`beamtrack.dynamics` -- direction trajectory models.
* :mod:`beamtrack.analysis` -- convergence theory diagnostics.
* :mod:`beamtrack.engine` -- the vectorized trial runner, the only
  implementation of the recursive trackers and of the least-squares,
  compressed-sensing, sweep-and-refine and Kalman-filter baselines; one
  trial ``t`` is ``run_chunk(setup, t, t + 1)``.
* :mod:`beamtrack.harness` -- Monte-Carlo experiments and CSV output.
* :mod:`beamtrack.cli` -- command-line front end.
"""

from .arrays import (
    ArrayConfig,
    BeamformingVector,
    ChannelState,
    SnrConfig,
    array_response,
    conjugate_beamformer,
    f_gain,
    f_gain_closed,
    log_likelihood,
    observe,
    steering_vector,
)
from .crlb import (
    asymptotic_channel_crlb,
    fisher_information,
    max_fisher_information,
    min_crlb_x,
)
from .harness import ExperimentSpec, run_experiment
from .trackers import (
    DiminishingStep,
    FixedStep,
    alpha_star,
    coarse_sweep_codebook,
    initial_estimate,
    step_size,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "BeamformingVector",
    "ChannelState",
    "SnrConfig",
    "ExperimentSpec",
    "DiminishingStep",
    "FixedStep",
    "alpha_star",
    "array_response",
    "asymptotic_channel_crlb",
    "coarse_sweep_codebook",
    "conjugate_beamformer",
    "f_gain",
    "f_gain_closed",
    "fisher_information",
    "initial_estimate",
    "log_likelihood",
    "max_fisher_information",
    "min_crlb_x",
    "observe",
    "run_experiment",
    "steering_vector",
    "step_size",
]
