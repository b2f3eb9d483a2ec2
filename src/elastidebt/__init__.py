"""Discrete-event cloud elasticity simulator with debt-aware autoscaling.

The package couples a deterministic VM-cluster simulator with two
autoscaling policies (a threshold-voting baseline and a Q-learning agent
rewarded with elasticity debts) and an economics engine that values every
adaptation by counterfactual replay of the discarded actions.

The top level exports the names that a user's code calls or constructs:
those the README examples, the demos and the CLI use, plus ``Action``,
``ClusterObservation``, ``AdaptationRecord`` and ``QTable`` for a
user-written policy or warm start.  Every other name is imported from its
module, such as ``elastidebt.sim.Checkpoint``.
"""

from .economics import AdaptationRecord
from .experiment import (
    ExperimentConfig,
    compare,
    default_config,
    emit_csv,
    load_config,
    paired_experiment,
    run_experiment,
)
from .policies import Action, DebtAwarePolicy, LearningParams, QTable, VotingPolicy, allowed_actions
from .sim import ClusterObservation, SimConfig, Simulation
from .workload import (
    RateProfile,
    Segment,
    WorkloadTrace,
    default_profile,
    generate_trace,
    load_profile,
    parse_trace,
    serialize_trace,
)

__all__ = [
    "Action",
    "AdaptationRecord",
    "ClusterObservation",
    "DebtAwarePolicy",
    "ExperimentConfig",
    "LearningParams",
    "QTable",
    "RateProfile",
    "Segment",
    "SimConfig",
    "Simulation",
    "VotingPolicy",
    "WorkloadTrace",
    "allowed_actions",
    "compare",
    "default_config",
    "default_profile",
    "emit_csv",
    "generate_trace",
    "load_config",
    "load_profile",
    "paired_experiment",
    "parse_trace",
    "run_experiment",
    "serialize_trace",
]

__version__ = "0.1.0"
