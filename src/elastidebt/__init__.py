"""Discrete-event cloud elasticity simulator with debt-aware autoscaling.

The package couples a deterministic VM-cluster simulator with two
autoscaling policies (a threshold-voting baseline and a Q-learning agent
rewarded with elasticity debts) and an economics engine that values every
adaptation by counterfactual replay of the discarded actions.
"""

from .economics import AdaptationRecord, UtilityBreakdown, counterfactual_ideal
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    compare,
    default_config,
    emit_csv,
    load_config,
    paired_experiment,
    run_experiment,
)
from .policies import (
    Action,
    DebtAwarePolicy,
    LearningParams,
    Level,
    QTable,
    StateKey,
    VotingParams,
    VotingPolicy,
    allowed_actions,
    discretize_state,
    select_action,
    vm_vote,
    vote_decision,
)
from .sim import (
    Checkpoint,
    ClusterObservation,
    SimConfig,
    Simulation,
    SimulationResult,
    VmInstance,
    billing_cycles_charged,
)
from .workload import (
    RateProfile,
    Request,
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
    "Checkpoint",
    "ClusterObservation",
    "DebtAwarePolicy",
    "ExperimentConfig",
    "ExperimentReport",
    "LearningParams",
    "Level",
    "QTable",
    "RateProfile",
    "Request",
    "Segment",
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "StateKey",
    "UtilityBreakdown",
    "VmInstance",
    "VotingParams",
    "VotingPolicy",
    "WorkloadTrace",
    "allowed_actions",
    "billing_cycles_charged",
    "compare",
    "counterfactual_ideal",
    "default_config",
    "default_profile",
    "discretize_state",
    "emit_csv",
    "generate_trace",
    "load_config",
    "load_profile",
    "paired_experiment",
    "parse_trace",
    "run_experiment",
    "select_action",
    "serialize_trace",
    "vm_vote",
    "vote_decision",
]

__version__ = "0.1.0"
