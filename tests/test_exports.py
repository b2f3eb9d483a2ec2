"""The package's top level exports the names that a user's code calls or
constructs; every other name is imported from its module."""

import importlib

import elastidebt

EXPORTED = {
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
}

# names the top level does not export, by the module that defines them
MODULE_ONLY = {
    "economics": ["UtilityBreakdown", "counterfactual_ideal"],
    "experiment": ["ExperimentReport"],
    "policies": [
        "Level",
        "StateKey",
        "VotingParams",
        "discretize_state",
        "select_action",
        "vm_vote",
        "vote_decision",
    ],
    "sim": ["Checkpoint", "SimulationResult", "VmInstance", "billing_cycles_charged"],
    "workload": ["Request"],
}


def test_top_level_exports_exactly_the_user_facing_names():
    assert sorted(elastidebt.__all__) == sorted(EXPORTED)


def test_each_export_is_the_object_its_module_defines():
    for name in elastidebt.__all__:
        obj = getattr(elastidebt, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_names_left_out_of_the_top_level_resolve_from_their_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"elastidebt.{module}")
        for name in names:
            assert getattr(mod, name).__module__ == mod.__name__, name
            assert not hasattr(elastidebt, name), name
