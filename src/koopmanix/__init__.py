"""Lifted linear reference dynamics from demonstrations, plus tracking control.

Modules: statespace (states, array trajectories, demos), lifting (observable maps),
koopman (analytical fit, linear rollout), controller (learned inverse
dynamics), envs (synthetic benchmarks and scripted experts), metrics (errors,
success predicates), persist (CSV/JSON round trips), cli (pipeline
subcommands).
"""

from .statespace import (
    CompositeState,
    DemonstrationSet,
    StateLayout,
    Trajectory,
    ValidationReport,
    Violation,
    validate,
)
from .lifting import LiftingSpec, dimension, lift, lift_matrix, object_slice, robot_slice
from .koopman import FitAccumulators, FitMeta, KoopmanModel, accumulate, cost, fit, rollout
from .controller import ControllerModel, TrainConfig, TrainingTriples, gradient_check, supervision, train
from .envs import EnvSpec, EnvState, ScriptedExpert, execute_policy, generate_demos, make_env, perturb_params
from .metrics import SuccessCriterion, SuccessResult, evaluate_success, imitation_error, success_rate
from .persist import (
    PersistError,
    load_controller,
    load_demos,
    load_manifest,
    load_model,
    save_controller,
    save_demos,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeState", "DemonstrationSet", "StateLayout", "Trajectory",
    "ValidationReport", "Violation", "validate",
    "LiftingSpec", "dimension", "lift", "lift_matrix",
    "object_slice", "robot_slice",
    "FitAccumulators", "FitMeta", "KoopmanModel", "accumulate", "cost", "fit",
    "rollout",
    "ControllerModel", "TrainConfig", "TrainingTriples", "gradient_check",
    "supervision", "train",
    "EnvSpec", "EnvState", "ScriptedExpert", "execute_policy", "generate_demos",
    "make_env", "perturb_params",
    "SuccessCriterion", "SuccessResult", "evaluate_success",
    "imitation_error", "success_rate",
    "PersistError", "load_controller", "load_demos", "load_manifest",
    "load_model", "save_controller", "save_demos", "save_model",
    "__version__",
]
