"""Adapter-configuration search by iterative hybrid pruning of a supernet."""

from .supernet import (  # noqa: F401
    MaskState,
    PeftModuleId,
    Supernet,
    SupernetConfig,
    build_supernet,
    trainable_param_count,
)
from .criteria import Criterion, ModuleStats, default_criteria  # noqa: F401
from .strategy import Partition, partition_layers  # noqa: F401
from .pruner import run_search, search_cost_bound  # noqa: F401
from .tasks import Dataset, SyntheticTaskSpec, generate_task, stratified_trim  # noqa: F401
from .experiment import ExperimentConfig, run_experiment  # noqa: F401

__version__ = "0.1.0"
