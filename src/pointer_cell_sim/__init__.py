"""Simulator and verifier for pointer-cell statistics of finite measuring
apparatus models: dense sector evolution, factorized spin-chain backends,
measurement-condition certification and large-deviation diagnostics."""

__version__ = "0.1.0"

from .core import (
    Apparatus,
    EvolvedSectorStates,
    FPropertyReport,
    FTensor,
    MicroSystem,
    ObservableS,
    PhaseCellPartition,
    check_f_properties,
    conditional_expectation,
    evolve_sectors,
    expectation_s,
    f_tensor,
    pointer_weights,
    sector_hamiltonians,
)
from .coarse_ldp import (
    LdpConditionReport,
    RateFunctionEstimate,
    bernoulli_rate,
    check_ldp_conditions,
    estimate_rate,
)
from .coleman_hepp import (
    ChainSpec,
    FactorizedSectorOverlap,
    build_dense,
    factorized_f_tensor,
    traversal_schedule,
)
from .verify import (
    DecayFit,
    MeasurementVerdict,
    PointerMap,
    StabilityResult,
    check_exact_condition,
    check_weakened_condition,
    find_pointer_map,
    fit_decay_rate,
    pointer_errors,
    reconstruction_residuals,
)
from .config import ExperimentConfig, parse_config, serialize_config

__all__ = [
    "Apparatus",
    "ChainSpec",
    "DecayFit",
    "EvolvedSectorStates",
    "ExperimentConfig",
    "FPropertyReport",
    "FTensor",
    "FactorizedSectorOverlap",
    "LdpConditionReport",
    "MeasurementVerdict",
    "MicroSystem",
    "ObservableS",
    "PhaseCellPartition",
    "PointerMap",
    "RateFunctionEstimate",
    "StabilityResult",
    "bernoulli_rate",
    "build_dense",
    "check_exact_condition",
    "check_f_properties",
    "check_ldp_conditions",
    "check_weakened_condition",
    "conditional_expectation",
    "estimate_rate",
    "evolve_sectors",
    "expectation_s",
    "f_tensor",
    "factorized_f_tensor",
    "find_pointer_map",
    "fit_decay_rate",
    "parse_config",
    "pointer_errors",
    "pointer_weights",
    "reconstruction_residuals",
    "sector_hamiltonians",
    "serialize_config",
    "traversal_schedule",
]
