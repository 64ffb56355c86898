"""Pseudo-spectral elastic waves and weighted space-time norm experiments.

The package has three layers: exact spectral propagation on a periodic box
(``spectral``, ``elastic``), a computational harmonic-analysis toolkit
(``analysis``, ``weights``, ``cutoff``, ``kernel``), and an experiment
harness plus CLI that measure weighted-norm ratios, dilation exponents, and
oscillatory-kernel decay rates at desk scale (``harness``, ``cli``).
"""

__version__ = "0.1.0"

from .analysis import hs_norm, local_smoothing_functional, lp_level_range, lp_project
from .cutoff import DyadicCutoff, default_cutoff
from .elastic import (
    ElasticPropagator,
    ElasticState,
    LameParams,
    elastic_energy,
    evolve,
    half_wave,
    helmholtz_split,
    pde_residual,
)
from .errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    EllipticityError,
    MorawetzLabError,
    ShapeError,
)
from .harness import (
    DataFamily,
    FrequencyScan,
    Member,
    RatioRecord,
    Region,
    RegionQuery,
    ScaleCovariance,
    classify_region,
    compute_ratio,
    decomposition_check,
    frequency_constant_scan,
    scale_covariance_test,
)
from .kernel import (
    OFF_CONE,
    ON_CONE,
    DecayFit,
    KernelQuery,
    decay_fit,
    kernel_value,
)
from .spectral import GridSpec, VectorField
from .weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    Cube,
    QuadratureConfig,
    WeightSpec,
    a2_product,
    a2_scan,
    weighted_spacetime_norm,
)

__all__ = [
    # analysis
    "hs_norm",
    "local_smoothing_functional",
    "lp_level_range",
    "lp_project",
    # cutoff
    "DyadicCutoff",
    "default_cutoff",
    # elastic
    "ElasticPropagator",
    "ElasticState",
    "LameParams",
    "elastic_energy",
    "evolve",
    "half_wave",
    "helmholtz_split",
    "pde_residual",
    # errors
    "AccuracyError",
    "ConfigurationError",
    "DomainError",
    "EllipticityError",
    "MorawetzLabError",
    "ShapeError",
    # harness
    "DataFamily",
    "FrequencyScan",
    "Member",
    "RatioRecord",
    "Region",
    "RegionQuery",
    "ScaleCovariance",
    "classify_region",
    "compute_ratio",
    "decomposition_check",
    "frequency_constant_scan",
    "scale_covariance_test",
    # kernel
    "OFF_CONE",
    "ON_CONE",
    "DecayFit",
    "KernelQuery",
    "decay_fit",
    "kernel_value",
    # spectral
    "GridSpec",
    "VectorField",
    # weights
    "SPACETIME_POWER",
    "SPATIAL_POWER",
    "Cube",
    "QuadratureConfig",
    "WeightSpec",
    "a2_product",
    "a2_scan",
    "weighted_spacetime_norm",
]
