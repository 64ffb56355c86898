"""The package's public names, pinned: adding or removing one is a visible change."""

import morawetz_lab


def test_public_names():
    assert sorted(morawetz_lab.__all__) == [
        "AccuracyError",
        "ConfigurationError",
        "Cube",
        "DataFamily",
        "DecayFit",
        "DomainError",
        "DyadicCutoff",
        "ElasticPropagator",
        "ElasticState",
        "EllipticityError",
        "FrequencyLattice",
        "FrequencyScan",
        "GridSpec",
        "KernelQuery",
        "LameParams",
        "Member",
        "MorawetzLabError",
        "OFF_CONE",
        "ON_CONE",
        "QuadratureConfig",
        "RatioRecord",
        "Region",
        "RegionQuery",
        "SPACETIME_POWER",
        "SPATIAL_POWER",
        "ScaleCovariance",
        "ShapeError",
        "VectorField",
        "WeightSpec",
        "a2_product",
        "a2_scan",
        "classify_region",
        "compute_ratio",
        "decay_fit",
        "decomposition_check",
        "default_cutoff",
        "elastic_energy",
        "evolve",
        "frequency_constant_scan",
        "frequency_lattice",
        "half_wave",
        "helmholtz_split",
        "hs_norm",
        "kernel_value",
        "local_smoothing_functional",
        "lp_level_range",
        "lp_project",
        "pde_residual",
        "projection_matrices",
        "scale_covariance_test",
        "weighted_spacetime_norm",
    ]


def test_public_names_resolve_to_the_api_not_submodules():
    import types

    for name in morawetz_lab.__all__:
        assert not isinstance(getattr(morawetz_lab, name), types.ModuleType), name
