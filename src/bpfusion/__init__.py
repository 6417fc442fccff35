"""Exact modular data and Grothendieck fusion rings for a family of
nonrational W-algebra minimal models, together with the rational
constituents they are built from."""

from .levels import (
    AdmissibilityError,
    LabelError,
    LevelParams,
    OrbitClass,
    RSLabel,
    enumerate_infwts,
    enumerate_surv,
    hw_data,
    level_params,
    orbit_of,
    sigma,
    vacuum_orbit,
    w3_data,
)
from .labels import (
    FormalSum,
    HalfInt,
    HWLabel,
    StandardLabel,
    atypical_ses,
    conjugate_hw,
    gap_decomposition,
    hw_flow_maps,
    hw_label,
    orbit_type,
    parse_label,
    resolution,
    spectral_flow,
    standard_label,
)
from .sl3 import kac_walton, sl3_sigma_symmetry_check, tensor_coeff, weight_multiplicities, weyl_character
from .w3modular import W3SMatrix, w3_fusion, w3_smatrix_entry
from .verlinde import (
    fuse,
    fuse_general,
    fuse_standard,
    fuse_type3_standard,
    fuse_type3_type3,
    simple_currents,
    standard_kernel,
    subring_iso_check,
    type3_kernel,
    vacuum_kernel,
    verlinde_oracle,
)

__all__ = [
    "AdmissibilityError", "LabelError", "LevelParams", "OrbitClass", "RSLabel", "enumerate_infwts",
    "enumerate_surv", "hw_data", "level_params", "orbit_of", "sigma", "vacuum_orbit", "w3_data", "FormalSum",
    "HalfInt", "HWLabel", "StandardLabel", "atypical_ses", "conjugate_hw", "gap_decomposition",
    "hw_flow_maps", "hw_label", "orbit_type", "parse_label", "resolution", "spectral_flow", "standard_label",
    "kac_walton", "sl3_sigma_symmetry_check", "tensor_coeff", "weight_multiplicities", "weyl_character",
    "W3SMatrix", "w3_fusion", "w3_smatrix_entry", "fuse", "fuse_general", "fuse_standard",
    "fuse_type3_standard", "fuse_type3_type3", "simple_currents", "standard_kernel", "subring_iso_check",
    "type3_kernel", "vacuum_kernel", "verlinde_oracle",
]
