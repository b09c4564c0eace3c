"""Walls as constrained partitions, strict partitions, and the maps between them."""

from .bijections import (
    CertificationError,
    MapResult,
    MapStep,
    insert_blocks,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from .characters import VirtualCharacter, principal_character, virtual_character
from .partitions import (
    Partition,
    count_odd,
    count_partitions,
    count_strict,
    enumerate_partitions,
    enumerate_strict,
)
from .series import PowerSeries, series_product_odd, series_product_strict
from .verify import (
    ALL_CHECKS,
    VerificationReport,
    run_checks,
    verify_bijections,
    verify_count_identity,
    verify_euler,
    verify_fock,
    verify_reduced_equivalence,
    verify_vch_identity,
)
from .walls import (
    WallParams,
    WeightVector,
    block_color,
    enumerate_proper,
    enumerate_reduced,
    has_removable_delta,
    is_proper,
    is_reduced,
    weight,
)

__all__ = [
    "ALL_CHECKS",
    "CertificationError",
    "MapResult",
    "MapStep",
    "Partition",
    "PowerSeries",
    "VerificationReport",
    "VirtualCharacter",
    "WallParams",
    "WeightVector",
    "block_color",
    "count_odd",
    "count_partitions",
    "count_strict",
    "enumerate_partitions",
    "enumerate_proper",
    "enumerate_reduced",
    "enumerate_strict",
    "has_removable_delta",
    "insert_blocks",
    "is_proper",
    "is_reduced",
    "phi",
    "phi_inv",
    "principal_character",
    "psi",
    "psi_inv",
    "run_checks",
    "series_product_odd",
    "series_product_strict",
    "verify_bijections",
    "verify_count_identity",
    "verify_euler",
    "verify_fock",
    "verify_reduced_equivalence",
    "verify_vch_identity",
    "virtual_character",
    "weight",
]

__version__ = "0.1.0"
