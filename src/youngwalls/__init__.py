"""Walls as constrained partitions, strict partitions, and the maps between them."""

from .bijections import (
    CertificationError,
    MapResult,
    MapStep,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from .characters import principal_character, virtual_character
from .partitions import (
    Partition,
    count_odd,
    count_partitions,
    count_strict,
    enumerate_partitions,
    enumerate_strict,
    odd_counts,
    partition_counts,
    strict_counts,
)
from .series import reciprocal, series_product_odd, series_product_strict
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
    enumerate_proper,
    enumerate_reduced,
    has_removable_delta,
    is_proper,
    is_reduced,
    proper_counts,
    reduced_counts,
    weight,
)

__version__ = "0.1.0"
