"""rootmean: exact mean-value tables over polynomial root families.

The engine writes a monic degree-D polynomial in terms of its root-mean
parameters (the mean of all i-fold root products, order i), computes the
exact mean of any derived function over the root family of any other derived
function, discovers every universal linear relation among those means by
exact nullspace computation, and cross-validates everything against an
independent floating-point oracle.
"""

from .exact import PartitionVector, partitions
from .means import PhiKey, PhiResult, phi
from .powersums import gw_coefficient, power_sum_mean
from .relations import RelationVector, find_relations, nullspace, relation_space_dim
from .sympoly import SymPoly

__version__ = "0.1.0"

__all__ = [
    "PartitionVector",
    "PhiKey",
    "PhiResult",
    "RelationVector",
    "SymPoly",
    "find_relations",
    "gw_coefficient",
    "nullspace",
    "partitions",
    "phi",
    "power_sum_mean",
    "relation_space_dim",
]
