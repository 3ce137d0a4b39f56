"""Exact enumeration of rooted maps on surfaces, orientable or not.

Counts general maps, bipartite maps, triangulations and one-face maps by
genus (half-integers allowed, stored doubled) and size, through exact
recurrence engines, and cross-verifies the machinery by brute-force
enumeration and by residuals of functional identities evaluated on
truncated power series.
"""

from .bipartite import BipOneFaceTable, BipTable
from .identities import (
    IDENTITIES,
    SeriesContext,
    VerifyReport,
    ftheta,
    kp_combinations,
    run_identity,
)
from .maps import MapsCounts, MapsTable, OneFaceTable
from .oracle import scan
from .poly import Poly, U, V, Z
from .triangulations import TriTable
from .tseries import TSeries

__version__ = "0.1.0"

__all__ = [
    "BipOneFaceTable",
    "BipTable",
    "IDENTITIES",
    "MapsCounts",
    "MapsTable",
    "OneFaceTable",
    "Poly",
    "SeriesContext",
    "TSeries",
    "TriTable",
    "U",
    "V",
    "VerifyReport",
    "Z",
    "ftheta",
    "kp_combinations",
    "run_identity",
    "scan",
    "__version__",
]
