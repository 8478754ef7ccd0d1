"""Dynamic space-efficient keyword dictionary on a path-decomposed trie."""

from .analysis import (
    MatchProfile,
    ProbeStats,
    ShapeStats,
    anticentroid_bound,
    centroid_bound,
    decomposition_bounds,
    match_profile,
    nonstep_path_nodes,
    probe_stats,
    shape_stats,
)
from .core import (
    Config,
    ContractViolation,
    CorruptionError,
    DynPdtError,
    EmptyCorpus,
    InvalidKeyword,
    NO_VALUE,
    ResourceExhausted,
)
from .dictionary import Dictionary

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ContractViolation",
    "CorruptionError",
    "Dictionary",
    "DynPdtError",
    "EmptyCorpus",
    "InvalidKeyword",
    "MatchProfile",
    "NO_VALUE",
    "ProbeStats",
    "ResourceExhausted",
    "ShapeStats",
    "anticentroid_bound",
    "centroid_bound",
    "decomposition_bounds",
    "match_profile",
    "nonstep_path_nodes",
    "probe_stats",
    "shape_stats",
    "__version__",
]
