"""Walsh-Fourier analysis on the finite dyadic group.

Exact transforms and kernels, Hardy-space quasi-norms, weighted maximal
operators, and a reproducible verification harness for the boundedness and
sharpness claims the library is built around.
"""

__version__ = "0.1.0"

from .analysis import (
    AtomSpec,
    AtomValidation,
    PExponent,
    hardy_quasinorm,
    lp_quasinorm,
    maximal_function,
    validate_atom,
    weak_lp_quasinorm,
)
from .constructions import (
    AtomRecipe,
    ProbeIndex,
    counterexample_fn,
    make_atom,
    probe_index,
)
from .functions import (
    DyadicFunction,
    SpectralVector,
    load_binary,
    load_csv,
    store_binary,
    store_csv,
    translate,
    values_equal,
)
from .group import (
    DyadicInterval,
    GroupPoint,
    Resolution,
    ShellDecomposition,
    interval,
    measure,
    shell_decomposition,
)
from .operators import (
    PolyWeight,
    RhoWeight,
    Subsequence,
    TableWeight,
    UnitWeight,
    WeakTypeReport,
    restricted_maximal,
    weak_type_constant,
    weighted_maximal,
)
from .spectral import (
    IndexStats,
    dirichlet_direct,
    dirichlet_dyadic,
    dirichlet_fast,
    fwht_forward,
    fwht_inverse,
    index_stats,
    partial_sum,
    rademacher,
    walsh,
)

__all__ = [
    "AtomRecipe",
    "AtomSpec",
    "AtomValidation",
    "DyadicFunction",
    "DyadicInterval",
    "GroupPoint",
    "IndexStats",
    "PExponent",
    "PolyWeight",
    "ProbeIndex",
    "Resolution",
    "RhoWeight",
    "ShellDecomposition",
    "SpectralVector",
    "Subsequence",
    "TableWeight",
    "UnitWeight",
    "WeakTypeReport",
    "counterexample_fn",
    "dirichlet_direct",
    "dirichlet_dyadic",
    "dirichlet_fast",
    "fwht_forward",
    "fwht_inverse",
    "hardy_quasinorm",
    "index_stats",
    "interval",
    "load_binary",
    "load_csv",
    "lp_quasinorm",
    "make_atom",
    "maximal_function",
    "measure",
    "partial_sum",
    "probe_index",
    "rademacher",
    "restricted_maximal",
    "shell_decomposition",
    "store_binary",
    "store_csv",
    "translate",
    "validate_atom",
    "values_equal",
    "walsh",
    "weak_lp_quasinorm",
    "weak_type_constant",
    "weighted_maximal",
]
