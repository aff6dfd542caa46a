"""smtrace: theory-aware d-DNNF compilation for QF_LRA.

Records the traces of an exhaustive DPLL(T) search over quantifier-free
linear real arithmetic formulas as d-DNNF graphs in which every captured
truth assignment is theory-satisfiable, with exact counting, weighted
counting and enumeration over the result.
"""

from .frontend import (
    Atom,
    AtomTable,
    Formula,
    LinTerm,
    Literal,
    SmtError,
    SmtSyntaxError,
    UndeclaredSymbolError,
    UnsupportedFeatureError,
    atoms_of,
    normalize_comparison,
    parse_smt2,
)
from .abstraction import ClauseDb, boolean_abstract, learn_theory_clause, to_cnf, to_dimacs
from .lra import (
    Certificate,
    FeasibilityResult,
    NonTheoryLiteralError,
    NotInfeasibleError,
    TheoryState,
    check_feasible,
    minimize_core,
    propagate_candidates,
    verify_certificate,
    witness_satisfies,
)
from .compiler import (
    CompileConfig,
    CompileStats,
    Component,
    NoUnassignedError,
    cache_key,
    compile,
    decide,
    split_components,
)
from .ddnnf import (
    DdnnfGraph,
    FormatError,
    NotTaggedError,
    NotTotalError,
    Report,
    WeightMap,
    condense,
    count,
    enumerate_models,
    export_nnf,
    import_nnf,
    validate,
    weighted_count,
)
from .eager import eager_encode, enumerate_infeasible_cores
from .oracle import TooLargeError, brute_counts, brute_enumerate
from .randgen import random_formula, random_nested_formula

__version__ = "0.1.0"
