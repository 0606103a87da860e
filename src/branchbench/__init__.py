"""Branching schemes for constraint solving, plus a small benchmark harness.

The library models finite-domain CSPs, enforces generalized arc consistency
with a weight-tracking propagation queue, and searches with dom/wdeg variable
selection under seven interchangeable branching schemes: d-way, 2-way,
dichotomic domain splitting, and set branching driven either by exact score
ties or by x-means clustering of value scores.
"""

from .bench import (
    InstanceSource,
    RunRecord,
    parse_manifest,
    read_csv,
    run_bench,
    write_csv,
)
from .branching import SCHEME_NAMES, BranchPlan, Scheme, SchemeKind, parse_scheme, plan
from .clustering import Clustering, bic, kmeans_1d, xmeans
from .exprs import Call, Const, EvalError, VarRef, eval_expr, format_expr
from .generators import (
    FAMILIES,
    GenSpec,
    gen_coloring,
    gen_forced,
    gen_langford,
    gen_pigeons,
    gen_qwh,
    gen_randomb,
)
from .heuristics import score_domain, select_variable, wdeg
from .instance_io import ParseError, parse_instance, serialize_instance
from .model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
    SearchState,
    check_tuple,
)
from .propagation import Wipeout, establish_root_gac, propagate, revise
from .rng import Rng
from .search import Limits, Outcome, RunStats, Status, solve, verify
from .stats import (
    TTestReport,
    categorize,
    folded_ratio,
    format_report,
    paired_ttest,
    speedups,
    student_t_quantile,
    ttest_vs_base,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPlan",
    "Call",
    "Clustering",
    "Const",
    "Constraint",
    "EvalError",
    "ExtensionalAllowed",
    "ExtensionalForbidden",
    "FAMILIES",
    "GenSpec",
    "InstanceSource",
    "Intensional",
    "Limits",
    "Outcome",
    "ParseError",
    "Problem",
    "Rng",
    "RunRecord",
    "RunStats",
    "SCHEME_NAMES",
    "Scheme",
    "SchemeKind",
    "SearchState",
    "Status",
    "TTestReport",
    "Wipeout",
    "bic",
    "categorize",
    "check_tuple",
    "establish_root_gac",
    "eval_expr",
    "folded_ratio",
    "format_expr",
    "format_report",
    "gen_coloring",
    "gen_forced",
    "gen_langford",
    "gen_pigeons",
    "gen_qwh",
    "gen_randomb",
    "kmeans_1d",
    "paired_ttest",
    "parse_instance",
    "parse_manifest",
    "parse_scheme",
    "plan",
    "propagate",
    "read_csv",
    "revise",
    "run_bench",
    "score_domain",
    "select_variable",
    "serialize_instance",
    "solve",
    "speedups",
    "student_t_quantile",
    "ttest_vs_base",
    "verify",
    "wdeg",
    "write_csv",
    "xmeans",
]
