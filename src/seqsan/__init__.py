"""Sequence sanitization toolkit.

Conceal every occurrence of a set of sensitive length-k patterns in a
sequence while provably preserving the order and frequency of all other
length-k patterns, then optionally rewrite the separators the construction
leaves behind.  A second entry point produces the sanitized sequence closest
in edit distance to the original.
"""

from .core import (
    SEPARATOR,
    Alphabet,
    SanitizationInstance,
    build_instance,
    contains_sensitive,
    kmer_counts,
    overlap_chains,
)
from .etfs import MatchResult, approx_regex_match, etfs_sanitize
from .mcsr import (
    CostModel,
    Infeasible,
    McsrResult,
    MckElement,
    candidate_ghosts,
    exposure_gains,
    implausible_set,
    mcsr_sanitize,
    separator_sites,
    solve_mck,
    uniform_cost_model,
)
from .metrics import (
    VerifyResult,
    ba_sanitize,
    edit_distance,
    edre,
    verify,
    verify_levels,
)
from .pfs import fo_ssm, pfs_sanitize
from .tfs import tfs_sanitize

__version__ = "0.1.0"

__all__ = [
    "SEPARATOR",
    "Alphabet",
    "SanitizationInstance",
    "build_instance",
    "contains_sensitive",
    "kmer_counts",
    "overlap_chains",
    "tfs_sanitize",
    "pfs_sanitize",
    "fo_ssm",
    "mcsr_sanitize",
    "separator_sites",
    "exposure_gains",
    "candidate_ghosts",
    "solve_mck",
    "implausible_set",
    "CostModel",
    "uniform_cost_model",
    "MckElement",
    "McsrResult",
    "etfs_sanitize",
    "approx_regex_match",
    "MatchResult",
    "ba_sanitize",
    "edit_distance",
    "edre",
    "verify",
    "verify_levels",
    "VerifyResult",
    "Infeasible",
]
