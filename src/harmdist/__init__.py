"""harmdist: a normalized indel distance with a harmonic closed form.

    d(a, b) = 2 * H_{|a|+|b|-|lcs(a,b)|} - H_{|a|} - H_{|b|}

where H_n is the n-th harmonic number.  Each single-symbol edit is
priced at the reciprocal of the length it edits at, so the same edit
costs less between long strings than between short ones.  The distance
satisfies the metric axioms, which ``propcheck`` verifies executably
and ``vpindex`` exploits for pruned exact search.
"""

from importlib import import_module

# Bound eagerly: the function shares its name with its module, and the
# first import of ``harmdist.harmonic`` would otherwise leave the module
# in this attribute.
from .harmonic import harmonic

# Public names by defining module.  They are imported on first access
# (PEP 562), so a command pays only for the modules it uses.
_EXPORTS = {
    "errors": ("CapacityError", "IndexFormatError"),
    "harmonic": (
        "HarmonicTable",
        "default_table",
        "harmonic",
        "harmonic_diff",
        "harmonic_exact",
    ),
    "lcs": (
        "ENGINES",
        "Interner",
        "SymbolSeq",
        "is_subsequence",
        "lcs_len",
        "lcs_len_bitparallel",
        "lcs_len_bruteforce",
        "lcs_len_dp",
        "lcs_len_hunt_szymanski",
        "lcs_lens",
        "scs_len",
    ),
    "metric": (
        "DistanceBreakdown",
        "distance",
        "distance_decomposed",
        "distance_exact",
        "distances",
    ),
    "propcheck": (
        "Counterexample",
        "GenConfig",
        "PropertyReport",
        "VerificationReport",
        "shrink",
        "universe",
        "verify_lemma_chain",
        "verify_lemma_lcs_triangle",
        "verify_lemma_scs",
        "verify_metric_axioms",
    ),
    "vpindex": ("PruningStats", "VpTree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]
