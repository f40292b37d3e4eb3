"""Numerical semigroup toolkit: leap statistics, class tests, and enumeration.

The public names are read from their home modules when first asked for
(PEP 562), so ``import sparsegroup`` loads no submodule of its own.
"""

from importlib import import_module

__version__ = "0.1.0"

# The one list of public names, by the module that defines each.
_HOMES = {
    "core": (
        "DEFAULT_GENUS_CAP", "DEFAULT_MAX_CONDUCTOR", "InvalidGap", "InvalidGenerator",
        "LimitExceeded", "NotASemigroup", "NotCofinite", "NumericalSemigroup", "SemigroupError",
        "TrivialSemigroup", "format_gap_line", "ordinary", "parse_gap_line",
    ),
    "enumeration": (
        "CensusRow", "EnumerationRequest", "census", "children", "enumerate_genus",
        "enumerate_kappa_sparse", "level_size",
    ),
    "ideals": (
        "RelativeIdeal", "ideal_at", "ideal_difference", "is_arf_definition", "is_arf_double",
        "is_arf_stable", "is_stable",
    ),
    "kappa": (
        "Classification", "InvalidParameters", "classify", "example_family",
        "frobenius_identity_check", "is_kappa_sparse", "is_kappa_sparse_gapdiff",
        "is_kappa_sparse_nongap", "is_kappa_sparse_profile", "is_kappa_sparse_run",
        "is_pure_kappa_sparse", "sparseness_index", "sparseness_report",
    ),
    "leaps": (
        "Leap", "LeapProfile", "frobenius_from_profile", "is_hyperelliptic", "is_sparse",
        "leap_profile", "leap_set", "max_leap_jump",
    ),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """A public name as its home module binds it now, or a home module itself; nothing is cached.

    So a name that a tracer or a test rebinds in its home module is seen here at once.
    """
    home = _HOME_OF.get(name, name)
    if home not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return __all__
