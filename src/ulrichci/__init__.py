"""Exact-arithmetic kernel for the symmetric functions of Ulrich bundles on
complete intersections: identity verifiers, invariant calculators, and
machine-checkable non-existence certificates."""

__version__ = "0.1.0"

#: Each re-exported name -> its home submodule.  The names are imported on
#: first access (PEP 562), so importing the package, or running the CLI's
#: --version, --help or a usage error, loads none of the computation modules.
_HOMES = {
    "binom_int": "exact_arith",
    "binom_poly": "exact_arith",
    "MultiPoly": "polyring",
    "DimensionMismatch": "polyring",
    "NotDivisible": "polyring",
    "Partition": "symfunc",
    "SymExpansion": "symfunc",
    "expand_direct": "symfunc",
    "expand_via_restriction": "symfunc",
    "monomial_sym": "symfunc",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        from importlib import import_module

        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
