"""Exact verification harness for a layered two-label graph construction.

The package builds the parameterised graphs F(r) and SF(t) under explicit
interpretation profiles, solves their clique and independence numbers
exactly, and turns the results into CONFIRMED/REFUTED verdicts with
machine-checkable witnesses plus the implied Ramsey-type lower bound.

The public names below, and the submodules in ``_MODULES``, load lazily
(PEP 562): ``import sfcheck`` imports no submodule, and the first use of a
name imports only the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule; _EXPORTS maps each name to its module.
_MODULES = {
    "graphs": ("Graph", "complete", "complement"),
    "construct": ("InterpretationProfile", "DEFAULT_PROFILE", "LabeledGraph", "build_F", "build_SF"),
    "solve": ("CliqueResult", "max_clique", "max_independent_set", "oracle_max_clique"),
    "verify": ("check_theorem_1_1", "check_theorem_1_2", "confirm_R3"),
    "formats": ("encode_graph6", "decode_graph6", "encode_dimacs", "Graph6ParseError"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
