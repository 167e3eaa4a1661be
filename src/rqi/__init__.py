"""Numerics for Gaussian quantum information, moving cavities and particle detectors.

Submodules load on first use (``rqi.udw``, ``from rqi import udw``), so a
program pays only for the modules, and the scipy parts, that it runs.
"""

from importlib import import_module

__all__ = [
    "bessel",
    "boson",
    "boxpair",
    "entanglement",
    "fermion",
    "gaussian",
    "nonpert",
    "teleport",
    "udw",
]


def __getattr__(name):
    if name in __all__:
        return import_module("." + name, __name__)  # the import binds it here: later lookups skip this
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
