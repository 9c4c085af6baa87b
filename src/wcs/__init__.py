"""Deformed boson algebras and their generalized coherent states.

Numerics for a three-parameter deformation of the boson algebra: bracket
factorials, the deformed exponential series, oscillator spectra and
wavefunctions, photon statistics of the coherent states, and the Stieltjes
moment-problem machinery behind their completeness.

The package root loads its modules on first use (PEP 562): the first read
of a public name, or of __all__ or dir(wcs), imports every module below and
binds the names in each one's __all__ here, so `import wcs.cli` or
`import wcs.factorials` loads only what that module imports.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the root re-exports, in the order of its __all__
_MODULES = ("params", "errors", "gammafn", "factorials", "algebra", "series", "coherent", "moments")


def _load() -> None:
    """Bind here every public name of every module, and __all__.

    The hooks are then dropped: CPython does not specialise attribute reads
    on a module that defines __getattr__, and would charge every later
    `wcs.name` read about 15 ns for it."""
    names = []
    for name in _MODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
        names += module.__all__
    globals()["__all__"] = [*names, "__version__"]
    globals().pop("__getattr__", None)  # a concurrent first read may have dropped them
    globals().pop("__dir__", None)


def __getattr__(name: str):
    # a dunder probe (copy, pickle, pytest) other than __all__ loads nothing
    if name == "__all__" or not (name.startswith("__") and name.endswith("__")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    _load()
    return sorted(globals())
