"""Deformed boson algebras and their generalized coherent states.

Numerics for a three-parameter deformation of the boson algebra: bracket
factorials, the deformed exponential series, oscillator spectra and
wavefunctions, photon statistics of the coherent states, and the Stieltjes
moment-problem machinery behind their completeness.
"""

from . import algebra, coherent, errors, factorials, gammafn, moments, params, series
from .algebra import *  # noqa: F403
from .coherent import *  # noqa: F403
from .errors import *  # noqa: F403
from .factorials import *  # noqa: F403
from .gammafn import *  # noqa: F403
from .moments import *  # noqa: F403
from .params import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *params.__all__,
    *errors.__all__,
    *gammafn.__all__,
    *factorials.__all__,
    *algebra.__all__,
    *series.__all__,
    *coherent.__all__,
    *moments.__all__,
    "__version__",
]
