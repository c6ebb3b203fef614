"""Numerical library for the Volterra nu-function family.

Core surface: the nu function and its two-argument and generalized-family
extensions (``nu``, ``nu_alpha``, ``nu_general``), the structure functions
behind them, coherent-state kernels built on those integrals, a registry
of numerically verified integral identities, and a small operator-
expression scalarizer.  Structure functions evaluate in log space; every
integral runs through one adaptive quadrature engine with error accounting.
"""

import sys as _sys

# Each module's __all__ is the one list of its public names; the package
# republishes them.  The function `nu` then shadows the submodule `nufunc.nu`.
from .errors import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .nu import *  # noqa: F401,F403
from .coherent import *  # noqa: F401,F403
from .doot import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in ("errors", "special", "quadrature", "nu", "coherent", "doot", "identities")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
)
