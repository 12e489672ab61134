"""Coefficient extremal problems and coefficient-averaging bounds on H^p.

Each submodule's ``__all__`` is its public surface; the package republishes
those names unchanged.
"""

from . import closed_form, fn_repr, hardy_norm, solver, verify, wiener
from .closed_form import *  # noqa: F403
from .fn_repr import *  # noqa: F403
from .hardy_norm import *  # noqa: F403
from .solver import *  # noqa: F403
from .verify import *  # noqa: F403
from .wiener import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (closed_form.__all__ + fn_repr.__all__ + hardy_norm.__all__
           + solver.__all__ + verify.__all__ + wiener.__all__)
