"""Optimal stopping for periodic MDPs and quickest change detection in
periodically distributed data."""

# the public API is each module's ``__all__``
from .belief import *  # noqa: F401,F403
from .detection_dp import *  # noqa: F401,F403
from .ipid_model import *  # noqa: F401,F403
from .monte_carlo import *  # noqa: F401,F403
from .periodic_mdp import *  # noqa: F401,F403

__version__ = "0.1.0"
