"""Spectral analysis of a hinged Euler-Bernoulli beam carrying an interior
mass-spring attachment: exact and truncated characteristic equations, root
scanning with localization checks, and eigenmode reconstruction.
"""

from . import core, freqeq, modes, roots
from .core import *  # noqa: F403
from .freqeq import *  # noqa: F403
from .modes import *  # noqa: F403
from .roots import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(core.__all__ + freqeq.__all__ + modes.__all__ + roots.__all__)
