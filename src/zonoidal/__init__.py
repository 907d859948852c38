"""Zonotope calculus in exterior powers: generator-level products,
mixed/intrinsic volumes through wedge lengths, complex-structure
J-volumes, and expected absolute determinants of block-independent
random matrices, exact where finite data allows and seeded Monte Carlo
elsewhere.

The package re-exports each module's ``__all__``.
"""

from .exterior import *  # noqa: F401,F403
from .zonotope import *  # noqa: F401,F403
from .algebra import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .jvolume import *  # noqa: F401,F403
from .randomdet import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403

__version__ = "0.1.0"
