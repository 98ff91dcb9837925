"""radialke: rotation-invariant singular Kahler-Einstein numerics on the sphere.

The package solves the twisted Kahler-Einstein equation in radial form three
independent ways (direct Monge-Ampere solve, p-step iteration, Bergman kernel
iteration), runs fiber families over a one-dimensional base, and certifies
the positivity, contraction and normalization properties that tie the three
routes together.
"""

from .conventions import CONVENTIONS, CONVENTIONS_HASH

__version__ = "0.1.0"

__all__ = ["CONVENTIONS", "CONVENTIONS_HASH", "__version__"]
