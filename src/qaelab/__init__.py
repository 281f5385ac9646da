"""qaelab: a matrix-free amplitude estimation laboratory.

Core pieces:

* :mod:`qaelab.core` — statevector kernel for the amplification iterate,
  plus analytic and statevector measurement backends;
* :mod:`qaelab.mlqae` — maximum-likelihood estimation over a power ladder;
* :mod:`qaelab.iqae` — iterative estimation with exact binomial intervals;
* :mod:`qaelab.mci` — classical hit-or-miss baseline;
* :mod:`qaelab.bench` — seeded sweeps, CSV emission, reference tables;
* :mod:`qaelab.verify` — brute-force cross-checks behind ``qaelab verify``.

The package re-exports the ``__all__`` of core, mlqae, iqae, mci and bench;
each module's ``__all__`` alone decides what is public.
"""

from . import bench, core, iqae, mci, mlqae
from .core import *  # noqa: F401,F403
from .mlqae import *  # noqa: F401,F403
from .iqae import *  # noqa: F401,F403
from .mci import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *mlqae.__all__, *iqae.__all__, *mci.__all__, *bench.__all__,
    "__version__",
]
