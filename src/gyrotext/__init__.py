"""gyrotext: hyperbolic document representations and classifiers.

Word embeddings living in the Poincare unit ball are composed into
document points by gyrovector centroid schemes and classified with
metric k-NN, a geodesic-kernel SVM, or a linear primal SVM.

The package re-exports the public names (``__all__``) of its modules.
"""

from . import classify, composition, corpus, gyroball, harness, kernels
from .classify import *  # noqa: F401,F403
from .composition import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403
from .gyroball import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *gyroball.__all__,
    *composition.__all__,
    *kernels.__all__,
    *classify.__all__,
    *corpus.__all__,
    *harness.__all__,
    "__version__",
]
