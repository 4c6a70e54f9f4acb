"""pqclab: private quantum channels, conditional expectations onto block
algebras, and trace vectors, over dense complex matrices.

The package is organized in layers: ``linalg`` holds the matrix
primitives, ``channels`` the CPTP machinery, ``bloch`` the qubit affine
picture and private-state classification, ``algebras`` the block-form
C*-algebras and trace-vector theory, ``condexp`` the conditional
expectation channels tying the two together, and ``cli``/``io`` the
command-line surface with its JSON formats.

Each layer's ``__all__`` decides what it makes public; the package
re-exports exactly those names.
"""

from . import algebras, bloch, channels, condexp, errors, linalg
from .algebras import *  # noqa: F403
from .bloch import *  # noqa: F403
from .channels import *  # noqa: F403
from .condexp import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *channels.__all__,
    *bloch.__all__,
    *algebras.__all__,
    *condexp.__all__,
    *errors.__all__,
]
