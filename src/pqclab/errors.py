"""Exception types raised across the package.

Every error carries a human-readable message with the offending values or
dimensions; callers that want to branch on failure mode catch the specific
subclass.
"""

__all__ = [
    "PqclabError",
    "DimensionMismatch",
    "NotTracePreserving",
    "NotAProbabilityDistribution",
    "NotUnitary",
    "BlochVectorTooLong",
    "NotUnital",
    "NotUnitVector",
    "NotUnitalAlgebra",
    "NoTraceVectors",
    "Rho0NotInAlgebra",
    "Infeasible",
]


class PqclabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PqclabError):
    """Operands or operators have incompatible shapes."""


class NotTracePreserving(PqclabError):
    """Kraus operators fail sum_i K_i^dag K_i = identity at tolerance."""


class NotAProbabilityDistribution(PqclabError):
    """Weights are negative or do not sum to one at tolerance."""


class NotUnitary(PqclabError):
    """A matrix expected to be unitary is not, at tolerance."""


class BlochVectorTooLong(PqclabError):
    """A Bloch vector with norm > 1 cannot describe a state."""


class NotUnital(PqclabError):
    """Operation requires a unital channel (one fixing the identity)."""


class NotUnitVector(PqclabError):
    """A vector expected to be normalized is not, at tolerance."""


class NotUnitalAlgebra(PqclabError):
    """Operation requires an algebra containing the identity (zero_dim == 0)."""


class NoTraceVectors(PqclabError):
    """The algebra admits no trace vector (some block has m_i < n_i)."""


class Rho0NotInAlgebra(PqclabError):
    """The reference state is not an element of the algebra."""


class Infeasible(PqclabError):
    """No vector can satisfy the requested trace condition."""
