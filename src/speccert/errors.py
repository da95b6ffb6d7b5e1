"""Exception hierarchy shared by all certification stages.

Every failure that aborts a rigorous computation maps to a dedicated class so
that callers (and the CLI) can distinguish "the math refused" from bugs.
"""


class CertifyError(Exception):
    """Base class for all certification failures."""


class DivisionByZeroInterval(CertifyError):
    """Divisor interval (or box) contains zero."""


class DomainError(CertifyError):
    """Argument lies outside the domain of the requested function."""


class UnboundedOperand(CertifyError):
    """Arithmetic was attempted on an interval with an infinite endpoint."""


class DimensionMismatch(CertifyError):
    """Matrix or vector shapes are incompatible."""


class GridMismatch(CertifyError):
    """Two Fourier sequences live on different grids or sectors."""


class SingularityUnverified(CertifyError):
    """The residual bound of a candidate inverse is not below one."""


class DegenerateEigenbasis(CertifyError):
    """The numerical eigenbasis is too ill-conditioned to verify."""


class InvalidParameter(CertifyError):
    """A model parameter is outside its admissible range."""


class NonRadialUnsupported(CertifyError):
    """The requested operation needs a radially symmetric symbol."""


class TailNotIntegrable(CertifyError):
    """The growth minorant decays too slowly for the tail integral."""


class NoConvergence(CertifyError):
    """Newton iteration failed to reach the requested residual."""


class ConditionViolated(CertifyError):
    """A smallness condition required by an enclosure lemma fails."""


class ReductionUnavailable(CertifyError):
    """The model lacks what a requested stage needs: certify takes scalar,
    self-adjoint models with the essential spectrum below the window and
    the kappa, Lipschitz and eigenvalue-bound hooks."""


class DecayDomainMismatch(CertifyError):
    """The model's decay constants do not hold on the requested spectral
    window (it reaches the essential spectrum, say)."""


class ClusterTouchesTail(CertifyError):
    """An eigenvalue cluster cannot be separated from the tail disks."""


class ClusterExitsDomain(CertifyError):
    """An eigenvalue cluster is not strictly inside the certification window."""


class KernelMismatch(CertifyError):
    """Zero-straddling cluster size disagrees with the declared invariance
    dimension, so the sign summary cannot be upgraded."""
