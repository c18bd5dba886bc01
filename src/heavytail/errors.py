"""Exception types shared across the package.

Exit-code mapping used by the CLI: ParameterError and ConfigError are usage
errors (exit 2); the regime/numeric errors below map to exit 3.
"""


class HeavytailError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HeavytailError, ValueError):
    """An argument is outside its documented domain."""


class UnsupportedLawError(HeavytailError):
    """The requested distribution family does not support this operation."""


class UnsupportedCaseError(HeavytailError):
    """A mathematically excluded case was requested (e.g. alpha=1 with an
    asymmetric pair in the stable characteristic function)."""


class DegenerateSampleError(HeavytailError):
    """Sample has no usable variation (e.g. all values equal in a tail fit)."""


class DivergenceError(HeavytailError):
    """A simulated recursion left the contractive regime; the message names
    the violated invariant."""


class NoRootError(HeavytailError):
    """Moment-equation root finding found no sign change on the expanded
    bracket, or the expectation was non-finite at a bracket end."""


class InsufficientCyclesError(HeavytailError):
    """Fewer complete regeneration cycles than the statistic requires."""


class MinorizationInvalidError(HeavytailError):
    """The split parameters do not minorize this transition kernel: the
    bound exceeds the density at small-set steps, or the derived epsilon
    falls outside (0, 1]."""


class WidenRError(HeavytailError):
    """A ratio-scan grid point collected fewer exceedances than required;
    the message names the point."""


class OutOfRegimeError(HeavytailError):
    """Estimated or requested tail index is outside the theorem's regime."""


class SingularDrawError(HeavytailError):
    """The linear chain's closed form met an ill-conditioned I - A; the
    message names its condition number."""


class ConfigError(HeavytailError):
    """Experiment-file validation failure carrying every error found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
