"""Exception types shared across the package.

Every error raised by the public API is a subclass of SQCountError, so callers
(and the CLI) can distinguish configuration problems from budget failures
with two except clauses.
"""


class SQCountError(Exception):
    """Base class for all package errors."""


class ConfigError(SQCountError):
    """Invalid inputs: bad primes, mismatched dimensions, malformed data."""


class BudgetError(SQCountError):
    """A computation exceeded its search or precision budget."""


# --- configuration-type errors ---------------------------------------------

class NonSUnitDenominator(ConfigError):
    """Denominator has a prime factor outside the finite place set."""


class DimensionMismatch(ConfigError):
    pass


class DegenerateForm(ConfigError):
    """Gram matrix is singular at some place."""


class AnisotropicForm(ConfigError):
    """The form has no nontrivial zero at the requested place."""


class DenominatorNotInvertibleModQ(ConfigError):
    """A rational's denominator shares a factor with the modulus."""


class NotInSLq(ConfigError):
    pass


class InvariantViolation(ConfigError):
    """A derived quantity violated a structural constraint (e.g. gcd(t,q) != 1)."""


class FamilyOutOfRange(ConfigError):
    """Shrinking-family exponents outside the admissible range."""


class NonIndicatorUnsupported(ConfigError):
    """Operation only supports indicator test functions of product sets."""


class InsufficientPadicPrecision(ConfigError):
    """Stored p-adic precision cannot decide the requested congruence."""


# --- budget errors --------------------------------------------------------

class RegionTooLarge(BudgetError):
    """Candidate set for enumeration exceeds the configured budget."""


class SearchBudgetExceeded(BudgetError):
    pass
