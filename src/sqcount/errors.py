"""The package's two exception types, one per nonzero CLI exit code.

ConfigError (exit 2): an input breaks the theorem's hypotheses or the
config rules -- a bad prime, a mismatched dimension, a degenerate or
anisotropic form, a denominator outside S, an out-of-range family.

BudgetError (exit 3): a computation spent its search or precision budget;
the message names the budget that ran out.

Library callers catch the same two; the message says which check failed.
"""


class ConfigError(Exception):
    """Invalid inputs: bad primes, mismatched dimensions, malformed data."""


class BudgetError(Exception):
    """A computation exceeded its search or precision budget."""
