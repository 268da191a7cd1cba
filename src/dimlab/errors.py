"""Exception types shared across dimlab."""


class DimlabError(Exception):
    """Base class for all dimlab errors."""


class ParameterError(DimlabError, ValueError):
    """A parameter is outside its documented range."""


class InvalidWordError(DimlabError, ValueError):
    """A symbolic word contains symbols outside 1..m."""


class OutOfRangeError(DimlabError, ValueError):
    """A scale or offset is outside the admissible interval."""


class BudgetExceededError(DimlabError, RuntimeError):
    """An enumeration would exceed the configured word budget."""

    def __init__(self, required, budget, what="words"):
        self.required = required
        self.budget = budget
        try:
            need = f"{required:.3g}"
        except OverflowError:  # an int beyond the float range
            from decimal import Decimal

            need = f"{Decimal(required):.3g}"
        super().__init__(f"operation needs about {need} {what}, budget is {budget:.3g}")


class SubcriticalLawError(DimlabError, ValueError):
    """Offspring law has mean <= 1; the surviving set is almost surely empty."""


class UnsupportedLawError(DimlabError, TypeError):
    """Operation is only defined for a different kind of law."""


class DepthMismatchError(DimlabError, ValueError):
    """A sample is not deep enough for the requested scale or truncation."""


class InsufficientDataError(DimlabError, ValueError):
    """Fewer than three usable scales remain after dropping empty counts."""


class ConfigError(DimlabError, ValueError):
    """A scenario or IFS config file is malformed."""
