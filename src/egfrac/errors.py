"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: DomainError -> 2,
DigitGuardExceeded -> 3, SearchInconclusive -> 4, InvariantViolation -> 6
(verification failures are reported through VerificationReport, not
exceptions, and exit 5).
"""


class DomainError(ValueError):
    """An argument is outside an operation's mathematical domain."""


class DigitGuardExceeded(RuntimeError):
    """An expansion denominator outgrew the caller-supplied digit guard."""

    def __init__(self, step: int, digits_limit: int):
        self.step = step
        self.digits_limit = digits_limit
        super().__init__(
            f"denominator at step {step} exceeds {digits_limit} decimal digits"
        )


class SearchInconclusive(RuntimeError):
    """A bounded search ran out of budget before completing.

    Raised instead of returning a partial answer: results of the search
    routines are exact claims, never silent truncations.
    """

    def __init__(self, nodes: int, budget: int):
        self.nodes = nodes
        self.budget = budget
        super().__init__(f"search budget exhausted after {nodes} nodes (budget {budget})")


class InvariantViolation(RuntimeError):
    """A proved identity failed to hold: signals a bug, not a math outcome."""
