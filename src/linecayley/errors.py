"""Exception types shared across the package: BudgetExceeded when the
automorphism search runs out of nodes, and InvariantViolation for a bug."""


class BudgetExceeded(RuntimeError):
    """A search or enumeration exceeded its configured budget."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
