"""Exception types shared across the package."""
from __future__ import annotations


class DescriptorError(ValueError):
    """Malformed or unsupported group descriptor."""


class CapExceeded(RuntimeError):
    """A hard resource cap (group order, orbit bit budget, ...) was exceeded.

    Distinct from invalid input: the request was well-formed but too large
    for the configured caps.
    """


class BudgetExceeded(RuntimeError):
    """A search ran out of its node/instance budget before finishing."""


class SpecError(ValueError):
    """A connection-set spec violates the defining conditions."""


class ShapeError(ValueError):
    """A group/automorphism pair does not have the shape an operation needs."""


class ManifestMismatch(ValueError):
    """An existing census output or interrupted run was written under another
    configuration (or carries no manifest), so it cannot be reused."""
