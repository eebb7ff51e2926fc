"""Exception types shared across the toolkit.

Every error carries a ``stage`` tag so the CLI can emit machine-readable
failure objects.
"""


class ToolkitError(Exception):
    """Base class; ``stage`` identifies the pipeline stage that failed."""

    stage = "general"

    def __init__(self, message, stage=None):
        super().__init__(message)
        if stage is not None:
            self.stage = stage


class ValidationError(ToolkitError):
    stage = "validate"


class ConstructionError(ToolkitError):
    """An internal verification failed while assembling an object (bug signal)."""

    stage = "thicken"


class BudgetExceededError(ToolkitError):
    """A requested materialization would exceed the simplex budget."""

    stage = "close"
