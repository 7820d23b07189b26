"""Exceptions shared across the builder and the command line front end."""
from __future__ import annotations


class ProfileError(ValueError):
    """Raised when profile data violates a documented precondition."""


class ArtifactError(ValueError):
    """A file given as a stage artifact is not one intact artifact."""


class BandwidthBudgetError(RuntimeError):
    """A requested coefficient band exceeds the configured hard cap.

    Carries enough context to report the overflow without re-deriving it.
    The build driver attaches the artifact of the completed stages as
    ``partial`` before letting the error propagate.
    """

    def __init__(self, requested: int, budget: int, where: str) -> None:
        self.partial = None
        super().__init__(f"bandwidth budget exceeded: need {requested} "
                         f"coefficients, cap {budget} ({where})")


class WindowExhaustedError(RuntimeError):
    """No admissible scale remains inside the profile window.

    The build driver attaches the artifact of the completed stages as
    ``partial`` before letting the error propagate; its gap log holds the
    failing selection's probes.
    """

    def __init__(self, message: str) -> None:
        self.partial = None
        super().__init__(message)
