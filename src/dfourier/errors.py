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

    def __init__(self, requested: int, budget: int, where: str = "") -> None:
        self.requested = int(requested)
        self.budget = int(budget)
        self.where = where
        self.partial = None
        msg = f"bandwidth budget exceeded: need {requested} coefficients, cap {budget}"
        if where:
            msg += f" ({where})"
        super().__init__(msg)


class WindowExhaustedError(RuntimeError):
    """No admissible scale remains inside the profile window.

    ``tried`` holds the per-candidate probe log of the failing selection;
    the build driver attaches the artifact of the completed stages as
    ``partial`` before letting the error propagate.
    """

    def __init__(self, message: str, last_scale: int | None = None,
                 last_gap: float | None = None, tried: list | None = None) -> None:
        self.last_scale = last_scale
        self.last_gap = last_gap
        self.tried = tried or []
        self.partial = None
        if last_scale is not None:
            message += f" (largest scale tried: {last_scale}"
            if last_gap is not None:
                message += f", gap {last_gap:.6g}"
            message += ")"
        super().__init__(message)
