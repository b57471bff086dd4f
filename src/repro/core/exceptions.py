"""Exception hierarchy for the repro runtime."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class RuntimeNotStartedError(ReproError):
    """A task was invoked or synchronized with no runtime running."""


class TaskFailedError(ReproError):
    """A task raised; carries the originating task and cause.

    Synchronizing on a future produced by a failed task re-raises this, so
    user code sees failures at ``compss_wait_on`` — the same place PyCOMPSs
    surfaces them.
    """

    def __init__(self, task_label: str, cause: BaseException) -> None:
        super().__init__(f"task {task_label} failed: {cause!r}")
        self.task_label = task_label
        self.cause = cause


class ConstraintUnsatisfiableError(ReproError):
    """No node in the platform can ever satisfy a task's constraints."""


class StorageError(ReproError):
    """Base class for persistent-storage errors (SOI/SRI layer)."""


class AgentError(ReproError):
    """Base class for agent/message-bus errors."""
