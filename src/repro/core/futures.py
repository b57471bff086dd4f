"""Futures: placeholders for values tasks have not produced yet.

Invoking a ``@task`` function returns immediately with one
:class:`Future` per declared return value.  Futures flow into later task
calls (creating dependencies) or are synchronized with ``compss_wait_on``.
They are also valid dictionary keys and survive being stored in containers,
since identity — not value — is what the Access Processor tracks.

A future carries its value's :class:`~repro.core.data.Datum` record — the
only reference the runtime keeps once the producer settles — so the record
lives exactly as long as the future (and the alias futures sharing it).

A future may also be *born settled*: a submission served from the memo
cache returns futures that already hold their value.  No task produced
them in this runtime, so ``datum`` and ``producer_task_id`` are None and
the Access Processor treats such a future as the value it holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.core.data import Datum


class Future:
    """A single not-yet-available task result, known by identity: two
    futures are the same future only if they are the same object.

    Attributes:
        datum: the record of the value this future will hold; the Access
            Processor reads and updates it to wire dependencies.
        producer_task_id: id of the task instance that produces the value.
            Both are None for a future born settled (a memo hit).
        content_key: Merkle-style content identity of the value, assigned by
            the workflow compiler when the producing invocation is content
            addressable (None otherwise).  Set once at submission, before
            the future escapes the runtime, and never mutated — which is
            what lets the compiler of a *downstream* call read producer
            identities off its future arguments without taking the runtime
            lock.
    """

    __slots__ = (
        "datum",
        "producer_task_id",
        "content_key",
        "_value",
        "_resolved",
        "_error",
    )

    def __init__(self, datum: Optional["Datum"], producer_task_id: Optional[int]):
        self.datum = datum
        self.producer_task_id = producer_task_id
        self.content_key: Optional[str] = None
        self._value: Any = None
        self._resolved = False
        self._error: Optional[BaseException] = None

    @property
    def datum_id(self) -> Optional[str]:
        """The identifier of :attr:`datum` (None for a future born settled)."""
        return None if self.datum is None else self.datum.datum_id

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    # ``resolve`` and ``fail`` take no lock of their own: the runtime settles
    # futures under its master lock only, and readers test ``_resolved``,
    # which is written last.

    def resolve(self, value: Any) -> None:
        """Install the produced value (called by the runtime, once)."""
        if self._resolved:
            raise RuntimeError(f"{self!r} resolved twice")
        self._value = value
        self._resolved = True

    def fail(self, error: BaseException) -> None:
        """Mark the future as failed (its producer task raised)."""
        self._error = error
        self._resolved = True

    def value(self) -> Any:
        """Return the resolved value; raises if unresolved or failed.

        User code should not call this directly — ``compss_wait_on`` does,
        after ensuring the producer has run.
        """
        if not self._resolved:
            raise RuntimeError(
                f"{self!r} accessed before resolution; "
                "synchronize with compss_wait_on first"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def __repr__(self) -> str:
        state = "resolved" if self._resolved else "pending"
        return f"Future(datum={self.datum_id!r}, {state})"
