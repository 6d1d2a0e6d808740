"""The concurrency names, re-exported from :mod:`repro.api`.

:class:`~repro.api.Objectbase` itself serializes writers through a
:class:`FairLock` and publishes immutable :class:`SchemaSnapshot` objects
to lock-free readers (see ``docs/concurrency.md``).
"""

from __future__ import annotations

from .api import FairLock, Objectbase, SchemaSnapshot

__all__ = ["FairLock", "SchemaSnapshot", "ConcurrentObjectbase"]

# The thread-safe facade was once a separate wrapper class of this name;
# the end-to-end benchmark under perfbench/ still imports and patches it.
ConcurrentObjectbase = Objectbase
