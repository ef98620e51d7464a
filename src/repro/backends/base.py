"""The execution-backend abstraction (multi-backend direction of the roadmap).

The paper's system does not interpret XQGM plans itself: it compiles XML
triggers into statement-level SQL triggers executed *inside* a commercial
RDBMS (Figure 16).  This package restores that architecture as a pluggable
layer: a :class:`Backend` mirrors the in-memory
:class:`~repro.relational.database.Database` into an external engine and
executes the generated trigger statements there, while the in-memory
interpreter / compiled engines remain available as the oracle.

A backend has three responsibilities:

1. **Mirroring** — ``attach(database)`` copies the current catalog and rows
   into the external engine and subscribes to the database's commit
   listeners, replaying every subsequent DDL event, bulk load, and net
   coalesced delta (the same stream the write-ahead log consumes), so the
   mirror is up to date *before* any trigger fires (commit listeners run
   post-apply, pre-trigger).
2. **Lowering** — ``prepare(translation)`` turns one
   :class:`~repro.core.pushdown.CompiledTableTrigger` into a backend
   statement.  A plan the backend dialect cannot express raises
   :class:`BackendLoweringError`; the service then fails ``CREATE TRIGGER``
   with :class:`~repro.errors.TriggerCompilationError` and registers
   nothing.
3. **Execution** — ``affected_pairs(plan, context)`` runs a prepared
   statement for one trigger firing (materializing the firing's transition
   tables first) and returns the ``(OLD_NODE, NEW_NODE)`` pairs.

Backends are selected by name through
``ActiveViewService(backend="sqlite")`` or instantiated directly; see
``docs/backends.md`` for the SQLite lowering rules and a guide to adding a
new backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.sqlgen import SqlLoweringError
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pushdown import CompiledTableTrigger
    from repro.relational.database import Database
    from repro.relational.triggers import TriggerContext

__all__ = ["Backend", "BackendError", "BackendLoweringError", "create_backend"]


class BackendError(ReproError):
    """Base class for execution-backend errors."""


class BackendLoweringError(BackendError, SqlLoweringError):
    """A trigger plan could not be lowered to the backend's dialect.

    Also a :class:`~repro.core.sqlgen.SqlLoweringError`, so callers working
    at the SQL-generation level and callers working at the backend level can
    each catch their own layer's type.
    """


@runtime_checkable
class Backend(Protocol):
    """Protocol every execution backend implements."""

    #: Registry / display name ("sqlite", ...).
    name: str

    def attach(self, database: "Database") -> None:
        """Mirror ``database`` and subscribe to its commit stream."""

    def prepare(self, translation: "CompiledTableTrigger") -> object:
        """Lower one translation; returns an opaque prepared plan.

        Raises :class:`BackendLoweringError` when the dialect cannot express
        the plan.
        """

    def affected_pairs(
        self, plan: object, context: "TriggerContext"
    ) -> "list[AffectedPair]":
        """Execute a prepared plan for one firing."""

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""


def create_backend(spec: "str | Backend") -> "Backend":
    """Resolve a backend name (or pass an instance through).

    The registry currently knows ``"sqlite"``; future backends (Postgres,
    DuckDB, ...) register here.
    """
    if isinstance(spec, str):
        if spec == "sqlite":
            from repro.backends.sqlite import SqliteBackend

            return SqliteBackend()
        raise BackendError(f"unknown backend {spec!r} (known: 'sqlite')")
    if isinstance(spec, Backend):
        return spec
    raise BackendError(f"not a backend: {spec!r}")
