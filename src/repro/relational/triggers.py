"""Statement-level SQL triggers and their transition tables.

This module supplies the relational-trigger facility the paper assumes of
the underlying DBMS (Section 2.3):

* ``AFTER INSERT | UPDATE | DELETE ON <table>``
* ``FOR EACH STATEMENT``
* ``REFERENCING OLD_TABLE AS ... NEW_TABLE AS ...``

The :class:`TriggerContext` passed to the trigger body exposes the post-update
database, the transition tables, the *pruned* transition tables of
Definition 8 (rows that actually changed), and the reconstructed pre-update
contents of the updated table (``B_old``), computed as
``(SELECT * FROM B) EXCEPT (SELECT * FROM ΔB) UNION (SELECT * FROM ∇B)``
exactly as described in Section 4.2.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.relational.table import TransitionTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database

__all__ = ["TriggerEvent", "TriggerContext", "StatementTrigger", "bag_difference"]


class TriggerEvent(enum.Enum):
    """Relational trigger events (and XML trigger events, Section 2.2)."""

    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def parse(cls, text: str) -> "TriggerEvent":
        """Parse an event name case-insensitively."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown trigger event {text!r}") from None


@dataclass
class TriggerContext:
    """Everything a statement-level trigger body may reference.

    Attributes
    ----------
    database:
        The database *after* the statement was applied.
    table:
        Name of the table the statement modified.
    event:
        Which kind of statement fired the trigger.
    inserted:
        ``Δtable`` / ``NEW_TABLE``: affected rows after the statement
        (empty for DELETE).
    deleted:
        ``∇table`` / ``OLD_TABLE``: affected rows before the statement
        (empty for INSERT).
    statements:
        How many DML statements produced these transition tables.  ``1`` for
        an ordinary per-statement firing; greater when
        :meth:`~repro.relational.database.Database.execute_many` coalesced a
        whole batch's deltas into this single set-oriented firing.
    batch_inserted / batch_deleted:
        The updated table's *full* net batch delta (union over every event
        slice of the batch).  ``None`` outside batched execution.  The
        ``B_old`` reconstruction uses these so that a slice firing sees the
        table as it stood before the whole batch, not merely before its own
        slice.
    batch_seen:
        A scratch set shared by every firing of one batch (``None`` outside
        batched execution).  Consumers that must act at most once per logical
        transition per batch — e.g. the active-view service deduplicating XML
        activations rediscovered by sibling event slices — record their keys
        here.
    """

    database: "Database"
    table: str
    event: TriggerEvent
    inserted: TransitionTable
    deleted: TransitionTable
    statements: int = 1
    batch_inserted: TransitionTable | None = None
    batch_deleted: TransitionTable | None = None
    batch_seen: set | None = None
    #: Statement-scoped evaluation memo.  Every SQL trigger fired for one
    #: (statement, table, event) receives the *same* context object, so the
    #: compiled plan engine (:mod:`repro.xqgm.physical`) keeps here, on
    #: first computation, the rows of each shared OLD/NEW node side and each
    #: translation's derived (OLD_NODE, NEW_NODE) pairs; the sibling trigger
    #: groups and sibling XML-event translations fired by the statement read
    #: them back instead of re-deriving them.  Keys pair the engine's own
    #: plan / operator objects with the version stamps of the base tables
    #: they read, so a trigger action that itself modifies such a table is
    #: seen by the groups fired after it.  The memo dies with the context —
    #: nothing is carried to the next statement or shared between shard
    #: threads.
    evaluation_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Shared scratch space for the matching engine: xpath probe results per
    #: ``(old node id, new node id)`` pair, reused across the many trigger
    #: groups fired by this statement when they probe the same affected nodes
    #: (see :meth:`repro.matching.engine.GroupMatcher.candidates`).  Dies
    #: with the context, so node ids can never alias across statements.
    probe_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _net_pruned_inserted: TransitionTable | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _net_pruned_deleted: TransitionTable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- derived tables --------------------------------------------------------

    @property
    def net_inserted(self) -> TransitionTable:
        """The Δ to undo when reconstructing ``B_old``: the whole batch's net
        inserted rows for this table when batched, this statement's otherwise."""
        return self.batch_inserted if self.batch_inserted is not None else self.inserted

    @property
    def net_deleted(self) -> TransitionTable:
        """The ∇ to restore when reconstructing ``B_old`` (see ``net_inserted``)."""
        return self.batch_deleted if self.batch_deleted is not None else self.deleted

    def pruned_inserted(self) -> TransitionTable:
        """``ΔT' = ΔT − ∇T``: inserted rows that are not also in the deleted set.

        This is the pruned transition table of Definition 8 (bag difference
        on full row values), which removes no-op updates such as
        ``SET price = 1 * price``.
        """
        return bag_difference(self.inserted, self.deleted)

    def pruned_deleted(self) -> TransitionTable:
        """``∇T' = ∇T − ΔT``: deleted rows that are not also in the inserted set."""
        return bag_difference(self.deleted, self.inserted)

    def net_pruned_inserted(self) -> TransitionTable:
        """Pruned Δ over the batch-wide net delta (== ``pruned_inserted`` for
        per-statement firings).  The executable trigger plans evaluate their
        delta scans on these so affected keys and old-aggregate compensation
        see the whole batch's changes, whichever event slice is firing.
        Cached: a plan may scan the delta tables many times per firing."""
        if self._net_pruned_inserted is None:
            self._net_pruned_inserted = bag_difference(self.net_inserted, self.net_deleted)
        return self._net_pruned_inserted

    def net_pruned_deleted(self) -> TransitionTable:
        """Pruned ∇ over the batch-wide net delta (see ``net_pruned_inserted``)."""
        if self._net_pruned_deleted is None:
            self._net_pruned_deleted = bag_difference(self.net_deleted, self.net_inserted)
        return self._net_pruned_deleted

    def old_table_rows(self) -> list[tuple]:
        """Reconstruct the pre-update contents of the updated table (``B_old``).

        ``B_old = (B EXCEPT ΔB) UNION ∇B`` per Section 4.2 of the paper.
        The EXCEPT here removes by primary key (each Δ row replaced exactly
        one pre-update row with the same key, or was newly inserted).  For a
        batched firing the *whole batch's* net delta on this table is undone
        (``batch_inserted`` / ``batch_deleted``), not just this slice's, so
        every slice reconstructs the table as it stood before the batch.
        """
        inserted = self.net_inserted
        deleted = self.net_deleted
        table = self.database.table(self.table)
        schema = table.schema
        if schema.primary_key:
            inserted_keys = {schema.key_of(row) for row in inserted}
            rows = [row for row in table if schema.key_of(row) not in inserted_keys]
        else:
            remaining = list(inserted.rows)
            rows = []
            for row in table:
                if row in remaining:
                    remaining.remove(row)
                else:
                    rows.append(row)
        rows.extend(deleted.rows)
        return rows

    def old_table(self) -> TransitionTable:
        """``B_old`` wrapped as a read-only table."""
        return TransitionTable(self.database.table(self.table).schema, self.old_table_rows())


def bag_difference(left: TransitionTable, right: TransitionTable) -> TransitionTable:
    """Multiset difference of two transition tables on full row values."""
    if not len(right):
        return left
    remaining = Counter(right.rows)
    result = []
    for row in left.rows:
        if remaining[row] > 0:
            remaining[row] -= 1
        else:
            result.append(row)
    return TransitionTable(left.schema, result)


@dataclass
class StatementTrigger:
    """An ``AFTER ... FOR EACH STATEMENT`` trigger registered on one table.

    ``body`` is invoked once per qualifying statement with a
    :class:`TriggerContext`.
    """

    name: str
    table: str
    events: frozenset[TriggerEvent]
    body: Callable[[TriggerContext], Any]
    enabled: bool = True
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.events, (TriggerEvent, str)):
            self.events = frozenset({TriggerEvent.parse(str(self.events))})
        else:
            self.events = frozenset(
                event if isinstance(event, TriggerEvent) else TriggerEvent.parse(event)
                for event in self.events
            )

    def handles(self, event: TriggerEvent) -> bool:
        """Whether this trigger fires for the given event."""
        return self.enabled and event in self.events

    def fire(self, context: TriggerContext) -> Any:
        """Invoke the trigger body."""
        return self.body(context)
