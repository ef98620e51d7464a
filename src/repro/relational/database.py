"""The in-memory relational database: catalog, DML execution, trigger firing.

:class:`Database` is the substrate on which the paper's whole architecture
rests (Figure 1 / Figure 6): base tables live here, user updates are executed
here, and the SQL triggers generated by the translation pipeline are
registered here and fired at statement granularity with transition tables.
:meth:`Database.execute_many` extends that granularity from one statement to
a whole batch: per-statement deltas are coalesced into net per-(table, event)
transition tables and each trigger fires once per slice.

Thread safety (audited for the serving layer): table mutation and trigger
firing share no global state beyond the tables themselves, but neither
:class:`~repro.relational.table.Table` nor the trigger machinery is internally
synchronized — a ``Database`` follows a **single-writer** model.  ``execute``
and ``execute_many`` serialize through a per-database re-entrant lock, so
accidental concurrent callers cannot corrupt a table or interleave trigger
firings; genuine write scaling comes from partitioning the data across
databases instead (:class:`~repro.relational.sharded.ShardedDatabase`, one
single-writer worker per shard).  Reads performed inside a trigger body run
under the same lock and therefore see a consistent post-statement state.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import IntegrityError, SchemaError, UnknownTableError
from repro.relational.dml import (
    Batch,
    BatchResult,
    BulkLoad,
    DeleteStatement,
    DeltaCoalescer,
    InsertStatement,
    Statement,
    StatementResult,
    UpdateStatement,
)
from repro.relational.schema import TableSchema
from repro.relational.table import Table, TransitionTable
from repro.relational.triggers import (
    StatementTrigger,
    TriggerContext,
    TriggerEvent,
    bag_difference,
)

__all__ = ["Database"]


class Database:
    """A named collection of tables plus statement-level triggers."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._triggers: dict[str, StatementTrigger] = {}
        self._trigger_order: list[str] = []
        # Dispatch buckets: (table, event) -> trigger names in registration
        # order.  _fire_for walks one bucket instead of every registered
        # trigger, so per-statement dispatch is O(the table-event's triggers)
        # — with very large (e.g. UNGROUPED Figure 17) populations the full
        # scan dominated firing cost.
        self._dispatch: dict[tuple[str, TriggerEvent], list[str]] = {}
        self._statement_log: list[StatementResult] = []
        self.enforce_foreign_keys = True
        # Serializes DML + trigger firing (single-writer model; see module
        # docstring).  Re-entrant because execute_many drives execute.
        self._lock = threading.RLock()
        # Commit listeners observe every durable state change (catalog DDL,
        # bulk loads, committed statement/batch deltas) — the hook the
        # write-ahead log of :mod:`repro.persist` attaches to.  Events are
        # emitted inside the database lock, *after* the state change is
        # applied and *before* any trigger fires, so a listener sees changes
        # in commit order and an activation never precedes its delta.
        self._commit_listeners: list[Callable[[str, Any], None]] = []
        self._batch_depth = 0  # suppresses per-statement emits inside a batch

    # ------------------------------------------------------------------ durability hooks

    def add_commit_listener(self, listener: Callable[[str, Any], None]) -> None:
        """Register a hook observing every committed state change.

        The listener is called as ``listener(kind, payload)`` with:

        * ``("create_table", TableSchema)`` / ``("drop_table", name)`` /
          ``("create_index", (table, columns, index_name))`` — catalog DDL;
        * ``("load", (table, rows))`` — a trigger-bypassing bulk load, with
          the coerced row tuples as stored;
        * ``("apply", [CoalescedDelta, ...])`` — the net per-(table, event)
          deltas of one committed statement or batch, emitted once per
          :meth:`execute` / :meth:`execute_many` call *after* the rows are
          applied and *before* triggers fire.

        Listeners run inside the database lock; keep them fast (the WAL
        appends of :mod:`repro.persist` are the intended use).
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: Callable[[str, Any], None]) -> None:
        """Remove a previously registered commit listener (idempotent)."""
        try:
            self._commit_listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, kind: str, payload: Any) -> None:
        for listener in self._commit_listeners:
            listener(kind, payload)

    def _emit_apply(self, deltas) -> None:
        if not self._commit_listeners:
            return
        deltas = [delta for delta in deltas if delta.rowcount]
        if deltas:
            self._emit("apply", deltas)

    # ------------------------------------------------------------------ catalog

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema; returns the new (empty) table."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.parent_table not in self._tables and fk.parent_table != schema.name:
                raise SchemaError(
                    f"table {schema.name!r}: foreign key references unknown table "
                    f"{fk.parent_table!r}"
                )
        table = Table(schema)
        self._tables[schema.name] = table
        self._emit("create_table", schema)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table (and any triggers attached to it)."""
        if name not in self._tables:
            raise UnknownTableError(f"no such table: {name!r}")
        del self._tables[name]
        doomed = [t for t in self._trigger_order if self._triggers[t].table == name]
        for trigger_name in doomed:
            self.drop_trigger(trigger_name)
        self._emit("drop_table", name)

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def table(self, name: str) -> Table:
        """Return a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no such table: {name!r}") from None

    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    def schema(self, name: str) -> TableSchema:
        """Return the schema of a table."""
        return self.table(name).schema

    def create_index(self, table: str, columns: Sequence[str], name: str | None = None) -> None:
        """Create a hash index on ``table(columns)``."""
        index_name = name or f"idx_{table}_{'_'.join(columns)}"
        self.table(table).create_index(index_name, columns)
        self._emit("create_index", (table, tuple(columns), index_name))

    # ------------------------------------------------------------------ triggers

    def register_trigger(self, trigger: StatementTrigger) -> None:
        """Register a statement-level trigger (names must be unique)."""
        if trigger.name in self._triggers:
            raise SchemaError(f"trigger {trigger.name!r} already exists")
        self.table(trigger.table)  # validate target table
        self._triggers[trigger.name] = trigger
        self._trigger_order.append(trigger.name)
        for event in trigger.events:
            self._dispatch.setdefault((trigger.table, event), []).append(trigger.name)

    def drop_trigger(self, name: str) -> None:
        """Remove a trigger by name."""
        trigger = self._triggers.get(name)
        if trigger is None:
            raise SchemaError(f"no such trigger: {name!r}")
        del self._triggers[name]
        self._trigger_order.remove(name)
        for event in trigger.events:
            bucket = self._dispatch.get((trigger.table, event))
            if bucket is not None and name in bucket:
                # Replace, don't mutate: a reader iterating the old bucket
                # sees a consistent snapshot (the _triggers .get() guard in
                # _fire_for already handles the dropped name).
                remaining = [n for n in bucket if n != name]
                if remaining:
                    self._dispatch[(trigger.table, event)] = remaining
                else:
                    del self._dispatch[(trigger.table, event)]

    def triggers(self, table: str | None = None) -> list[StatementTrigger]:
        """All registered triggers, optionally filtered to one table."""
        result = [self._triggers[name] for name in self._trigger_order]
        if table is not None:
            result = [t for t in result if t.table == table]
        return result

    def trigger(self, name: str) -> StatementTrigger:
        """Return a trigger by name."""
        try:
            return self._triggers[name]
        except KeyError:
            raise SchemaError(f"no such trigger: {name!r}") from None

    # ------------------------------------------------------------------ loading

    def load_rows(
        self, table: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> int:
        """Bulk-load rows *without* firing triggers (initial data population)."""
        target = self.table(table)
        # Collect the stored tuples only when a commit listener (the WAL)
        # will consume them — unobserved bulk loads keep their flat footprint.
        loaded: list[tuple] | None = [] if self._commit_listeners else None
        count = 0
        try:
            for row in rows:
                stored = (
                    target.schema.row_from_mapping(row)
                    if isinstance(row, Mapping)
                    else target.schema.row_from_values(row)
                )
                self._check_foreign_keys(target.schema, [stored])
                target.insert_row(stored)
                count += 1
                if loaded is not None:
                    loaded.append(stored)
        finally:
            # A failing row leaves its predecessors loaded; the log must
            # carry that applied prefix or recovery would lose it (same
            # contract as the failed-batch path of execute_many).
            if loaded:
                self._emit("load", (table, loaded))
        return count

    # ------------------------------------------------------------------ execution

    def execute(self, statement: Statement, *, fire_triggers: bool = True) -> StatementResult:
        """Execute one DML statement at statement granularity.

        The statement is applied atomically, transition tables are collected,
        and AFTER statement triggers are fired (unless ``fire_triggers`` is
        False, which the MATERIALIZED baseline uses when replaying updates).
        """
        with self._lock:
            if isinstance(statement, InsertStatement):
                result = self._execute_insert(statement)
            elif isinstance(statement, UpdateStatement):
                result = self._execute_update(statement)
            elif isinstance(statement, DeleteStatement):
                result = self._execute_delete(statement)
            else:
                raise TypeError(f"unsupported statement type: {type(statement).__name__}")

            self._statement_log.append(result)
            if result.rowcount and self._batch_depth == 0 and self._commit_listeners:
                # Log the statement's net delta before its triggers fire, so
                # a durable activation can never precede its durable cause.
                coalescer = DeltaCoalescer()
                coalescer.absorb(result)
                self._emit_apply(coalescer.deltas())
            if fire_triggers and result.rowcount:
                self._fire_triggers(result)
            return result

    def execute_many(
        self,
        statements: Batch | BulkLoad | Iterable[Statement | BulkLoad],
        *,
        fire_triggers: bool = True,
    ) -> BatchResult:
        """Execute a sequence of DML statements as one set-oriented batch.

        Statements are applied in order, but trigger firing is deferred to the
        end of the batch: the per-statement transition tables are coalesced
        into *net* ``Δ`` / ``∇`` tables per (table, event), and each statement
        trigger fires **once** per qualifying (table, event) with the combined
        delta — the set-at-a-time behaviour the paper's statement-level
        translation is designed for, extended from one statement to a batch.

        Semantics relative to one-by-one execution:

        * the final database state is identical;
        * rows inserted and deleted (or updated back to their original value)
          within the same batch are invisible to triggers — a batch exposes
          net effects, not intermediate states;
        * net effects are classified by primary key, so an UPDATE that
          changes a row's key fires as a DELETE of the old key plus an
          INSERT of the new one (at the view level that *is* the net
          effect: one monitored node disappears, another appears);
        * if a statement raises, earlier statements stay applied (matching
          sequential execution) and the triggers fire for their coalesced
          deltas before the statement's error propagates, carrying the
          partial :class:`BatchResult` as its ``batch`` attribute (its
          ``statements`` are the ones applied, so the failing statement is
          the next one and those behind it never ran); a trigger that
          raises while they fire raises its own error, chained to the
          statement's and without ``batch``.

        Accepts a :class:`~repro.relational.dml.Batch`, a
        :class:`~repro.relational.dml.BulkLoad`, or any iterable mixing plain
        statements and BulkLoads.
        """
        with self._lock:
            coalescer = DeltaCoalescer()
            batch = BatchResult()
            self._batch_depth += 1
            try:
                for statement in self._flatten(statements):
                    try:
                        result = self.execute(statement, fire_triggers=False)
                    except Exception as error:
                        error.batch = batch
                        raise
                    batch.statements.append(result)
                    coalescer.absorb(result)
            finally:
                # A failing statement leaves its predecessors applied (the
                # documented semantics), so their net deltas still reach the
                # commit listeners — otherwise recovery would lose them — and
                # still fire, so no view changes without its activation.
                self._batch_depth -= 1
                batch.deltas = coalescer.deltas()
                self._emit_apply(batch.deltas)
                if fire_triggers:
                    batch.fired_sql_triggers.extend(self._fire_batch(batch.deltas))
            return batch

    def _fire_batch(self, deltas: list) -> list[str]:
        """Fire the statement triggers once per net (table, event) slice."""
        # Union each table's slices so every firing can reconstruct the true
        # pre-batch table state, however many events touched it.  The
        # multiset cancellation (bag_difference both ways) is a no-op for
        # keyed tables (their slices are already net-disjoint) but essential
        # for tables without a primary key, whose per-event slices may carry
        # the same row as both inserted and deleted.
        per_table: dict[str, tuple[list, list]] = {}
        schemas: dict[str, Any] = {}
        for delta in deltas:
            inserted, deleted = per_table.setdefault(delta.table, ([], []))
            inserted.extend(delta.inserted.rows)
            deleted.extend(delta.deleted.rows)
            schemas[delta.table] = delta.inserted.schema
        nets: dict[str, tuple[TransitionTable, TransitionTable]] = {}
        for table, (inserted, deleted) in per_table.items():
            inserted_t = TransitionTable(schemas[table], inserted)
            deleted_t = TransitionTable(schemas[table], deleted)
            nets[table] = (
                bag_difference(inserted_t, deleted_t),
                bag_difference(deleted_t, inserted_t),
            )
        # One scratch set shared by every firing of this batch, letting
        # downstream consumers (the active-view service) deduplicate logical
        # transitions rediscovered by sibling event slices.
        batch_seen: set = set()
        fired: list[str] = []
        for delta in deltas:
            if not delta.rowcount:
                continue
            batch_inserted, batch_deleted = nets[delta.table]
            fired += self._fire_for(
                delta.table,
                TriggerEvent.parse(delta.event),
                delta.inserted,
                delta.deleted,
                statements=delta.statements,
                batch_inserted=batch_inserted,
                batch_deleted=batch_deleted,
                batch_seen=batch_seen,
            )
        return fired

    @staticmethod
    def _flatten(
        statements: Batch | BulkLoad | Iterable[Statement | BulkLoad],
    ) -> Iterable[Statement]:
        if isinstance(statements, BulkLoad):
            statements = statements.statements()
        elif isinstance(statements, Batch):
            statements = statements.statements
        for statement in statements:
            if isinstance(statement, BulkLoad):
                yield from statement.statements()
            else:
                yield statement

    def insert(self, table: str, rows, **kwargs) -> StatementResult:
        """Convenience wrapper: execute an INSERT of one or more rows."""
        if isinstance(rows, Mapping):
            rows = [rows]
        return self.execute(InsertStatement(table, rows), **kwargs)

    def update(self, table: str, assignments, where=None, **kwargs) -> StatementResult:
        """Convenience wrapper: execute an UPDATE statement."""
        return self.execute(UpdateStatement(table, assignments, where), **kwargs)

    def delete(self, table: str, where=None, **kwargs) -> StatementResult:
        """Convenience wrapper: execute a DELETE statement."""
        return self.execute(DeleteStatement(table, where), **kwargs)

    # -- statement implementations ---------------------------------------------

    def _execute_insert(self, statement: InsertStatement) -> StatementResult:
        table = self.table(statement.table)
        schema = table.schema
        prepared = []
        for row in statement.rows:
            if isinstance(row, Mapping):
                prepared.append(schema.row_from_mapping(row))
            else:
                prepared.append(schema.row_from_values(row))
        self._check_foreign_keys(schema, prepared)
        inserted = []
        try:
            for row in prepared:
                table.insert_row(row)
                inserted.append(row)
        except IntegrityError:
            for row in inserted:  # roll back the partially applied statement
                table.delete_key(schema.key_of(row)) if schema.primary_key else None
            raise
        return StatementResult(
            table=statement.table,
            event=TriggerEvent.INSERT.value,
            inserted=TransitionTable(schema, inserted),
            deleted=TransitionTable(schema, []),
        )

    def _execute_update(self, statement: UpdateStatement) -> StatementResult:
        table = self.table(statement.table)
        schema = table.schema
        changes = table.update_where(
            statement.predicate_fn(), statement.assignment_fn(), statement.key_set()
        )
        new_rows = [new for _, new in changes]
        self._check_foreign_keys(schema, new_rows)
        return StatementResult(
            table=statement.table,
            event=TriggerEvent.UPDATE.value,
            inserted=TransitionTable(schema, new_rows),
            deleted=TransitionTable(schema, [old for old, _ in changes]),
        )

    def _execute_delete(self, statement: DeleteStatement) -> StatementResult:
        table = self.table(statement.table)
        schema = table.schema
        deleted = table.delete_where(statement.predicate_fn(), statement.key_set())
        return StatementResult(
            table=statement.table,
            event=TriggerEvent.DELETE.value,
            inserted=TransitionTable(schema, []),
            deleted=TransitionTable(schema, deleted),
        )

    def _check_foreign_keys(self, schema: TableSchema, rows: Sequence[tuple]) -> None:
        if not self.enforce_foreign_keys or not schema.foreign_keys:
            return
        for fk in schema.foreign_keys:
            parent = self.table(fk.parent_table)
            for row in rows:
                value = schema.project(row, fk.columns)
                if any(part is None for part in value):
                    continue
                if fk.parent_columns == parent.schema.primary_key:
                    exists = parent.contains_key(value)
                else:
                    exists = bool(parent.lookup(fk.parent_columns, value))
                if not exists:
                    raise IntegrityError(
                        f"table {schema.name!r}: foreign key {fk.columns} = {value!r} "
                        f"has no match in {fk.parent_table!r}({', '.join(fk.parent_columns)})"
                    )

    # -- trigger firing -----------------------------------------------------------

    def _fire_triggers(self, result: StatementResult) -> None:
        fired = self._fire_for(
            result.table,
            TriggerEvent.parse(result.event),
            result.inserted,
            result.deleted,
        )
        result.fired_sql_triggers.extend(fired)

    def _fire_for(
        self,
        table: str,
        event: TriggerEvent,
        inserted: TransitionTable,
        deleted: TransitionTable,
        *,
        statements: int = 1,
        batch_inserted: TransitionTable | None = None,
        batch_deleted: TransitionTable | None = None,
        batch_seen: set | None = None,
    ) -> list[str]:
        """Fire every qualifying trigger once with the given transition tables."""
        context = TriggerContext(
            database=self,
            table=table,
            event=event,
            inserted=inserted,
            deleted=deleted,
            statements=statements,
            batch_inserted=batch_inserted,
            batch_deleted=batch_deleted,
            batch_seen=batch_seen,
        )
        fired: list[str] = []
        for name in tuple(self._dispatch.get((table, event), ())):
            trigger = self._triggers.get(name)
            if trigger is None:  # dropped concurrently
                continue
            if not trigger.handles(event):  # disabled triggers stay bucketed
                continue
            trigger.fire(context)
            fired.append(trigger.name)
        return fired

    # ------------------------------------------------------------------ utilities

    @property
    def statement_log(self) -> list[StatementResult]:
        """Statements executed so far (most recent last).

        Under a serving layer this is a recent window, not a history: a
        shard worker trims it after every micro-batch
        (:data:`repro.serving.server.HISTORY_WINDOW`).
        """
        return self._statement_log

    def row_count(self, table: str) -> int:
        """Number of rows currently in ``table``."""
        return len(self.table(table))

    def snapshot(self) -> dict[str, list[tuple]]:
        """Copy of every table's rows (used by the oracle / property tests)."""
        return {name: table.snapshot() for name, table in self._tables.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tables = ", ".join(f"{n}({len(t)})" for n, t in self._tables.items())
        return f"Database({self.name}: {tables})"
