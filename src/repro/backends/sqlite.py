"""SQLite execution backend: run the generated trigger SQL inside SQLite.

This is the Figure 16 architecture made real on a second engine: the
in-memory :class:`~repro.relational.database.Database` stays the system of
record (and the in-memory engines stay the oracle), while a SQLite
connection holds a **mirror** of every base table, kept up to date by
replaying the same net coalesced deltas the WAL / commit-listener path
already produces.  Generated trigger plans are lowered once (at trigger
compile time) into executable ``WITH ... SELECT`` statements by
:func:`repro.core.sqlgen.lower_plan_for_sqlite`; per firing, the backend
materializes the net transition tables as temp tables and runs the lowered
statement, then a Python-side **finishing pass** (:func:`finish_node`)
re-assembles the XML fragments from the JSON construction trees SQLite
produced.

SQLite has no ``FOR EACH STATEMENT`` triggers and no SQL/XML functions, so
two deliberate translations are applied (both detailed in
``docs/backends.md``):

* the *driver* role of the RDBMS trigger machinery stays in Python — the
  relational engine's statement triggers still decide *when* to fire, and
  the backend supplies the *body* execution;
* XML construction is expressed with the ``json1`` functions and finished
  in Python, with ``aggXMLFrag`` ordering keys embedded in the JSON so the
  finishing pass can reproduce the deterministic within-group order.

Known representation limits (all surfaced, none silent): ``BOOLEAN``
columns mirror as ``0``/``1`` integers, so a boolean flowing into XML text
content would render ``"1"`` rather than ``"true"``; plans whose constructs
the dialect cannot express raise :class:`BackendLoweringError` at prepare
time, and ``CREATE TRIGGER`` fails with
:class:`~repro.errors.TriggerCompilationError`.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.backends.base import BackendError, BackendLoweringError
from repro.core.affected_nodes import NEW_NODE, OLD_NODE
from repro.core.pushdown import AffectedPair, CompiledTableTrigger
from repro.core.sqlgen import (
    LoweredSqlitePlan,
    SqlLoweringError,
    lower_plan_for_sqlite,
    transition_table_name,
)
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.triggers import TriggerContext
from repro.relational.types import DataType, sort_key
from repro.xmlmodel.node import Element, Fragment, Text, XmlNode
from repro.xqgm.operators import TableVariant

__all__ = ["SqliteBackend", "SqlitePlan", "finish_node"]


_AFFINITY = {
    DataType.INTEGER: "INTEGER",
    DataType.REAL: "REAL",
    DataType.TEXT: "TEXT",
    # SQLite has no boolean storage class; booleans mirror as 0/1.
    DataType.BOOLEAN: "INTEGER",
}


def _to_sqlite(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    return value


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


# ---------------------------------------------------------------------------
# The XML-construction finishing pass
# ---------------------------------------------------------------------------


def _decode(value: Any) -> Any:
    """Decode one JSON tree entry: a node, a scalar, or an ``"r"``-wrapped REAL.

    The lowering embeds runtime-REAL scalars as ``["r", "%.17g text"]``
    because SQLite's JSON rendering is lossy at 15 significant digits;
    converting the 17-digit text back to ``float`` recovers the exact value,
    so the XML text formatting below matches the in-memory engines bit for
    bit.
    """
    if isinstance(value, list):
        if value and value[0] == "r":
            return float(value[1])
        return finish_node(value)
    return value


def finish_node(value: Any) -> XmlNode | None:
    """Assemble an XML node from the JSON construction tree SQLite returned.

    The lowered statements encode nodes as tagged JSON arrays:

    * ``["e", name, {attr: value, ...}, child, ...]`` — an element; ``None``
      children are skipped and scalar children become text nodes, exactly as
      in :class:`~repro.xqgm.expressions.ElementConstructor`;
    * ``["t", value]`` — a text node (``None`` renders as ``""``);
    * ``["f", n, [[k1, ..., kn, item], ...]]`` — an ``aggXMLFrag`` fragment
      whose items carry ``n`` leading order keys; items are sorted by those
      keys with the engine's heterogeneous :func:`~repro.relational.types.sort_key`
      (the ``order_within_group`` semantics of the interpreted GroupBy);
    * ``["r", text]`` — a REAL scalar in lossless 17-digit form (see
      :func:`_decode`).

    Fragments splice and ``None`` items vanish through the
    :class:`~repro.xmlmodel.node.Element` / ``Fragment`` constructors — the
    same code paths the in-memory engines use, which is what keeps the two
    representations convertible without loss.
    """
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise BackendError(f"malformed node JSON: {value!r}")
    tag = value[0]
    if tag == "e":
        node = Element(value[1])
        for name, attribute in value[2].items():
            node.set_attribute(name, "" if attribute is None else _decode(attribute))
        for child in value[3:]:
            if child is None:
                continue
            node.append(_decode(child))
        return node
    if tag == "t":
        return Text("" if value[1] is None else _decode(value[1]))
    if tag == "f":
        key_count = value[1]
        ordered = sorted(
            value[2],
            key=lambda item: tuple(sort_key(_decode(k)) for k in item[:key_count]),
        )
        return Fragment([_decode(item[key_count]) for item in ordered])
    raise BackendError(f"unknown node tag {tag!r} in {value!r}")


# ---------------------------------------------------------------------------
# Prepared plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqlitePlan:
    """A lowered trigger plan bound to result-column slots."""

    lowered: LoweredSqlitePlan
    key_slots: tuple[int, ...]
    old_slot: int
    new_slot: int
    node_slots: tuple[int, ...]

    @property
    def table(self) -> str:
        """The base table whose statements fire this plan."""
        return self.lowered.table

    @property
    def sql(self) -> str:
        """The executable ``WITH ... SELECT`` statement."""
        return self.lowered.sql


class SqliteBackend:
    """Mirror a :class:`Database` into SQLite and execute trigger SQL there.

    Follows the engine's single-writer model: one thread drives DML (and
    thereby trigger firing) at a time.  The connection is created with
    ``check_same_thread=False`` so a service handed off between worker
    threads (never used concurrently) keeps working.
    """

    name = "sqlite"

    def __init__(self, connection: sqlite3.Connection | None = None) -> None:
        self._conn = connection or sqlite3.connect(":memory:", check_same_thread=False)
        self._database: Database | None = None
        self._listener = None
        self._transition_ready: set[str] = set()
        #: Rows replayed into the mirror via the commit stream.
        self.rows_mirrored = 0

    # ------------------------------------------------------------------ mirroring

    def attach(self, database: Database) -> None:
        """Mirror ``database``'s catalog and rows, then follow its commits."""
        if self._database is not None:
            raise BackendError("backend is already attached to a database")
        self._database = database
        for name in database.table_names():
            self._create_table(database.schema(name))
            table = database.table(name)
            self._insert_rows(table.schema, table.rows())
        self._listener = self._on_commit
        database.add_commit_listener(self._listener)
        self._conn.commit()

    def close(self) -> None:
        """Detach from the database and close the connection (idempotent)."""
        if self._database is not None and self._listener is not None:
            self._database.remove_commit_listener(self._listener)
        self._database = None
        self._listener = None
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    def _on_commit(self, kind: str, payload: Any) -> None:
        if kind == "apply":
            self._apply_deltas(payload)
        elif kind == "load":
            table, rows = payload
            assert self._database is not None
            self._insert_rows(self._database.schema(table), rows)
        elif kind == "create_table":
            self._create_table(payload)
        elif kind == "drop_table":
            self._conn.execute(f"DROP TABLE IF EXISTS {_quoted(payload)}")
            # Drop the transition temp tables too: a same-named table created
            # later may carry a different schema, and CREATE TEMP TABLE IF
            # NOT EXISTS would silently keep the stale column layout.
            for variant in (
                TableVariant.DELTA_INSERTED,
                TableVariant.DELTA_DELETED,
                TableVariant.PRUNED_INSERTED,
                TableVariant.PRUNED_DELETED,
            ):
                self._conn.execute(
                    f"DROP TABLE IF EXISTS temp.{_quoted(transition_table_name(payload, variant))}"
                )
            self._transition_ready.discard(payload)
        elif kind == "create_index":
            table, columns, index_name = payload
            self._create_index(table, columns, index_name)
        # Unknown kinds are future commit events; the mirror ignores them.

    def _create_table(self, schema: TableSchema) -> None:
        columns = [
            f"{_quoted(column.name)} {_AFFINITY[column.dtype]}" for column in schema.columns
        ]
        if schema.primary_key:
            key = ", ".join(_quoted(column) for column in schema.primary_key)
            columns.append(f"PRIMARY KEY ({key})")
        self._conn.execute(
            f"CREATE TABLE {_quoted(schema.name)} ({', '.join(columns)})"
        )
        for fk in schema.foreign_keys:
            # Probe-shaped lookups join through foreign keys; mirror the
            # engine's habit of indexing them.
            self._create_index(schema.name, fk.columns, f"fk_{'_'.join(fk.columns)}")

    def _create_index(self, table: str, columns: Sequence[str], index_name: str) -> None:
        name = _quoted(f"{table}__{index_name}")
        column_list = ", ".join(_quoted(column) for column in columns)
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS {name} ON {_quoted(table)} ({column_list})"
        )

    def _insert_rows(self, schema: TableSchema, rows: Iterable[tuple]) -> None:
        rows = [tuple(_to_sqlite(value) for value in row) for row in rows]
        if not rows:
            return
        placeholders = ", ".join("?" for _ in schema.column_names)
        self._conn.executemany(
            f"INSERT INTO {_quoted(schema.name)} VALUES ({placeholders})", rows
        )
        self.rows_mirrored += len(rows)

    def _delete_rows(self, schema: TableSchema, rows: Iterable[tuple]) -> None:
        rows = list(rows)
        if not rows:
            return
        if schema.primary_key:
            condition = " AND ".join(f"{_quoted(c)} = ?" for c in schema.primary_key)
            keys = [tuple(_to_sqlite(v) for v in schema.key_of(row)) for row in rows]
            self._conn.executemany(
                f"DELETE FROM {_quoted(schema.name)} WHERE {condition}", keys
            )
        else:
            # No key: remove one matching occurrence per delta row (bag
            # semantics, like the engine's keyless delete path).
            condition = " AND ".join(f"{_quoted(c)} IS ?" for c in schema.column_names)
            self._conn.executemany(
                f"DELETE FROM {_quoted(schema.name)} WHERE rowid = "
                f"(SELECT rowid FROM {_quoted(schema.name)} WHERE {condition} LIMIT 1)",
                [tuple(_to_sqlite(v) for v in row) for row in rows],
            )

    def _apply_deltas(self, deltas: Sequence[Any]) -> None:
        # All deletions first, then all insertions: a batch's net deltas may
        # split one key-changing UPDATE into a DELETE slice and an INSERT
        # slice, and the old key must be gone before the new row lands.
        for delta in deltas:
            self._delete_rows(delta.deleted.schema, delta.deleted.rows)
        for delta in deltas:
            self._insert_rows(delta.inserted.schema, delta.inserted.rows)

    # ------------------------------------------------------------------ lowering

    def prepare(self, translation: CompiledTableTrigger) -> SqlitePlan:
        """Lower one translation to an executable statement (compile time).

        Raises :class:`BackendLoweringError` when the plan cannot be
        expressed in the dialect; the service then fails ``CREATE TRIGGER``.
        """
        if self._database is None:
            raise BackendError("attach() the backend before preparing plans")
        catalog = {
            name: self._database.schema(name) for name in self._database.table_names()
        }
        final_columns = (OLD_NODE, NEW_NODE, *translation.key_columns)
        try:
            lowered = lower_plan_for_sqlite(
                translation.executable_top,
                translation.table,
                catalog,
                final_columns=final_columns,
                order_by=translation.key_columns,
            )
        except SqlLoweringError as error:
            raise BackendLoweringError(str(error)) from error
        self._ensure_transition_tables(translation.table)
        try:
            # Preparing the statement (EXPLAIN compiles without running it)
            # surfaces any SQL-level gap now, at trigger compile time, so a
            # firing can never fail mid-flight.
            self._conn.execute("EXPLAIN " + lowered.sql)
        except sqlite3.Error as error:
            raise BackendLoweringError(
                f"lowered statement does not compile on SQLite: {error}"
            ) from error
        index = {column: i for i, column in enumerate(lowered.final_columns)}
        return SqlitePlan(
            lowered=lowered,
            key_slots=tuple(index[column] for column in translation.key_columns),
            old_slot=index[OLD_NODE],
            new_slot=index[NEW_NODE],
            node_slots=tuple(sorted(index[column] for column in lowered.node_columns)),
        )

    def _ensure_transition_tables(self, table: str) -> None:
        if table in self._transition_ready:
            return
        assert self._database is not None
        schema = self._database.schema(table)
        columns = ", ".join(
            f"{_quoted(column.name)} {_AFFINITY[column.dtype]}" for column in schema.columns
        )
        for variant in (
            TableVariant.DELTA_INSERTED,
            TableVariant.DELTA_DELETED,
            TableVariant.PRUNED_INSERTED,
            TableVariant.PRUNED_DELETED,
        ):
            name = _quoted(transition_table_name(table, variant))
            self._conn.execute(f"CREATE TEMP TABLE IF NOT EXISTS {name} ({columns})")
        self._transition_ready.add(table)

    # ------------------------------------------------------------------ execution

    def affected_pairs(
        self, plan: SqlitePlan, context: TriggerContext
    ) -> list[AffectedPair]:
        """Run a prepared plan for one firing of its table's SQL trigger."""
        if context.table != plan.table:  # pragma: no cover - defensive
            raise BackendError(
                f"plan for {plan.table!r} fired with a {context.table!r} context"
            )
        self._materialize_transitions(plan, context)
        rows = self._conn.execute(plan.sql).fetchall()
        pairs: list[AffectedPair] = []
        node_slots = set(plan.node_slots)
        for row in rows:
            old = row[plan.old_slot]
            new = row[plan.new_slot]
            pairs.append(
                AffectedPair(
                    key=tuple(row[i] for i in plan.key_slots),
                    old_node=(
                        finish_node(json.loads(old))
                        if old is not None and plan.old_slot in node_slots
                        else None
                    ),
                    new_node=(
                        finish_node(json.loads(new))
                        if new is not None and plan.new_slot in node_slots
                        else None
                    ),
                )
            )
        return pairs

    def _materialize_transitions(self, plan: SqlitePlan, context: TriggerContext) -> None:
        if not plan.lowered.required_variants:
            return
        assert self._database is not None
        schema = self._database.schema(plan.table)
        placeholders = ", ".join("?" for _ in schema.column_names)
        for variant in plan.lowered.required_variants:
            if variant is TableVariant.DELTA_INSERTED:
                rows = context.net_inserted.rows
            elif variant is TableVariant.DELTA_DELETED:
                rows = context.net_deleted.rows
            elif variant is TableVariant.PRUNED_INSERTED:
                rows = context.net_pruned_inserted().rows
            else:
                rows = context.net_pruned_deleted().rows
            name = _quoted(transition_table_name(plan.table, variant))
            self._conn.execute(f"DELETE FROM {name}")
            if rows:
                self._conn.executemany(
                    f"INSERT INTO {name} VALUES ({placeholders})",
                    [tuple(_to_sqlite(value) for value in row) for row in rows],
                )

    # ------------------------------------------------------------------ inspection

    def mirror_rows(self, table: str) -> list[tuple]:
        """The mirror's current rows for ``table`` (tests / debugging)."""
        return list(self._conn.execute(f"SELECT * FROM {_quoted(table)}"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        attached = self._database.name if self._database is not None else None
        return f"SqliteBackend(attached={attached!r})"
