"""Horizontal partitioning of the relational engine: ShardRouter + ShardedDatabase.

The translated-trigger pipeline keeps per-update cost flat as trigger
populations grow (the paper's Figure 17), but a single
:class:`~repro.relational.database.Database` is still a single-writer engine.
This module supplies the partitioning substrate the serving layer
(:mod:`repro.serving`) builds on:

* :class:`ShardRouter` — a deterministic mapping from ``(table, primary key)``
  to a shard index: the **primary-key hash**, or the hash of a custom
  **routing key** function (e.g. "the top-level ancestor of this row", which
  the hierarchy workload uses so each XML subtree lives wholly on one shard,
  or the table name, which keeps whole tables together).
* :class:`ShardedDatabase` — N databases sharing one catalog (every shard has
  every table's schema and indexes) with rows placed by the router.  DML
  statements are routed the same way, so a row is always read and written on
  the shard that owns it.

**View-closure contract.**  XML-trigger correctness on a sharded database
requires that the router co-locate every row a monitored XML node is built
from (the node's whole join/grouping neighborhood, e.g. a product and all its
vendors).  When that holds, each shard's view is exactly the restriction of
the global view to the nodes it owns, so the union of per-shard trigger
activations equals the unsharded system's — the equivalence property
``tests/serving/test_concurrent_equivalence.py`` pins down.  A table-affine
``key_fn=lambda table, key: table`` satisfies it for single-table views;
multi-table views need a routing key function that follows the view's
foreign-key paths (see
:meth:`repro.workloads.generator.HierarchyWorkload.routing_key_fn`).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ShardRoutingError
from repro.relational.database import Database
from repro.relational.dml import (
    Batch,
    BatchResult,
    BulkLoad,
    DeleteStatement,
    InsertStatement,
    Statement,
    StatementResult,
    UpdateStatement,
)
from repro.relational.schema import TableSchema

__all__ = ["ShardRouter", "ShardedDatabase", "stable_hash"]

#: ``key_fn(table, key) -> hashable`` — custom routing-key extraction.
RoutingKeyFunction = Callable[[str, tuple], Any]


def stable_hash(value: Any) -> int:
    """A process-independent hash (CRC32 of ``repr``) for shard placement.

    ``hash()`` is randomized per process for strings (PYTHONHASHSEED), which
    would scatter the same row to different shards across runs; placement
    must be reproducible so that data loaded today routes identically to the
    statements executed tomorrow.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


class ShardRouter:
    """Deterministically maps rows and statements to shard indexes.

    The routing value is the row's primary-key tuple, which spreads every
    table uniformly — appropriate when each monitored XML node is built from
    a single row (single-table views) — unless a :data:`RoutingKeyFunction`
    is passed as ``key_fn``.  It derives an application-level routing value
    (e.g. the owning top element's id) so related rows across tables
    co-locate, which multi-table views need (see the module docstring's
    view-closure contract); ``key_fn=lambda table, key: table`` keeps all
    rows of one table on one shard.
    """

    def __init__(
        self,
        shard_count: int,
        key_fn: RoutingKeyFunction | None = None,
    ) -> None:
        if shard_count < 1:
            raise ShardRoutingError("shard_count must be at least 1")
        self.shard_count = shard_count
        self.key_fn = key_fn

    def shard_of(self, table: str, key: tuple | None) -> int:
        """Shard index owning the row of ``table`` with primary key ``key``."""
        if self.key_fn is not None:
            return stable_hash(self.key_fn(table, key)) % self.shard_count
        if key is None:
            raise ShardRoutingError(
                f"cannot route a keyless row of {table!r} without a key_fn"
            )
        return stable_hash(key) % self.shard_count

    def shard_of_statement(
        self, statement: Statement, schema: TableSchema
    ) -> int | None:
        """Shard index a DML statement routes to, or ``None`` for broadcast.

        INSERTs route by the primary keys of their rows (keyless-table
        INSERTs route like keyless loaded rows — broadcasting them would
        duplicate the rows on every shard); key-targeted UPDATE / DELETE
        statements (``keys=...``) route by those keys.  Predicate-only
        UPDATE / DELETE statements (``where`` with no key set) cannot be
        routed and return ``None`` — the caller broadcasts them to every
        shard, which is equivalent because shards partition the rows.  A
        statement whose keys span several shards raises
        :class:`ShardRoutingError`: cross-shard statements would break the
        one-batch-one-shard execution model.
        """
        if self.shard_count == 1:
            return 0
        if isinstance(statement, InsertStatement) and not schema.primary_key:
            # A keyless INSERT must never broadcast — every shard would apply
            # it and the rows would duplicate shard_count times.  Route it
            # like a keyless loaded row instead: deterministic under a
            # key_fn, rejected without one (same as load_rows).
            return self.shard_of(statement.table, None)
        keys = self._statement_keys(statement, schema)
        if keys is None:
            return None
        shards = {self.shard_of(statement.table, key) for key in keys}
        if len(shards) != 1:
            raise ShardRoutingError(
                f"statement on {statement.table!r} targets keys on {len(shards)} shards; "
                "split it into per-shard statements"
            )
        return shards.pop()

    @staticmethod
    def _statement_keys(
        statement: Statement, schema: TableSchema
    ) -> list[tuple] | None:
        if isinstance(statement, InsertStatement):
            keys = []
            for row in statement.rows:
                if isinstance(row, Mapping):
                    keys.append(tuple(row[column] for column in schema.primary_key))
                else:
                    keys.append(schema.key_of(schema.row_from_values(row)))
            return keys
        if isinstance(statement, (UpdateStatement, DeleteStatement)):
            key_set = statement.key_set()
            if key_set is None:
                return None
            return sorted(key_set)
        return None


class ShardedDatabase:
    """N single-writer :class:`Database` shards behind one catalog.

    The catalog (tables, indexes, foreign keys) is replicated on every shard;
    the *rows* are partitioned by the :class:`ShardRouter`.  The class mirrors
    the parts of the ``Database`` API the workloads and the serving layer
    need — ``create_table`` / ``create_index`` / ``load_rows`` /
    ``execute`` / ``execute_many`` / ``snapshot`` — so a
    :class:`~repro.workloads.generator.HierarchyWorkload` can populate either
    transparently.

    ``execute`` on a routable statement runs it on the owning shard (firing
    that shard's triggers); a broadcast statement runs on every shard and
    returns the list of per-shard results.  For concurrent serving, wrap the
    sharded database in an :class:`repro.serving.ActiveViewServer`, which
    gives each shard a dedicated worker thread and micro-batches its queue.
    """

    def __init__(
        self,
        shard_count: int,
        *,
        name: str = "sharded",
        key_fn: RoutingKeyFunction | None = None,
    ) -> None:
        self.name = name
        self.router = ShardRouter(shard_count, key_fn)
        self.shards: list[Database] = [
            Database(name=f"{name}_shard{index}") for index in range(shard_count)
        ]

    @classmethod
    def from_databases(
        cls,
        databases: Sequence[Database],
        *,
        name: str = "sharded",
        key_fn: RoutingKeyFunction | None = None,
    ) -> "ShardedDatabase":
        """Wrap existing databases as shards (catalogs must already match).

        The common case is wrapping a single pre-built
        :class:`~repro.relational.database.Database` so it can be served by an
        :class:`repro.serving.ActiveViewServer` as one shard.
        """
        if not databases:
            raise ShardRoutingError("at least one database is required")
        instance = cls.__new__(cls)
        instance.name = name
        instance.router = ShardRouter(len(databases), key_fn)
        instance.shards = list(databases)
        return instance

    # ------------------------------------------------------------------ catalog

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard(self, index: int) -> Database:
        """The shard database at ``index``."""
        return self.shards[index]

    def create_table(self, schema: TableSchema) -> None:
        """Create a table on every shard (the catalog is replicated)."""
        for shard in self.shards:
            shard.create_table(schema)

    def create_index(self, table: str, columns: Sequence[str], name: str | None = None) -> None:
        """Create a hash index on ``table(columns)`` on every shard."""
        for shard in self.shards:
            shard.create_index(table, columns, name)

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists (checked on shard 0)."""
        return self.shards[0].has_table(name)

    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return self.shards[0].table_names()

    def schema(self, name: str) -> TableSchema:
        """Return the (shared) schema of a table."""
        return self.shards[0].schema(name)

    @property
    def enforce_foreign_keys(self) -> bool:
        """Foreign-key enforcement flag, kept in lockstep across shards."""
        return self.shards[0].enforce_foreign_keys

    @enforce_foreign_keys.setter
    def enforce_foreign_keys(self, value: bool) -> None:
        for shard in self.shards:
            shard.enforce_foreign_keys = value

    # ------------------------------------------------------------------ durability hooks

    def add_commit_listener(self, listener) -> list:
        """Observe committed changes on every shard, tagged with the shard index.

        ``listener(shard_index, kind, payload)`` receives the same
        ``(kind, payload)`` events as
        :meth:`~repro.relational.database.Database.add_commit_listener`, one
        stream per shard — this is how :class:`repro.persist.DurableServer`
        maintains one write-ahead log per shard.  Returns the per-shard
        wrapper callables (pass them to :meth:`remove_commit_listeners`).
        """
        wrappers = []
        for index, shard in enumerate(self.shards):
            def wrapper(kind, payload, _index=index):
                listener(_index, kind, payload)
            shard.add_commit_listener(wrapper)
            wrappers.append(wrapper)
        return wrappers

    def remove_commit_listeners(self, wrappers: Sequence) -> None:
        """Detach wrappers previously returned by :meth:`add_commit_listener`."""
        for shard, wrapper in zip(self.shards, wrappers):
            shard.remove_commit_listener(wrapper)

    # ------------------------------------------------------------------ loading

    def load_rows(
        self, table: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> int:
        """Bulk-load rows, placing each on the shard the router assigns it."""
        schema = self.schema(table)
        placed: dict[int, list] = {}
        count = 0
        for row in rows:
            if isinstance(row, Mapping):
                key = (
                    tuple(row[column] for column in schema.primary_key)
                    if schema.primary_key
                    else None
                )
            else:
                stored = schema.row_from_values(row)
                key = schema.key_of(stored) if schema.primary_key else None
            placed.setdefault(self.router.shard_of(table, key), []).append(row)
            count += 1
        for index, shard_rows in placed.items():
            self.shards[index].load_rows(table, shard_rows)
        return count

    # ------------------------------------------------------------------ execution

    def statement_shard(self, statement: Statement) -> int | None:
        """Shard index the statement routes to (``None`` = broadcast)."""
        return self.router.shard_of_statement(statement, self.schema(statement.table))

    def execute(
        self, statement: Statement, **kwargs
    ) -> StatementResult | list[StatementResult]:
        """Execute one statement on its owning shard (or broadcast it).

        Returns the owning shard's :class:`StatementResult` for a routable
        statement, or the list of per-shard results for a broadcast
        (predicate-only) statement.
        """
        shard = self.statement_shard(statement)
        if shard is not None:
            return self.shards[shard].execute(statement, **kwargs)
        return [s.execute(statement, **kwargs) for s in self.shards]

    def execute_many(
        self,
        statements: Batch | BulkLoad | Iterable[Statement | BulkLoad],
        **kwargs,
    ) -> dict[int, BatchResult]:
        """Execute a batch set-at-a-time, grouped per owning shard.

        Statements are split by shard (broadcasts are appended to every
        shard's sub-batch) and each shard runs its sub-batch through
        :meth:`Database.execute_many`, preserving the per-shard submission
        order.  Returns the per-shard :class:`BatchResult` objects keyed by
        shard index.
        """
        per_shard: dict[int, list[Statement]] = {}
        for statement in Database._flatten(statements):
            shard = self.statement_shard(statement)
            targets = range(self.shard_count) if shard is None else (shard,)
            for index in targets:
                per_shard.setdefault(index, []).append(statement)
        return {
            index: self.shards[index].execute_many(shard_statements, **kwargs)
            for index, shard_statements in sorted(per_shard.items())
        }

    # ------------------------------------------------------------------ utilities

    def row_count(self, table: str) -> int:
        """Total number of rows of ``table`` across all shards."""
        return sum(shard.row_count(table) for shard in self.shards)

    def snapshot(self) -> dict[str, list[tuple]]:
        """Merged copy of every table's rows across shards (sorted per table).

        Rows are sorted so snapshots compare equal whenever the *contents*
        match, regardless of how the rows were distributed."""
        merged: dict[str, list[tuple]] = {name: [] for name in self.table_names()}
        for shard in self.shards:
            for name, rows in shard.snapshot().items():
                merged[name].extend(rows)
        return {name: sorted(rows, key=repr) for name, rows in merged.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(sum(len(t) for t in s._tables.values())) for s in self.shards)
        return f"ShardedDatabase({self.name}: {self.shard_count} shards, rows [{sizes}])"
