"""Table storage: rows, primary-key map, secondary hash indexes.

A :class:`Table` stores rows as tuples keyed by their primary-key value.
Tables without a primary key fall back to an internal surrogate row id (the
paper's algorithms require primary keys on base tables, but the engine itself
does not).  Secondary hash indexes can be created on any column list; the
trigger pushdown creates them on foreign-key columns so that affected-key
probes are O(matching rows) rather than O(table size) — mirroring the paper's
"appropriate indices on the key columns and other join columns".

:class:`TransitionTable` is a lightweight read-only collection of rows used
for the statement-trigger transition tables ``Δtable`` / ``∇table``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import IntegrityError, SchemaError
from repro.relational.schema import TableSchema

#: Process-wide unique ids so version stamps from two Table instances that
#: happen to share a name (drop + recreate, recovery rebuilds) never collide.
_table_uids = itertools.count(1)

__all__ = ["Table", "TransitionTable"]


class TransitionTable:
    """An immutable bag of rows sharing a schema (``OLD_TABLE`` / ``NEW_TABLE``)."""

    def __init__(self, schema: TableSchema, rows: Iterable[tuple] = ()) -> None:
        self.schema = schema
        self._rows: tuple[tuple, ...] = tuple(tuple(row) for row in rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """All rows as tuples (column order follows the schema)."""
        return self._rows

    def mappings(self) -> list[dict[str, Any]]:
        """All rows as column-name → value dictionaries."""
        return [self.schema.row_to_mapping(row) for row in self._rows]

    def keys(self) -> set[tuple]:
        """Primary-key values of all rows (requires the schema to have a PK)."""
        if not self.schema.primary_key:
            raise SchemaError(
                f"table {self.schema.name!r} has no primary key; "
                "transition-table rows cannot be identified by key"
            )
        return {self.schema.key_of(row) for row in self._rows}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransitionTable({self.schema.name}, {len(self._rows)} rows)"


class Table:
    """Mutable storage for one relational table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[tuple, tuple] = {}
        self._next_rowid = 0
        # Monotonic data-version counter.  Every mutation path — per-statement
        # DML, batched execution, trigger-bypassing bulk loads, and WAL
        # recovery replay — lands in insert_row / _remove / update_where, so
        # the counter advances on every commit path.  The compiled plans
        # (repro.xqgm.physical) key what a statement's evaluation memo holds
        # with the versions of the tables it was computed from, so a trigger
        # action's own DML is seen by the groups its statement fires later.
        self._version = 0
        self._uid = next(_table_uids)
        # index name -> (columns, mapping value-tuple -> set of storage keys)
        self._indexes: dict[str, tuple[tuple[str, ...], dict[tuple, set[tuple]]]] = {}
        # Unique constraints get dedicated indexes for O(1) enforcement.
        for constraint in schema.unique_constraints:
            self.create_index(
                f"__unique_{'_'.join(constraint.columns)}", constraint.columns
            )

    # -- basics ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def version(self) -> int:
        """Monotonic counter advanced by every mutation of this table."""
        return self._version

    @property
    def version_stamp(self) -> tuple[int, int]:
        """``(table uid, version)`` — the statement memo's freshness token.

        The counter is advanced inline by the storage mutators themselves
        (``insert_row`` / ``_remove``); any new mutation path must route
        through those or bump ``self._version`` the same way.
        """
        return (self._uid, self._version)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows.values())

    def rows(self) -> list[tuple]:
        """A snapshot list of all row tuples."""
        return list(self._rows.values())

    def mappings(self) -> list[dict[str, Any]]:
        """All rows as dictionaries."""
        return [self.schema.row_to_mapping(row) for row in self._rows.values()]

    def _storage_key(self, row: tuple) -> tuple:
        if self.schema.primary_key:
            return self.schema.key_of(row)
        self._next_rowid += 1
        return ("__rowid__", self._next_rowid)

    # -- index management ------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str]) -> None:
        """Create (or refresh) a hash index over ``columns``."""
        columns = tuple(columns)
        for column in columns:
            self.schema.column(column)  # validates existence
        mapping: dict[tuple, set[tuple]] = {}
        for storage_key, row in self._rows.items():
            value = self.schema.project(row, columns)
            mapping.setdefault(value, set()).add(storage_key)
        self._indexes[name] = (columns, mapping)

    def has_index_on(self, columns: Sequence[str]) -> bool:
        """Whether an index exactly covering ``columns`` exists."""
        target = tuple(columns)
        return any(cols == target for cols, _ in self._indexes.values())

    def index_definitions(self) -> list[tuple[str, tuple[str, ...]]]:
        """``(name, columns)`` for every index (used by persistence snapshots)."""
        return [(name, columns) for name, (columns, _) in self._indexes.items()]

    def _index_for(self, columns: Sequence[str]):
        target = tuple(columns)
        for cols, mapping in self._indexes.values():
            if cols == target:
                return mapping
        return None

    # -- lookups ---------------------------------------------------------------

    def get(self, key: tuple) -> tuple | None:
        """Return the row with the given primary-key value, or ``None``."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        return self._rows.get(tuple(key))

    def contains_key(self, key: tuple) -> bool:
        """Whether a row with this primary-key value exists."""
        return tuple(key) in self._rows if self.schema.primary_key else False

    def lookup(self, columns: Sequence[str], value: Sequence[Any]) -> list[tuple]:
        """Return all rows whose ``columns`` equal ``value``.

        Uses a hash index when one covers the columns; otherwise scans.
        """
        value = tuple(value)
        mapping = self._index_for(columns)
        if mapping is not None:
            return [self._rows[k] for k in mapping.get(value, ())]
        columns = tuple(columns)
        return [
            row
            for row in self._rows.values()
            if self.schema.project(row, columns) == value
        ]

    def scan(self, predicate: Callable[[dict[str, Any]], bool] | None = None) -> list[tuple]:
        """Return all rows, optionally filtered by a predicate over row dicts."""
        if predicate is None:
            return self.rows()
        result = []
        for row in self._rows.values():
            if predicate(self.schema.row_to_mapping(row)):
                result.append(row)
        return result

    # -- mutation ---------------------------------------------------------------

    def _check_unique(self, row: tuple, ignore_key: tuple | None = None) -> None:
        for constraint in self.schema.unique_constraints:
            value = self.schema.project(row, constraint.columns)
            if any(v is None for v in value):
                continue  # SQL unique constraints ignore NULLs
            for existing_key in self._matching_keys(constraint.columns, value):
                if existing_key != ignore_key:
                    raise IntegrityError(
                        f"table {self.name!r}: unique constraint on "
                        f"{constraint.columns} violated by {value!r}"
                    )

    def _matching_keys(self, columns: Sequence[str], value: tuple) -> set[tuple]:
        mapping = self._index_for(columns)
        if mapping is not None:
            return set(mapping.get(value, set()))
        columns = tuple(columns)
        return {
            key
            for key, row in self._rows.items()
            if self.schema.project(row, columns) == value
        }

    def insert_row(self, row: Mapping[str, Any] | Sequence[Any]) -> tuple:
        """Insert one row (mapping or positional values); returns the stored tuple."""
        if isinstance(row, Mapping):
            stored = self.schema.row_from_mapping(row)
        else:
            stored = self.schema.row_from_values(row)
        if self.schema.primary_key:
            key = self.schema.key_of(stored)
            if any(part is None for part in key):
                raise IntegrityError(
                    f"table {self.name!r}: primary key may not contain NULL"
                )
            if key in self._rows:
                raise IntegrityError(
                    f"table {self.name!r}: duplicate primary key {key!r}"
                )
        self._check_unique(stored)
        storage_key = self._storage_key(stored)
        self._rows[storage_key] = stored
        for columns, mapping in self._indexes.values():
            mapping.setdefault(self.schema.project(stored, columns), set()).add(storage_key)
        self._version += 1
        return stored

    def _candidates(self, candidate_keys: Iterable[tuple] | None) -> Iterable[tuple[tuple, tuple]]:
        """(storage key, row) pairs to consider: all rows, or just the given keys."""
        if candidate_keys is None:
            return list(self._rows.items())
        result = []
        for key in candidate_keys:
            key = tuple(key)
            row = self._rows.get(key)
            if row is not None:
                result.append((key, row))
        return result

    def delete_where(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        candidate_keys: Iterable[tuple] | None = None,
    ) -> list[tuple]:
        """Delete all rows matching ``predicate``; returns the deleted rows.

        ``candidate_keys`` restricts the scan to rows with those primary keys
        (the index fast path for key-targeted statements).
        """
        doomed = [
            (key, row)
            for key, row in self._candidates(candidate_keys)
            if predicate(self.schema.row_to_mapping(row))
        ]
        for key, row in doomed:
            self._remove(key, row)
        return [row for _, row in doomed]

    def delete_key(self, key: tuple) -> tuple | None:
        """Delete the row with the given primary key; returns it (or ``None``)."""
        key = tuple(key)
        row = self._rows.get(key)
        if row is None:
            return None
        self._remove(key, row)
        return row

    def _remove(self, storage_key: tuple, row: tuple) -> None:
        del self._rows[storage_key]
        for columns, mapping in self._indexes.values():
            value = self.schema.project(row, columns)
            bucket = mapping.get(value)
            if bucket is not None:
                bucket.discard(storage_key)
                if not bucket:
                    del mapping[value]
        self._version += 1

    def update_where(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        assign: Callable[[dict[str, Any]], Mapping[str, Any]],
        candidate_keys: Iterable[tuple] | None = None,
    ) -> list[tuple[tuple, tuple]]:
        """Update rows matching ``predicate``.

        ``assign`` maps the current row dict to a dict of column → new value
        (only the changed columns need to be present).  Returns a list of
        ``(old_row, new_row)`` tuple pairs, including rows whose values did
        not actually change (matching SQL transition-table semantics, see
        Definition 5 / Appendix F.1 of the paper).  ``candidate_keys``
        restricts the scan to rows with those primary keys.
        """
        matched = [
            (key, row)
            for key, row in self._candidates(candidate_keys)
            if predicate(self.schema.row_to_mapping(row))
        ]
        changes: list[tuple[tuple, tuple]] = []
        for key, old_row in matched:
            current = self.schema.row_to_mapping(old_row)
            updates = dict(assign(dict(current)))
            current.update(updates)
            new_row = self.schema.row_from_mapping(current)
            changes.append((old_row, new_row))

        # Apply with primary-key integrity checking (two-phase so that
        # key-swapping updates within one statement do not falsely collide).
        for key, old_row in matched:
            self._remove(key, old_row)
        try:
            for (_, new_row) in changes:
                if self.schema.primary_key:
                    new_key = self.schema.key_of(new_row)
                    if any(part is None for part in new_key):
                        raise IntegrityError(
                            f"table {self.name!r}: primary key may not contain NULL"
                        )
                    if new_key in self._rows:
                        raise IntegrityError(
                            f"table {self.name!r}: duplicate primary key {new_key!r}"
                        )
                self._check_unique(new_row)
                storage_key = self._storage_key(new_row)
                self._rows[storage_key] = new_row
                for columns, mapping in self._indexes.values():
                    mapping.setdefault(
                        self.schema.project(new_row, columns), set()
                    ).add(storage_key)
        except IntegrityError:
            # Roll the statement back: restore the original rows.
            for (_, new_row) in changes:
                storage_key = (
                    self.schema.key_of(new_row) if self.schema.primary_key else None
                )
                if storage_key is not None and self._rows.get(storage_key) == new_row:
                    self._remove(storage_key, new_row)
            for key, old_row in matched:
                storage_key = self._storage_key(old_row)
                self._rows[storage_key] = old_row
                for columns, mapping in self._indexes.values():
                    mapping.setdefault(
                        self.schema.project(old_row, columns), set()
                    ).add(storage_key)
            raise
        return changes

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> list[tuple]:
        """A copy of all rows (used by the MATERIALIZED baseline / tests)."""
        return list(self._rows.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name}, {len(self._rows)} rows)"
