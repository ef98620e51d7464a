"""Batch-oriented columnar execution: column batches, masks, bulk joins.

The compiled row engine (:mod:`repro.xqgm.physical`) already removed the
interpreter's dictionary merging and per-row expression tree walks, but it
still drives every operator tuple-at-a-time: one Python-level function call
per row per predicate, one tuple allocation per row per join merge.  This
module lowers the same logical XQGM graphs a third way — into **columnar**
operators that exchange :class:`ColumnBatch` objects (parallel columns plus
an optional shared selection) so per-row interpreter overhead amortizes
across a whole batch:

* predicates compile to vectorized mask evaluators
  (:func:`repro.xqgm.expressions.compile_predicate_columns`) producing one
  boolean column per batch; a select then only narrows the selection — the
  data columns are shared, not copied;
* projections that merely rename/reorder compile to a column permutation
  (zero copying; the column objects themselves are shared);
* hash joins build their table over key columns and probe in bulk, gathering
  matching row indexes first and materializing the merged columns in one
  pass per column;
* grouped aggregation clusters row indexes per group (sorted runs for
  ``order_within_group``) and runs vectorized aggregate evaluators over
  gathered argument columns;
* XML construction (element/text constructors, ``aggXMLFrag``) consumes
  column slices: child and attribute expressions evaluate over the whole
  batch before the per-row node assembly loop.

Columns are **immutable once constructed** — operators may freely share
column objects across batches (that is where the zero-copy wins come from),
so no operator ever mutates a column it received.

Semantics mirror the row engines value-for-value; the differential fuzzer
(``tests/property/test_property_columnar_equivalence.py``) pins columnar ==
compiled == interpreted == oracle on randomized workloads.  The join driver
replays the compiled engine's adaptive input ordering, build-side selection
and index-probe profitability test over the same logical operator ids, so a
cache-free evaluation produces bit-identical row *order* as well.

The engine reuses the row engine's compiler (:class:`ColumnarCompiler` only
swaps the node classes, so both engines classify every subplan identically)
and both of its reuse mechanisms.  Statement-shared nodes keep their
:class:`ColumnBatch` in the statement's evaluation memo, keyed by the
columnar node itself, so the two engines never read each other's format.
The version-stamped :class:`~repro.xqgm.physical.ResultCache` is used
unchanged: its entries stay **row-major** (``list[tuple]``), converted at
the boundary by :meth:`ColumnBatch.to_rows` / :meth:`ColumnBatch.from_rows`.
Logical subgraphs shared between plans running on different engines can
therefore serve each other's cross-statement hits — and the cache never holds
engine-specific objects.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import EvaluationError
from repro.relational.types import sort_key
from repro.xqgm.evaluate import (
    EvaluationContext,
    _PROBE_RATIO,
    _hashable,
    _cost_template,
    _pairs_for,
    _table_rows,
)
from repro.xqgm.expressions import (
    ColumnRef,
    compile_expr_columns,
    compile_predicate,
    compile_predicate_columns,
)
from repro.xqgm.operators import (
    ConstantsOp,
    GroupByOp,
    JoinKind,
    JoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    TableOp,
    TableVariant,
    UnionOp,
    UnnestOp,
)
from repro.xqgm.physical import VOLATILE, PlanCompiler, SlotLayout, _MergeSpec, version_stamp

__all__ = ["ColumnBatch", "ColumnarPlan", "ColumnarCompiler", "compile_columnar_plan"]


class ColumnBatch:
    """A batch of rows stored column-wise, with an optional shared selection.

    ``columns`` holds one sequence per slot, each of ``length`` values.  When
    ``sel`` is set it lists the *kept* row positions in output order — the
    batch then logically contains ``len(sel)`` rows while the underlying
    columns are shared, unmaterialized, with whatever produced them (this is
    how a select narrows a batch without copying it).  :meth:`materialize`
    gathers the selection into dense columns on first use and memoizes the
    result.

    Columns are immutable once a batch is constructed; batches may share
    column objects freely.
    """

    __slots__ = ("columns", "length", "sel", "_dense")

    def __init__(
        self,
        columns: Sequence[Sequence[Any]],
        length: int,
        sel: Sequence[int] | None = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.sel = sel
        self._dense: ColumnBatch | None = None

    def __len__(self) -> int:
        """Visible row count (selection-aware) — also the join driver's
        exact-cardinality input to :func:`~repro.xqgm.evaluate._input_cost_estimate`."""
        return self.length if self.sel is None else len(self.sel)

    def materialize(self) -> "ColumnBatch":
        """Dense form: apply the selection (memoized; identity when dense)."""
        if self.sel is None:
            return self
        dense = self._dense
        if dense is None:
            sel = self.sel
            dense = ColumnBatch([[col[i] for i in sel] for col in self.columns], len(sel))
            self._dense = dense
        return dense

    def to_rows(self) -> list[tuple]:
        """Row-major form (the result cache's storage representation)."""
        dense = self.materialize()
        if not dense.columns:
            return [()] * dense.length
        return list(zip(*dense.columns))

    @staticmethod
    def from_rows(rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """Rebuild a dense batch from row-major data (result-cache hits)."""
        if not rows:
            return ColumnBatch([[] for _ in range(width)], 0)
        if width == 0:
            return ColumnBatch([], len(rows))
        return ColumnBatch([list(column) for column in zip(*rows)], len(rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "" if self.sel is None else f", sel={len(self.sel)}"
        return f"ColumnBatch({len(self.columns)}x{self.length}{suffix})"


#: Memo sentinel: ``(_HASHED_SCAN, table_op_id) -> scan length``.  Left by
#: :meth:`CInnerJoin._try_sorted_probe` for a scan it answered from the
#: table's indexes without materializing; the row engines *did* materialize
#: that scan (their hash join calls ``rows()``), so join-order estimates and
#: probe decisions consult the sentinel to keep mirroring their memo state.
_HASHED_SCAN = "hashed-scan"


def _gather(column: Sequence[Any], indexes: Sequence[int]) -> list:
    return [column[i] for i in indexes]


def _key_rows(
    columns: Sequence[Sequence[Any]], slots: Sequence[int], length: int
) -> list[tuple]:
    """Join/grouping keys, one tuple per row, extracted column-at-a-time."""
    if len(slots) == 1:
        return [(value,) for value in columns[slots[0]]]
    if not slots:
        return [()] * length
    return list(zip(*(columns[s] for s in slots)))


# ---------------------------------------------------------------------------
# Columnar operators
# ---------------------------------------------------------------------------


class ColumnarOp:
    """One columnar operator: produces a :class:`ColumnBatch` for a logical node.

    The reuse protocol is that of
    :meth:`repro.xqgm.physical.PhysicalOp.rows`: same stability classes, same
    statement-shared nodes, same version stamps — only the in-memory exchange
    format differs, and the result cache itself stays row-major.
    """

    __slots__ = ("logical", "logical_id", "kind", "rows_counter", "layout",
                 "cache_key", "table_deps", "stability", "cache_eligible", "shared",
                 "width")

    def __init__(self, logical: Operator, layout: SlotLayout) -> None:
        self.logical = logical
        self.logical_id = logical.id
        self.kind = logical.kind.lower()
        self.rows_counter = "rows_" + self.kind
        self.layout = layout
        self.cache_key = (logical.id, layout.columns)
        self.width = len(layout.columns)
        self.table_deps: tuple[str, ...] = ()
        self.stability = VOLATILE
        self.cache_eligible = False
        self.shared = False

    def batch(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        """The node's batch (memoized per execution, shared per statement)."""
        hit = memo.get(self.logical_id)
        if hit is not None:
            return hit
        shared = ctx.shared_results if self.shared else None
        cache = ctx.result_cache if self.cache_eligible else None
        if shared is not None or cache is not None:
            stamp = version_stamp(ctx.database, self.table_deps)
        if shared is not None:
            hit = shared.get((self, stamp))
            if hit is not None:
                ctx.shared_side_reuses += 1
                memo[self.logical_id] = hit
                return hit
        if cache is not None:
            cached = cache.lookup(self.cache_key, stamp)
            if cached is not None:
                ctx._bump("cache_hits")
                out = ColumnBatch.from_rows(cached, self.width)
                memo[self.logical_id] = out
                return out
        out = self._compute(ctx, memo)
        ctx.columnar_batches += 1
        if cache is not None:
            cache.store(self.cache_key, stamp, out.to_rows())
        if shared is not None:
            shared[(self, stamp)] = out
            ctx.shared_side_evaluations += 1
        memo[self.logical_id] = out
        if ctx.collect_stats:
            ctx._bump(self.rows_counter, len(out))
        return out

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        raise NotImplementedError  # pragma: no cover - abstract

    def _empty(self) -> ColumnBatch:
        return ColumnBatch([[] for _ in range(self.width)], 0)


class CTableScan(ColumnarOp):
    """Transpose a base-table (or transition-variant) scan into columns."""

    __slots__ = ("schema", "projection")

    def __init__(self, logical: TableOp, schema) -> None:
        super().__init__(logical, SlotLayout(
            [logical.qualified(c) for c in logical.columns]
        ))
        self.schema = schema
        self.projection = tuple(schema.column_index(c) for c in logical.columns)
        self.table_deps = (logical.table,)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        ctx._bump("table_scans")
        raw = _table_rows(self.logical, ctx)
        length = len(raw)
        if not length:
            return self._empty()
        # One transpose of the storage tuples; the projection both reorders
        # and drops schema columns the scan does not expose.
        transposed = list(zip(*raw))
        return ColumnBatch([transposed[i] for i in self.projection], length)


class CConstants(ColumnarOp):
    """Columnar scan of an in-memory constants table bound via the context."""

    __slots__ = ()

    def __init__(self, logical: ConstantsOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        logical = self.logical
        rows = ctx.constants_tables.get(logical.name)
        if rows is None:
            raise EvaluationError(
                f"constants table {logical.name!r} not bound in the evaluation context"
            )
        columns = self.layout.columns
        output: list[list] = [[] for _ in columns]
        for row in rows:
            missing = [c for c in columns if c not in row]
            if missing:
                raise EvaluationError(
                    f"constants table {logical.name!r} row is missing columns {missing!r}"
                )
            for slot, column in enumerate(columns):
                output[slot].append(row[column])
        return ColumnBatch(output, len(rows))


class CSelect(ColumnarOp):
    """Narrow a batch by a vectorized predicate mask — columns are shared."""

    __slots__ = ("input", "mask")

    def __init__(self, logical: SelectOp, input_op: ColumnarOp) -> None:
        super().__init__(logical, input_op.layout)
        self.input = input_op
        self.mask = compile_predicate_columns(logical.predicate, input_op.layout.index)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        batch = self.input.batch(ctx, memo).materialize()
        flags = self.mask(batch.columns, batch.length, ctx.parameters)
        sel = [i for i, keep in enumerate(flags) if keep]
        if len(sel) == batch.length:
            return batch
        return ColumnBatch(batch.columns, batch.length, sel)


class CProject(ColumnarOp):
    """Column permutation when possible, vectorized expressions otherwise."""

    __slots__ = ("input", "permutation", "expressions")

    def __init__(self, logical: ProjectOp, input_op: ColumnarOp) -> None:
        super().__init__(logical, SlotLayout([name for name, _ in logical.projections]))
        self.input = input_op
        index = input_op.layout.index
        self.permutation: tuple[int, ...] | None = None
        if all(
            isinstance(expression, ColumnRef) and expression.name in index
            for _, expression in logical.projections
        ):
            self.permutation = tuple(
                index[expression.name] for _, expression in logical.projections
            )
            self.expressions: tuple = ()
        else:
            self.expressions = tuple(
                compile_expr_columns(expression, index)
                for _, expression in logical.projections
            )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        batch = self.input.batch(ctx, memo).materialize()
        permutation = self.permutation
        if permutation is not None:
            # Pure rename/reorder: share the column objects, copy nothing.
            return ColumnBatch([batch.columns[i] for i in permutation], batch.length)
        columns, length = batch.columns, batch.length
        parameters = ctx.parameters
        return ColumnBatch(
            [fn(columns, length, parameters) for fn in self.expressions], length
        )


def _merge_columns_left_wins(
    spec: _MergeSpec,
    acc_columns: Sequence[Sequence[Any]],
    left_indexes: Sequence[int],
    right_columns: Sequence[Sequence[Any]],
    right_indexes: Sequence[int],
) -> list[list]:
    """Columnar ``merge_left_wins``: gather-left ++ gather-appended-right."""
    out = [_gather(column, left_indexes) for column in acc_columns]
    out.extend(_gather(right_columns[s], right_indexes) for s in spec.append)
    return out


class CInnerJoin(ColumnarOp):
    """N-ary inner join: bulk hash build/probe over key columns.

    The driver replays the compiled engine's adaptive ordering decisions
    (input sort by :func:`~repro.xqgm.evaluate._input_cost_estimate`,
    connected-input preference, build-side pick, index-probe profitability)
    over the same logical ids, but materializes each merge column-at-a-time
    from gathered row-index pairs instead of allocating one tuple per output
    row inside the probe loop.
    """

    __slots__ = ("children", "has_condition", "_conditions", "_merge_specs",
                 "_permutations")

    def __init__(self, logical: JoinOp, children: Sequence[ColumnarOp]) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.children = tuple(children)
        self.has_condition = logical.condition is not None
        self._conditions: dict[tuple, Any] = {}
        self._merge_specs: dict[tuple, _MergeSpec] = {}
        self._permutations: dict[tuple, tuple[int, ...] | None] = {}

    def _merge_spec(self, acc_layout: SlotLayout, right_columns: tuple[str, ...]) -> _MergeSpec:
        key = (acc_layout.columns, right_columns)
        spec = self._merge_specs.get(key)
        if spec is None:
            spec = _MergeSpec(acc_layout, right_columns)
            self._merge_specs[key] = spec
        return spec

    def _permutation(self, acc_layout: SlotLayout) -> tuple[int, ...] | None:
        key = acc_layout.columns
        if key not in self._permutations:
            if key == self.layout.columns:
                self._permutations[key] = None
            else:
                self._permutations[key] = tuple(
                    acc_layout.index[column] for column in self.layout.columns
                )
        return self._permutations[key]

    def _input_estimate(self, position: int, ctx: EvaluationContext, memo: dict[int, Any]):
        """Input cost estimate, mirroring the row engines' memo state.

        The memo is asked by the compiled child's ``logical_id`` (structural
        twins share one node, see :class:`~repro.xqgm.physical.PInnerJoin`).
        A scan the columnar engine answered with a sorted probe was *hash
        materialized* by the row engines at the same point (they have no
        probe for memoized scans), so their estimate sees it as free.  The
        sentinel left by :meth:`_try_sorted_probe` carries the scan length;
        echoing ``(0, length)`` here keeps the adaptive join driver choosing
        the same input order as the row engines.
        """
        child_id = self.children[position].logical_id
        known = memo.get(child_id)
        if known is not None:
            return (0, len(known))
        length = memo.get((_HASHED_SCAN, child_id))
        if length is not None:
            return (0, length)
        rank, size = _cost_template(self.logical.inputs[position])
        return (rank, size(ctx.database))

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        logical: JoinOp = self.logical  # type: ignore[assignment]
        children = self.children
        indexed = list(range(len(children)))
        indexed.sort(
            key=lambda i: (self._input_estimate(i, ctx, memo), i)
        )

        acc_columns: Sequence[Sequence[Any]] | None = None
        acc_length = 0
        acc_layout: SlotLayout | None = None
        consumed_pairs: set[tuple[str, str]] = set()
        remaining = list(indexed)

        while remaining:
            if acc_columns is None:
                first = children[remaining.pop(0)]
                batch = first.batch(ctx, memo).materialize()
                acc_columns, acc_length, acc_layout = batch.columns, batch.length, first.layout
                continue
            acc_names = set(acc_layout.columns)
            chosen_index = None
            for candidate_index, child_position in enumerate(remaining):
                candidate = children[child_position]
                if _pairs_for(
                    acc_names, set(candidate.layout.columns), logical.equi_pairs
                ):
                    chosen_index = candidate_index
                    break
            if chosen_index is None:
                chosen_index = 0
            child = children[remaining.pop(chosen_index)]
            pairs = _pairs_for(acc_names, set(child.layout.columns), logical.equi_pairs)
            pairs = [pair for pair in pairs if pair not in consumed_pairs]
            if pairs:
                acc_columns, acc_length, acc_layout = self._join_with(
                    acc_columns, acc_length, acc_layout, child, pairs, ctx, memo
                )
                consumed_pairs.update(pairs)
                consumed_pairs.update((b, a) for a, b in pairs)
            else:
                # Cross product ({**left, **right}: the right side wins dups).
                right = child.batch(ctx, memo).materialize()
                spec = self._merge_spec(acc_layout, child.layout.columns)
                right_length = right.length
                left_indexes = [
                    i for i in range(acc_length) for _ in range(right_length)
                ]
                right_indexes = list(range(right_length)) * acc_length
                out = [_gather(column, left_indexes) for column in acc_columns]
                for acc_slot, right_slot in spec.overwrite:
                    out[acc_slot] = _gather(right.columns[right_slot], right_indexes)
                out.extend(
                    _gather(right.columns[s], right_indexes) for s in spec.append
                )
                acc_columns = out
                acc_length = len(left_indexes)
                acc_layout = spec.layout

        if acc_columns is None:
            return self._empty()
        if self.has_condition:
            mask = self._conditions.get(acc_layout.columns)
            if mask is None:
                mask = compile_predicate_columns(logical.condition, acc_layout.index)
                self._conditions[acc_layout.columns] = mask
            flags = mask(acc_columns, acc_length, ctx.parameters)
            sel = [i for i, keep in enumerate(flags) if keep]
            if len(sel) != acc_length:
                acc_columns = [_gather(column, sel) for column in acc_columns]
                acc_length = len(sel)
        permutation = self._permutation(acc_layout)
        if permutation is not None:
            acc_columns = [acc_columns[i] for i in permutation]
        return ColumnBatch(list(acc_columns), acc_length)

    def _join_with(
        self,
        acc_columns: Sequence[Sequence[Any]],
        acc_length: int,
        acc_layout: SlotLayout,
        child: ColumnarOp,
        pairs: list[tuple[str, str]],
        ctx: EvaluationContext,
        memo: dict[int, Any],
    ) -> tuple[list[list], int, SlotLayout]:
        left_columns = [a for a, _ in pairs]
        right_columns = [b for _, b in pairs]

        probed = self._try_index_probe(
            acc_columns, acc_length, acc_layout, left_columns, child, right_columns,
            ctx, memo,
        )
        if probed is not None:
            return probed

        probed = self._try_sorted_probe(
            acc_columns, acc_length, acc_layout, left_columns, child, right_columns,
            ctx, memo,
        )
        if probed is not None:
            return probed

        right = child.batch(ctx, memo).materialize()
        ctx._bump("hash_joins")
        left_key = acc_layout.slots(left_columns)
        right_key = child.layout.slots(right_columns)
        spec = self._merge_spec(acc_layout, child.layout.columns)
        left_keys = _key_rows(acc_columns, left_key, acc_length)
        right_keys = _key_rows(right.columns, right_key, right.length)
        left_indexes: list[int] = []
        right_indexes: list[int] = []
        table: dict[tuple, list[int]] = {}
        # Same build-side choice as the row engines (build the smaller side,
        # iterate the larger in input order), so output order is identical.
        if right.length <= acc_length:
            for j, key in enumerate(right_keys):
                table.setdefault(key, []).append(j)
            for i, key in enumerate(left_keys):
                for j in table.get(key, ()):
                    left_indexes.append(i)
                    right_indexes.append(j)
        else:
            for i, key in enumerate(left_keys):
                table.setdefault(key, []).append(i)
            for j, key in enumerate(right_keys):
                for i in table.get(key, ()):
                    left_indexes.append(i)
                    right_indexes.append(j)
        out = _merge_columns_left_wins(
            spec, acc_columns, left_indexes, right.columns, right_indexes
        )
        return out, len(left_indexes), spec.layout

    def _try_index_probe(
        self,
        acc_columns: Sequence[Sequence[Any]],
        acc_length: int,
        acc_layout: SlotLayout,
        left_columns: list[str],
        child: ColumnarOp,
        right_columns: list[str],
        ctx: EvaluationContext,
        memo: dict[int, Any],
    ) -> tuple[list[list], int, SlotLayout] | None:
        """Bulk index nested-loop probe (same profitability test as the oracle)."""
        if not isinstance(child, CTableScan):
            return None
        right_op: TableOp = child.logical  # type: ignore[assignment]
        if right_op.variant not in (TableVariant.CURRENT, TableVariant.OLD):
            return None
        transition = ctx.trigger_context
        old_of_updated_table = (
            right_op.variant is TableVariant.OLD
            and transition is not None
            and transition.table == right_op.table
        )
        if child.logical_id in memo or (_HASHED_SCAN, child.logical_id) in memo:
            return None  # the row engines hash here; _try_sorted_probe mirrors them
        table = ctx.database.table(right_op.table)
        schema = table.schema
        prefix = f"{right_op.alias}."
        base_columns = []
        for column in right_columns:
            if not column.startswith(prefix):
                return None
            base_columns.append(column[len(prefix):])
        primary = tuple(base_columns) == tuple(schema.primary_key)
        if not (primary or table.has_index_on(base_columns)):
            return None
        if acc_length > max(16, _PROBE_RATIO * len(table)):
            return None
        ctx._bump("index_probes", acc_length)

        inserted_keys: set[tuple] = set()
        deleted_by_probe: dict[tuple, list[tuple]] = {}
        if old_of_updated_table and transition is not None:
            inserted_keys = {schema.key_of(row) for row in transition.net_inserted}
            probe_indexes = [schema.column_index(column) for column in base_columns]
            for row in transition.net_deleted:
                deleted_by_probe.setdefault(
                    tuple(row[i] for i in probe_indexes), []
                ).append(row)

        # Matches are raw storage tuples, so the merge reads them through
        # schema indexes ({**left, ...right columns...}: right wins dups).
        spec = self._merge_spec(acc_layout, child.layout.columns)
        column_order = [schema.column_index(name) for name in right_op.columns]
        append_sources = tuple(column_order[i] for i in spec.append)
        overwrite_sources = tuple(
            (acc_slot, column_order[right_slot]) for acc_slot, right_slot in spec.overwrite
        )
        left_key = acc_layout.slots(left_columns)

        left_indexes: list[int] = []
        matched_rows: list[tuple] = []
        for i, probe_value in enumerate(_key_rows(acc_columns, left_key, acc_length)):
            if primary:
                match = table.get(probe_value)
                matches = [match] if match is not None else []
            else:
                matches = table.lookup(base_columns, probe_value)
            if old_of_updated_table:
                matches = [row for row in matches if schema.key_of(row) not in inserted_keys]
                matches = matches + deleted_by_probe.get(probe_value, [])
            for row in matches:
                left_indexes.append(i)
                matched_rows.append(row)

        out = [_gather(column, left_indexes) for column in acc_columns]
        for acc_slot, source in overwrite_sources:
            out[acc_slot] = [row[source] for row in matched_rows]
        out.extend([row[source] for row in matched_rows] for source in append_sources)
        return out, len(left_indexes), spec.layout

    def _try_sorted_probe(
        self,
        acc_columns: Sequence[Sequence[Any]],
        acc_length: int,
        acc_layout: SlotLayout,
        left_columns: list[str],
        child: ColumnarOp,
        right_columns: list[str],
        ctx: EvaluationContext,
        memo: dict[int, Any],
    ) -> tuple[list[list], int, SlotLayout] | None:
        """Bulk index probe that reproduces hash-join output order.

        The row engines refuse to index-probe a scan that is already
        materialized in the memo and hash-join instead, iterating the larger
        (scan) side in storage order — O(table) per firing even when the
        accumulator is a handful of delta rows.  That re-iteration is the
        single hottest per-statement cost on the trigger-scaling stress.

        The columnar engine probes the table's incrementally-maintained hash
        indexes instead (O(matched rows)), then sorts the matches by their
        position in scan order — :meth:`Table.scan_positions` — which makes
        the output row order *identical* to the hash join the row engines
        ran: iterating the scan side emits matches right-major, ties in left
        (accumulator) order.  Order equivalence matters because downstream
        GroupBy operators fold XML fragments in input order.

        The probe leaves a ``(_HASHED_SCAN, id, length)`` sentinel in the
        memo so later join-order estimates and probe decisions keep
        mirroring the row engines, whose memo *does* hold the scan after
        their hash join materialized it.
        """
        if not isinstance(child, CTableScan):
            return None
        right_op: TableOp = child.logical  # type: ignore[assignment]
        if right_op.variant not in (TableVariant.CURRENT, TableVariant.OLD):
            return None
        if child.logical_id not in memo and (_HASHED_SCAN, child.logical_id) not in memo:
            return None  # an unmaterialized scan is _try_index_probe's case
        transition = ctx.trigger_context
        old_of_updated_table = (
            right_op.variant is TableVariant.OLD
            and transition is not None
            and transition.table == right_op.table
        )
        table = ctx.database.table(right_op.table)
        schema = table.schema
        if old_of_updated_table and not schema.primary_key:
            return None  # OLD reconstruction removes inserted rows by key
        prefix = f"{right_op.alias}."
        base_columns = []
        for column in right_columns:
            if not column.startswith(prefix):
                return None
            base_columns.append(column[len(prefix):])
        primary = tuple(base_columns) == tuple(schema.primary_key)
        if not (primary or table.has_index_on(base_columns)):
            return None

        inserted_keys: set[tuple] = set()
        deleted_with_pos: dict[tuple, list[tuple[int, tuple]]] = {}
        right_len = len(table)
        if old_of_updated_table and transition is not None:
            inserted_keys = {schema.key_of(row) for row in transition.net_inserted}
            probe_indexes = [schema.column_index(column) for column in base_columns]
            # Deleted rows follow every current row in OLD scan order, in
            # net-delta order (TriggerContext.old_table_rows), so their sort
            # positions start past the current table's.
            for ordinal, row in enumerate(transition.net_deleted):
                deleted_with_pos.setdefault(
                    tuple(row[i] for i in probe_indexes), []
                ).append((len(table) + ordinal, row))
            right_len = (
                len(table)
                - sum(1 for key in inserted_keys if table.contains_key(key))
                + len(transition.net_deleted)
            )
        # This path replaces only the hash branch that iterates the scan side
        # (right strictly larger); with the accumulator at least as large the
        # row engines iterate it instead, which stays cheap — let them.
        if right_len <= acc_length:
            return None
        if acc_length > max(16, _PROBE_RATIO * right_len):
            return None
        ctx._bump("index_probes", acc_length)

        positions = table.scan_positions()
        spec = self._merge_spec(acc_layout, child.layout.columns)
        column_order = [schema.column_index(name) for name in right_op.columns]
        append_sources = tuple(column_order[i] for i in spec.append)
        overwrite_sources = tuple(
            (acc_slot, column_order[right_slot]) for acc_slot, right_slot in spec.overwrite
        )
        left_key = acc_layout.slots(left_columns)

        hits: list[tuple[int, int, tuple]] = []  # (scan position, left index, row)
        for i, probe_value in enumerate(_key_rows(acc_columns, left_key, acc_length)):
            if primary:
                row = table.get(probe_value)
                if row is not None and probe_value not in inserted_keys:
                    hits.append((positions[probe_value], i, row))
            else:
                for storage_key, row in table.indexed_rows(base_columns, probe_value):
                    if old_of_updated_table and schema.key_of(row) in inserted_keys:
                        continue
                    hits.append((positions[storage_key], i, row))
            for pos, row in deleted_with_pos.get(probe_value, ()):
                hits.append((pos, i, row))
        hits.sort(key=lambda hit: (hit[0], hit[1]))
        memo[(_HASHED_SCAN, child.logical_id)] = right_len

        left_indexes = [hit[1] for hit in hits]
        matched_rows = [hit[2] for hit in hits]
        out = [_gather(column, left_indexes) for column in acc_columns]
        for acc_slot, source in overwrite_sources:
            out[acc_slot] = [row[source] for row in matched_rows]
        out.extend([row[source] for row in matched_rows] for source in append_sources)
        return out, len(hits), spec.layout


class CTwoWayJoin(ColumnarOp):
    """Left-outer and anti joins over column batches.

    Candidate matches are filtered by the row-compiled join condition (these
    joins apply it per *candidate pair*, which has no batch shape), then the
    kept index pairs materialize column-wise; the trailing post-condition —
    the interpreter applies join conditions twice for these kinds — runs
    vectorized over the assembled output batch.
    """

    __slots__ = ("left", "right", "join_kind", "left_key", "right_key",
                 "merge_spec", "condition", "post_mask")

    def __init__(self, logical: JoinOp, left: ColumnarOp, right: ColumnarOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.left = left
        self.right = right
        self.join_kind = logical.join_kind
        pairs = _pairs_for(
            set(left.layout.columns), set(right.layout.columns), logical.equi_pairs
        )
        self.left_key = left.layout.slots([a for a, _ in pairs])
        self.right_key = right.layout.slots([b for _, b in pairs])
        # {**left, **match}: the right side wins duplicated columns.
        self.merge_spec = _MergeSpec(left.layout, right.layout.columns)
        self.condition = (
            compile_predicate(logical.condition, self.merge_spec.layout.index)
            if logical.condition is not None
            else None
        )
        self.post_mask = (
            compile_predicate_columns(logical.condition, self.layout.index)
            if logical.condition is not None
            else None
        )

    def _matches(
        self,
        table: dict[tuple, list[int]],
        key: tuple,
        left_row: tuple | None,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
        parameters,
    ) -> list[int]:
        matches = table.get(key, [])
        condition = self.condition
        if condition is not None and matches:
            merge = self.merge_spec.merge_right_wins
            right_columns = right_batch.columns
            matches = [
                j
                for j in matches
                if condition(
                    merge(left_row, tuple(column[j] for column in right_columns)),
                    parameters,
                )
            ]
        return matches

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        left = self.left.batch(ctx, memo).materialize()
        right = self.right.batch(ctx, memo).materialize()
        ctx._bump("hash_joins")
        table: dict[tuple, list[int]] = {}
        for j, key in enumerate(_key_rows(right.columns, self.right_key, right.length)):
            table.setdefault(key, []).append(j)

        left_keys = _key_rows(left.columns, self.left_key, left.length)
        parameters = ctx.parameters
        needs_left_row = self.condition is not None
        left_columns = left.columns

        if self.join_kind is JoinKind.ANTI:
            sel: list[int] = []
            for i, key in enumerate(left_keys):
                left_row = (
                    tuple(column[i] for column in left_columns) if needs_left_row else None
                )
                if not self._matches(table, key, left_row, left, right, parameters):
                    sel.append(i)
            if len(sel) == left.length:
                output = left
            else:
                output = ColumnBatch(left.columns, left.length, sel).materialize()
        elif self.join_kind is JoinKind.LEFT_OUTER:
            left_indexes: list[int] = []
            right_indexes: list[int] = []  # -1 marks the null-extended row
            for i, key in enumerate(left_keys):
                left_row = (
                    tuple(column[i] for column in left_columns) if needs_left_row else None
                )
                matches = self._matches(table, key, left_row, left, right, parameters)
                if matches:
                    for j in matches:
                        left_indexes.append(i)
                        right_indexes.append(j)
                else:
                    left_indexes.append(i)
                    right_indexes.append(-1)
            spec = self.merge_spec
            out = [_gather(column, left_indexes) for column in left.columns]
            for acc_slot, right_slot in spec.overwrite:
                column = right.columns[right_slot]
                out[acc_slot] = [column[j] if j >= 0 else None for j in right_indexes]
            for right_slot in spec.append:
                column = right.columns[right_slot]
                out.append([column[j] if j >= 0 else None for j in right_indexes])
            output = ColumnBatch(out, len(left_indexes))
        else:
            raise EvaluationError(
                f"unsupported join kind {self.join_kind!r}"
            )  # pragma: no cover
        post_mask = self.post_mask
        if post_mask is not None:
            flags = post_mask(output.columns, output.length, parameters)
            sel = [i for i, keep in enumerate(flags) if keep]
            if len(sel) != output.length:
                output = ColumnBatch(output.columns, output.length, sel).materialize()
        return output


class CGroupBy(ColumnarOp):
    """Group row indexes per key and run vectorized aggregates per run."""

    __slots__ = ("input", "grouping_slots", "order_slots", "aggregates")

    def __init__(self, logical: GroupByOp, input_op: ColumnarOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.input = input_op
        self.grouping_slots = input_op.layout.slots(logical.grouping)
        self.order_slots = input_op.layout.slots(logical.order_within_group)
        self.aggregates = tuple(
            aggregate.compile_columns(input_op.layout.index)
            for aggregate in logical.aggregates
        )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        batch = self.input.batch(ctx, memo).materialize()
        columns, length = batch.columns, batch.length
        grouping_slots = self.grouping_slots
        groups: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        for i, key in enumerate(_key_rows(columns, grouping_slots, length)):
            run = groups.get(key)
            if run is None:
                groups[key] = run = []
                order.append(key)
            run.append(i)

        if not grouping_slots and not groups:
            groups[()] = []
            order.append(())

        order_slots = self.order_slots
        aggregates = self.aggregates
        parameters = ctx.parameters
        key_width = len(grouping_slots)
        output: list[list] = [[] for _ in range(self.width)]
        for key in order:
            run = groups[key]
            if order_slots:
                # Sort-clustered runs: indexes ordered per order_within_group
                # (stable, so ties keep input order like the row engines).
                run = sorted(
                    run,
                    key=lambda i: tuple(sort_key(columns[s][i]) for s in order_slots),
                )
            for slot in range(key_width):
                output[slot].append(key[slot])
            for offset, aggregate in enumerate(aggregates):
                output[key_width + offset].append(aggregate(columns, run, parameters))
        return ColumnBatch(output, len(order))


class CUnion(ColumnarOp):
    """Union with per-input column permutations and optional deduplication."""

    __slots__ = ("children", "projections", "all")

    def __init__(self, logical: UnionOp, children: Sequence[ColumnarOp]) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.children = tuple(children)
        self.all = logical.all
        projections = []
        for child, mapping in zip(children, logical.mappings):
            projections.append(
                child.layout.slots(
                    [mapping[column] for column in logical.output_columns]
                )
            )
        self.projections = tuple(projections)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        output: list[list] = [[] for _ in range(self.width)]
        length = 0
        seen: set[tuple] = set()
        keep_all = self.all
        for child, projection in zip(self.children, self.projections):
            batch = child.batch(ctx, memo).materialize()
            projected = [batch.columns[i] for i in projection]
            if keep_all:
                for slot, column in enumerate(projected):
                    output[slot].extend(column)
                length += batch.length
                continue
            rows = zip(*projected) if projected else iter([()] * batch.length)
            for row in rows:
                fingerprint = tuple(_hashable(value) for value in row)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                for slot, value in enumerate(row):
                    output[slot].append(value)
                length += 1
        return ColumnBatch(output, length)


class CUnnest(ColumnarOp):
    """Explode an XML fragment column into one output row per item."""

    __slots__ = ("input", "source_slot", "item_slot", "ordinal_slot")

    def __init__(self, logical: UnnestOp, input_op: ColumnarOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.input = input_op
        self.source_slot = input_op.layout.index.get(logical.source_column)
        self.item_slot = self.layout.index[logical.item_column]
        self.ordinal_slot = (
            self.layout.index[logical.ordinal_column] if logical.ordinal_column else None
        )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, Any]) -> ColumnBatch:
        from repro.xmlmodel.node import Fragment

        source_slot = self.source_slot
        if source_slot is None:
            return self._empty()  # row.get(missing source) is None for every row
        batch = self.input.batch(ctx, memo).materialize()
        item_slot = self.item_slot
        ordinal_slot = self.ordinal_slot
        width = self.width
        input_width = len(batch.columns)
        source = batch.columns[source_slot]
        # First pass: explode the source column into (input row, item) pairs;
        # second pass: gather every passthrough column once.
        input_indexes: list[int] = []
        items: list[Any] = []
        ordinals: list[int] = []
        for i in range(batch.length):
            value = source[i]
            if value is None:
                continue
            if isinstance(value, Fragment):
                exploded = list(value.items)
            elif isinstance(value, (list, tuple)):
                exploded = list(value)
            else:
                exploded = [value]
            for ordinal, item in enumerate(exploded):
                input_indexes.append(i)
                items.append(item)
                ordinals.append(ordinal)
        length = len(input_indexes)
        output: list[list] = []
        for slot in range(width):
            if slot == item_slot:
                output.append(items)
            elif ordinal_slot is not None and slot == ordinal_slot:
                output.append(ordinals)
            elif slot < input_width:
                output.append(_gather(batch.columns[slot], input_indexes))
            else:
                output.append([None] * length)
        return ColumnBatch(output, length)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class ColumnarPlan:
    """A compiled, immutable columnar plan for one logical graph.

    Like :class:`~repro.xqgm.physical.PhysicalPlan`, plans bind only schema
    information and receive the database through the evaluation context, so
    one plan is safe to share across threads and shard services.
    """

    def __init__(self, root: ColumnarOp) -> None:
        self.root = root
        self.layout = root.layout
        #: Same meaning as on :class:`~repro.xqgm.physical.PhysicalPlan`.
        self.shareable = root.stability != VOLATILE
        self.table_deps = root.table_deps

    def execute(self, context: EvaluationContext) -> ColumnBatch:
        """Evaluate the plan; returns the root's :class:`ColumnBatch`."""
        memo: dict[int, Any] = {}
        return self.root.batch(context, memo)

    def execute_rows(self, context: EvaluationContext) -> list[tuple]:
        """Evaluate and convert to the physical engine's slot-row form."""
        return self.execute(context).to_rows()

    def execute_mappings(self, context: EvaluationContext) -> list[dict[str, Any]]:
        """Evaluate and convert to the interpreter's dict-row representation."""
        columns = self.layout.columns
        return [dict(zip(columns, row)) for row in self.execute_rows(context)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarPlan(root={self.root.kind}, columns={list(self.layout.columns)})"


class ColumnarCompiler(PlanCompiler):
    """:class:`~repro.xqgm.physical.PlanCompiler` producing columnar nodes.

    Stability derivation, cache eligibility, table dependencies and
    statement sharing are inherited unchanged; only the node classes differ.
    """

    def plan(self, top: Operator) -> ColumnarPlan:
        """The columnar plan for the graph rooted at ``top``."""
        return ColumnarPlan(self.compile(top))

    def _build(self, op: Operator, children: list[ColumnarOp]) -> ColumnarOp:
        if isinstance(op, TableOp):
            return CTableScan(op, self.schemas[op.table])
        if isinstance(op, ConstantsOp):
            return CConstants(op)
        if isinstance(op, SelectOp):
            return CSelect(op, *children)
        if isinstance(op, ProjectOp):
            return CProject(op, *children)
        if isinstance(op, JoinOp):
            if op.join_kind is JoinKind.INNER:
                return CInnerJoin(op, children)
            return CTwoWayJoin(op, *children)
        if isinstance(op, GroupByOp):
            return CGroupBy(op, *children)
        if isinstance(op, UnionOp):
            return CUnion(op, children)
        if isinstance(op, UnnestOp):
            return CUnnest(op, *children)
        raise EvaluationError(f"cannot compile operator {op.kind} to columnar form")


def compile_columnar_plan(top: Operator, catalog) -> ColumnarPlan:
    """Lower the logical graph rooted at ``top`` into a standalone columnar plan.

    ``catalog`` is the :class:`~repro.relational.database.Database` whose
    schemas bind unbound table scans; only schema information is captured, so
    one compiled plan may execute against any database with the same catalog.
    Raises :class:`~repro.errors.EvaluationError` for operators without a
    columnar lowering — callers (the pushdown translator) record the error
    and fall back to the row engines, counting the fallback in
    ``evaluation_report`` so it is never silent.
    """
    return ColumnarCompiler(catalog).plan(top)
