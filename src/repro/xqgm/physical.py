"""Compiled physical plans: slot rows, closure expressions, statement sharing.

The interpreted evaluator (:mod:`repro.xqgm.evaluate`) materializes every
operator's output as ``dict[str, Any]`` rows, merges dictionaries row by row
in joins, and re-walks expression trees per tuple.  That is the right shape
for an executable specification — it stays the oracle — but it pays a large
constant factor on the trigger-firing hot path.

This module lowers a logical XQGM graph **once** into a physical plan:

* rows are plain tuples with an integer *slot* per column
  (:class:`SlotLayout`); a base-table scan whose column list matches the
  schema hands out the stored row tuples without copying;
* every embedded expression/predicate/aggregate is compiled once into a
  Python closure over slots (:func:`repro.xqgm.expressions.compile_expr`),
  so per-row evaluation is a few function calls instead of a tree walk;
* hash joins and index probes extract join keys through precomputed slot
  indexes, and tuple concatenation replaces dictionary merging;
* group-by groups and sorts through slot indexes;
* every reshaping of a row — a projection, a permutation, a key — is one
  :func:`operator.itemgetter` call fixed at lowering (:func:`slot_getter`),
  so slots move in C rather than through a generator.

Lowering is also where plan decisions are taken, as the relational optimizer
takes them for the paper's generated trigger (Section 5, Figure 16): common
subexpressions are removed — one physical node per distinct subplan
*signature*, so the structural twins translation leaves behind are evaluated
once (:class:`PlanCompiler`) — and everything about a join that follows from
its input order is a *recipe* fixed on first use of that order
(:class:`PInnerJoin`).  The interpreter keeps evaluating the graph as
translated.

Semantics match the interpreter exactly.  With nothing statement-shared in
play the match is bit-identical **including output row order**: the physical
join driver runs the same adaptive input ordering (the estimates of
:func:`repro.xqgm.evaluate._input_cost_estimate`, asked of the execution
memo by compiled node), the same build-side selection, the same index-probe
profitability test, and the same duplicate-column resolution as the
interpreted merge operations.  When a statement-shared result serves a
subplan, nodes below it skip evaluation and are absent from the execution
memo, so a later join may order its inputs from static estimates instead of
exact memoized cardinalities — the output *multiset* is always identical,
but row order within one firing may then differ from a cold run.  The
property tests pin compiled == interpreted on randomized workloads (ordered
when nothing was reused, normalized otherwise).

**Statement-shared results.**  One statement fires every qualifying trigger
group and event translation with the same
:class:`~repro.relational.triggers.TriggerContext`, and the translations of
one monitored path are thin per-event combines over the *same* side
operators (Figure 12: INSERT, UPDATE and DELETE pairs derive from one
``NEW_NODE`` and one ``OLD_NODE`` sub-plan).  The translator hands those
sides to :meth:`PlanCompiler.share`; a shared node stores its rows in the
context's statement-scoped evaluation memo on first computation and every
later plan execution of that statement reads them back.  The memo dies with
the statement, so it needs no eviction and no warm-up; nothing a plan
computes outlives the statement.  This is the data-level realization of the
paper's shared trigger processing (Section 5).  Only a node that is not
*volatile* — one that reads no constants table and no parameter binding
(see :class:`PhysicalOp`) — is shared.

Plans are immutable after compilation and safe to share across threads and
across shard services (they reference base tables by name and receive the
database through the evaluation context).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.errors import EvaluationError
from repro.relational.types import sort_key
from repro.xqgm.evaluate import (
    EvaluationContext,
    _PROBE_RATIO,
    _cost_template,
    _hashable,
    _pairs_for,
    _table_rows,
)
from repro.xqgm.expressions import (
    ColumnRef,
    compile_expr,
    compile_predicate,
    expression_uses_parameters,
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
    _operator_counter,
)

__all__ = ["SlotLayout", "PhysicalPlan", "PlanCompiler", "compile_plan"]


class SlotLayout:
    """An ordered column list plus its name → slot-index mapping."""

    __slots__ = ("columns", "index")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self.index: dict[str, int] = {c: i for i, c in enumerate(self.columns)}

    def slots(self, columns: Sequence[str]) -> tuple[int, ...]:
        """Slot indexes of the given columns (raises ``KeyError`` if absent)."""
        return tuple(self.index[c] for c in columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlotLayout({list(self.columns)})"


def slot_getter(slots: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in slots)``, run in C.

    ``itemgetter`` returns a bare value for one index, so zero or one slot
    (and any ascending run of slots) reads a slice instead: rows are tuples,
    and a tuple's slice is a tuple.
    """
    slots = tuple(slots)
    if not slots:
        return itemgetter(slice(0, 0))
    if slots == tuple(range(slots[0], slots[0] + len(slots))):
        return itemgetter(slice(slots[0], slots[0] + len(slots)))
    return itemgetter(*slots)


# ---------------------------------------------------------------------------
# Physical operators
# ---------------------------------------------------------------------------


def version_stamp(database, tables: Sequence[str]) -> tuple:
    """The ``(table uid, version)`` of every named table, in order.

    What a result computed from those tables is fresh against: it stays
    valid exactly as long as the stamp compares equal (see
    :attr:`repro.relational.table.Table.version_stamp`).
    """
    return tuple(database.table(name).version_stamp for name in tables)


class PhysicalOp:
    """One compiled operator: produces slot rows for a logical node.

    ``volatile`` marks a subtree that reads a constants table or a
    parameter binding: its rows differ between executions under one
    statement, so it is never shared.  Every other subtree is a function of
    the base tables and the firing's transition tables alone — the same for
    every plan execution under one
    :class:`~repro.relational.triggers.TriggerContext`, so it may be shared
    by the trigger groups and sibling event translations one statement
    fires, never beyond.

    ``shared`` marks a non-volatile node the translator registered through
    :meth:`PlanCompiler.share`: its rows live in the statement's evaluation
    memo (``ctx.shared_results``) from their first computation on.
    ``table_deps`` names the base tables the subtree reads; their
    :func:`version_stamp`, assembled at lookup time, is the second half of a
    memo key — ``(node, stamp)`` — so a trigger action that changes one of
    those tables while its statement's other groups have yet to fire makes
    them recompute (the superseded rows stay in the memo until the statement
    ends).
    """

    __slots__ = ("logical", "logical_id", "kind", "rows_counter", "layout",
                 "table_deps", "volatile", "shared")

    def __init__(self, logical: Operator, layout: SlotLayout) -> None:
        self.logical = logical
        self.logical_id = logical.id
        self.kind = logical.kind.lower()
        self.rows_counter = "rows_" + self.kind
        self.layout = layout
        self.table_deps: tuple[str, ...] = ()
        self.volatile = True
        self.shared = False

    def rows(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        """Slot rows for this node (memoized per execution, shared per statement)."""
        hit = memo.get(self.logical_id)
        if hit is not None:
            return hit
        shared = ctx.shared_results if self.shared else None
        if shared is not None:
            key = (self, version_stamp(ctx.database, self.table_deps))
            hit = shared.get(key)
            if hit is not None:
                ctx.shared_side_reuses += 1
                memo[self.logical_id] = hit
                return hit
        out = self._compute(ctx, memo)
        if shared is not None:
            shared[key] = out
            ctx.shared_side_evaluations += 1
        memo[self.logical_id] = out
        if ctx.collect_stats:
            ctx._bump(self.rows_counter, len(out))
        return out

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        raise NotImplementedError  # pragma: no cover - abstract


class PTableScan(PhysicalOp):
    """Scan of a base table or one of its trigger-time variants.

    Output tuples use the operator's column order; when that order matches
    the schema, the stored row tuples are handed out without copying.
    """

    __slots__ = ("schema", "passthrough", "projection", "project")

    def __init__(self, logical: TableOp, schema) -> None:
        super().__init__(logical, SlotLayout(
            [logical.qualified(c) for c in logical.columns]
        ))
        self.schema = schema
        self.passthrough = tuple(logical.columns) == tuple(schema.column_names)
        self.projection = tuple(schema.column_index(c) for c in logical.columns)
        self.project = slot_getter(self.projection)
        self.table_deps = (logical.table,)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        ctx._bump("table_scans")
        raw = _table_rows(self.logical, ctx)
        if self.passthrough:
            return raw if isinstance(raw, list) else list(raw)
        return list(map(self.project, raw))


class PConstants(PhysicalOp):
    """Scan of an in-memory constants table bound through the context."""

    __slots__ = ()

    def __init__(self, logical: ConstantsOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        logical = self.logical
        rows = ctx.constants_tables.get(logical.name)
        if rows is None:
            raise EvaluationError(
                f"constants table {logical.name!r} not bound in the evaluation context"
            )
        columns = self.layout.columns
        output: list[tuple] = []
        for row in rows:
            missing = [c for c in columns if c not in row]
            if missing:
                raise EvaluationError(
                    f"constants table {logical.name!r} row is missing columns {missing!r}"
                )
            output.append(tuple(row[c] for c in columns))
        return output


class PSelect(PhysicalOp):
    """Filter by a predicate compiled over the input's slots."""

    __slots__ = ("input", "predicate")

    def __init__(self, logical: SelectOp, input_op: PhysicalOp) -> None:
        super().__init__(logical, input_op.layout)
        self.input = input_op
        self.predicate = compile_predicate(logical.predicate, input_op.layout.index)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        predicate = self.predicate
        parameters = ctx.parameters
        return [row for row in self.input.rows(ctx, memo) if predicate(row, parameters)]


class PProject(PhysicalOp):
    """Compute output slots from input slots.

    Projections that only rename/reorder columns compile to a pure slot
    permutation; anything else runs its compiled expression closures.
    """

    __slots__ = ("input", "permutation", "expressions")

    def __init__(self, logical: ProjectOp, input_op: PhysicalOp) -> None:
        super().__init__(logical, SlotLayout([name for name, _ in logical.projections]))
        self.input = input_op
        index = input_op.layout.index
        self.permutation: Callable[[tuple], tuple] | None = None
        if all(
            isinstance(expression, ColumnRef) and expression.name in index
            for _, expression in logical.projections
        ):
            self.permutation = slot_getter(
                [index[expression.name] for _, expression in logical.projections]
            )
            self.expressions: tuple = ()
        else:
            self.expressions = tuple(
                compile_expr(expression, index) for _, expression in logical.projections
            )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        input_rows = self.input.rows(ctx, memo)
        if self.permutation is not None:
            return list(map(self.permutation, input_rows))
        expressions = self.expressions
        parameters = ctx.parameters
        return [
            tuple([fn(row, parameters) for fn in expressions]) for row in input_rows
        ]


class _MergeSpec:
    """How to combine an accumulated row with a row of a newly joined input.

    ``append`` lists the right-side slots whose columns are new; ``overwrite``
    pairs ``(accumulated slot, right slot)`` for duplicated columns.  The
    interpreted evaluator resolves duplicates differently per merge site
    (dict-merge order), so each site picks whether the right side wins.
    """

    __slots__ = ("layout", "append", "appended", "overwrite", "concat")

    def __init__(self, acc_layout: SlotLayout, right_columns: Sequence[str]) -> None:
        append: list[int] = []
        overwrite: list[tuple[int, int]] = []
        merged = list(acc_layout.columns)
        for right_slot, column in enumerate(right_columns):
            acc_slot = acc_layout.index.get(column)
            if acc_slot is None:
                append.append(right_slot)
                merged.append(column)
            else:
                overwrite.append((acc_slot, right_slot))
        self.layout = SlotLayout(merged)
        self.append = tuple(append)
        self.appended = slot_getter(append)
        self.overwrite = tuple(overwrite)
        # Fast path: disjoint columns appended in order — plain concatenation.
        self.concat = not overwrite and self.append == tuple(range(len(right_columns)))

    def merge_left_wins(self, left: tuple, right: tuple) -> tuple:
        if self.concat:
            return left + right
        return left + self.appended(right)

    def merge_right_wins(self, left: tuple, right: tuple) -> tuple:
        if self.concat:
            return left + right
        if not self.overwrite:
            return left + self.appended(right)
        out = list(left)
        for acc_slot, right_slot in self.overwrite:
            out[acc_slot] = right[right_slot]
        out.extend(self.appended(right))
        return tuple(out)


class _JoinStep:
    """One input joined onto the accumulated rows, as fixed by an input order.

    ``spec`` merges a row of ``child`` into the accumulated layout;
    ``left_key`` holds the accumulated slots of the oriented equi pairs
    (``None``: no usable pair, a cross product) and ``left_key_of`` /
    ``right_key_of`` extract either side's hash key.  ``base_columns`` is set
    when ``child`` scans a CURRENT or OLD base table and the pairs name only
    its columns — the static half of the index-probe test — together with
    ``primary`` (they are its primary key), ``probe_key_of`` (the probe
    value, a tuple, of an accumulated row), ``stored_key_of`` (the same
    columns of a stored row), and the merge's ``append_of`` /
    ``overwrite_sources`` over *schema* indexes: a probe reads raw storage
    tuples, not the scan's (possibly projected) slots.
    """

    __slots__ = ("child", "spec", "left_key", "left_key_of", "right_key_of",
                 "base_columns", "primary", "probe_key_of", "stored_key_of",
                 "append_of", "overwrite_sources")

    def __init__(
        self, acc_layout: SlotLayout, child: PhysicalOp, pairs: list[tuple[str, str]]
    ) -> None:
        self.child = child
        self.spec = spec = _MergeSpec(acc_layout, child.layout.columns)
        self.left_key = self.base_columns = None
        if not pairs:
            return
        right_columns = [b for _, b in pairs]
        self.left_key = acc_layout.slots([a for a, _ in pairs])
        self.left_key_of = itemgetter(*self.left_key)
        self.right_key_of = itemgetter(*child.layout.slots(right_columns))
        if not isinstance(child, PTableScan):
            return
        scan: TableOp = child.logical  # type: ignore[assignment]
        prefix = f"{scan.alias}."
        if scan.variant not in (TableVariant.CURRENT, TableVariant.OLD) or not all(
            column.startswith(prefix) for column in right_columns
        ):
            return
        schema = child.schema
        self.base_columns = tuple(column[len(prefix):] for column in right_columns)
        self.primary = self.base_columns == tuple(schema.primary_key)
        self.probe_key_of = slot_getter(self.left_key)
        self.stored_key_of = slot_getter([schema.column_index(c) for c in self.base_columns])
        self.append_of = slot_getter([child.projection[i] for i in spec.append])
        self.overwrite_sources = tuple(
            (acc_slot, child.projection[right_slot]) for acc_slot, right_slot in spec.overwrite
        )


class PInnerJoin(PhysicalOp):
    """N-ary inner join mirroring the interpreter's adaptive join driver.

    The input order is decided per execution from the interpreter's
    estimates (:func:`repro.xqgm.evaluate._input_cost_estimate`: exact
    cardinalities of inputs already in the execution memo, the static cost
    template otherwise).  Everything that follows from an order — which input
    joins next (connected inputs preferred), its oriented equi pairs and key
    slots, the merge of duplicated columns, the condition over the final
    runtime layout and the permutation onto the static one — is a *recipe*,
    built on first use of that order and kept on the node (idempotent, safe
    under the GIL).  Per execution only the data-dependent choices remain:
    the order, index probe or hash join, and the hash build side — the same
    tests the interpreter applies, so both engines produce identical row
    orders.

    The memo is asked by the *physical* child's ``logical_id``: structural
    twins share one node, so a twin evaluated earlier in the execution counts
    as already materialized.
    """

    __slots__ = ("children", "estimates", "_recipes")

    def __init__(self, logical: JoinOp, children: Sequence[PhysicalOp]) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.children = tuple(children)
        #: per input: (memo id, static rank, size estimator over a database)
        self.estimates = tuple(
            (child.logical_id, *_cost_template(input_op))
            for child, input_op in zip(children, logical.inputs)
        )
        # input order -> (first input, steps, compiled condition, permutation)
        self._recipes: dict[tuple[int, ...], tuple] = {}

    def _recipe(self, order: tuple[int, ...]) -> tuple:
        logical: JoinOp = self.logical  # type: ignore[assignment]
        remaining = [self.children[position] for position in order]
        first = remaining.pop(0)
        acc_layout = first.layout
        steps: list[_JoinStep] = []
        consumed_pairs: set[tuple[str, str]] = set()
        while remaining:
            acc_columns = set(acc_layout.columns)
            # Prefer the next input connected to the accumulated result.
            chosen_index = 0
            for candidate_index, candidate in enumerate(remaining):
                if _pairs_for(acc_columns, set(candidate.layout.columns), logical.equi_pairs):
                    chosen_index = candidate_index
                    break
            child = remaining.pop(chosen_index)
            pairs = [
                pair
                for pair in _pairs_for(
                    acc_columns, set(child.layout.columns), logical.equi_pairs
                )
                if pair not in consumed_pairs
            ]
            consumed_pairs.update(pairs)
            consumed_pairs.update((b, a) for a, b in pairs)
            step = _JoinStep(acc_layout, child, pairs)
            steps.append(step)
            acc_layout = step.spec.layout
        # The interpreter filters by name over the merged dicts; slots of the
        # runtime layout carry the same winning values.
        condition = (
            compile_predicate(logical.condition, acc_layout.index)
            if logical.condition is not None
            else None
        )
        permutation = (
            None
            if acc_layout.columns == self.layout.columns
            else slot_getter(acc_layout.slots(self.layout.columns))
        )
        return first, tuple(steps), condition, permutation

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        database = ctx.database
        costs = []
        for position, (memo_id, rank, size) in enumerate(self.estimates):
            rows = memo.get(memo_id)
            costs.append(
                (0, len(rows), position) if rows is not None
                else (rank, size(database), position)
            )
        costs.sort()
        order = tuple([cost[2] for cost in costs])
        recipe = self._recipes.get(order)
        if recipe is None:
            recipe = self._recipes[order] = self._recipe(order)
        first, steps, condition, permutation = recipe

        result = first.rows(ctx, memo)
        for step in steps:
            if step.left_key is not None:
                result = self._join_with(result, step, ctx, memo)
                continue
            # Cross product ({**left, **right}: the right side wins dups).
            right_rows = step.child.rows(ctx, memo)
            if step.spec.concat:
                result = [left + right for left in result for right in right_rows]
            else:
                merge = step.spec.merge_right_wins
                result = [merge(left, right) for left in result for right in right_rows]
        if condition is not None:
            parameters = ctx.parameters
            result = [row for row in result if condition(row, parameters)]
        if permutation is not None:
            result = list(map(permutation, result))
        return result

    def _join_with(
        self,
        left_rows: list[tuple],
        step: _JoinStep,
        ctx: EvaluationContext,
        memo: dict[int, list[tuple]],
    ) -> list[tuple]:
        probed = self._try_index_probe(left_rows, step, ctx, memo)
        if probed is not None:
            return probed

        right_rows = step.child.rows(ctx, memo)
        ctx._bump("hash_joins")
        left_key = step.left_key_of
        right_key = step.right_key_of
        merge = step.spec.merge_left_wins
        output: list[tuple] = []
        table: dict[Any, list[tuple]] = {}
        if len(right_rows) <= len(left_rows):
            for row in right_rows:
                table.setdefault(right_key(row), []).append(row)
            for row in left_rows:
                for match in table.get(left_key(row), ()):
                    output.append(merge(row, match))
        else:
            for row in left_rows:
                table.setdefault(left_key(row), []).append(row)
            for row in right_rows:
                for match in table.get(right_key(row), ()):
                    output.append(merge(match, row))
        return output

    def _try_index_probe(
        self,
        left_rows: list[tuple],
        step: _JoinStep,
        ctx: EvaluationContext,
        memo: dict[int, list[tuple]],
    ) -> list[tuple] | None:
        """Index nested-loop probe (same profitability test as the oracle)."""
        base_columns = step.base_columns
        if base_columns is None:
            return None
        child = step.child
        if child.logical_id in memo:  # already materialized; a hash join is cheaper
            return None
        scan: TableOp = child.logical  # type: ignore[assignment]
        table = ctx.database.table(scan.table)
        primary = step.primary
        if not (primary or table.has_index_on(base_columns)):
            return None
        if len(left_rows) > max(16, _PROBE_RATIO * len(table)):
            return None
        ctx._bump("index_probes", len(left_rows))

        transition = ctx.trigger_context
        old_of_updated_table = (
            scan.variant is TableVariant.OLD
            and transition is not None
            and transition.table == scan.table
        )
        inserted_keys: set[tuple] = set()
        deleted_by_probe: dict[tuple, list[tuple]] = {}
        if old_of_updated_table:
            key_of = table.schema.key_of
            inserted_keys = {key_of(row) for row in transition.net_inserted}
            stored_key_of = step.stored_key_of
            for row in transition.net_deleted:
                deleted_by_probe.setdefault(stored_key_of(row), []).append(row)

        # {**left, ...right columns...}: the right side wins dups.
        probe_key_of = step.probe_key_of
        append_of = step.append_of
        overwrite_sources = step.overwrite_sources
        output: list[tuple] = []
        for left in left_rows:
            probe_value = probe_key_of(left)
            if primary:
                match = table.get(probe_value)
                matches = [match] if match is not None else []
            else:
                matches = table.lookup(base_columns, probe_value)
            if old_of_updated_table:
                matches = [row for row in matches if key_of(row) not in inserted_keys]
                matches = matches + deleted_by_probe.get(probe_value, [])
            if overwrite_sources:
                for row in matches:
                    merged = list(left)
                    for acc_slot, source in overwrite_sources:
                        merged[acc_slot] = row[source]
                    merged.extend(append_of(row))
                    output.append(tuple(merged))
            else:
                for row in matches:
                    output.append(left + append_of(row))
        return output


class PTwoWayJoin(PhysicalOp):
    """Left-outer and anti joins (two inputs, static layouts)."""

    __slots__ = ("left", "right", "join_kind", "left_key", "right_key",
                 "merge_spec", "condition", "post_condition")

    def __init__(self, logical: JoinOp, left: PhysicalOp, right: PhysicalOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.left = left
        self.right = right
        self.join_kind = logical.join_kind
        pairs = _pairs_for(
            set(left.layout.columns), set(right.layout.columns), logical.equi_pairs
        )
        self.left_key = slot_getter(left.layout.slots([a for a, _ in pairs]))
        self.right_key = slot_getter(right.layout.slots([b for _, b in pairs]))
        # {**left, **match}: the right side wins duplicated columns.
        self.merge_spec = _MergeSpec(left.layout, right.layout.columns)
        self.condition = (
            compile_predicate(logical.condition, self.merge_spec.layout.index)
            if logical.condition is not None
            else None
        )
        # The interpreter applies a join condition twice for these kinds:
        # inside the match loop AND again over the final output rows
        # (_evaluate_join's trailing filter) — where a null-extended outer
        # row evaluates to unknown (dropped) and an anti row lacks the right
        # side's columns entirely (so a referenced column raises, exactly as
        # the interpreter's ColumnRef does).  Mirrored bit for bit.
        self.post_condition = (
            compile_predicate(logical.condition, self.layout.index)
            if logical.condition is not None
            else None
        )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        left_rows = self.left.rows(ctx, memo)
        right_rows = self.right.rows(ctx, memo)
        ctx._bump("hash_joins")
        right_key = self.right_key
        table: dict[tuple, list[tuple]] = {}
        for row in right_rows:
            table.setdefault(right_key(row), []).append(row)

        left_key = self.left_key
        condition = self.condition
        parameters = ctx.parameters
        merge = self.merge_spec.merge_right_wins
        output: list[tuple] = []

        if self.join_kind is JoinKind.ANTI:
            for left in left_rows:
                matches = table.get(left_key(left), [])
                if condition is not None:
                    matches = [m for m in matches if condition(merge(left, m), parameters)]
                if not matches:
                    output.append(left)
        elif self.join_kind is JoinKind.LEFT_OUTER:
            null_right = tuple([None] * len(self.right.layout.columns))
            for left in left_rows:
                matches = table.get(left_key(left), [])
                if condition is not None:
                    matches = [m for m in matches if condition(merge(left, m), parameters)]
                if matches:
                    for match in matches:
                        output.append(merge(left, match))
                else:
                    output.append(merge(left, null_right))
        else:
            raise EvaluationError(
                f"unsupported join kind {self.join_kind!r}"
            )  # pragma: no cover
        post_condition = self.post_condition
        if post_condition is not None:
            output = [row for row in output if post_condition(row, parameters)]
        return output


class PGroupBy(PhysicalOp):
    """Group by slots and run compiled aggregates per group."""

    __slots__ = ("input", "key_of", "global_group", "row_order", "aggregates")

    def __init__(self, logical: GroupByOp, input_op: PhysicalOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.input = input_op
        self.key_of = slot_getter(input_op.layout.slots(logical.grouping))
        # No grouping columns: one group, even over no rows.
        self.global_group = not logical.grouping
        self.row_order = _order_key(input_op.layout.slots(logical.order_within_group))
        self.aggregates = tuple(
            aggregate.compile(input_op.layout.index) for aggregate in logical.aggregates
        )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        input_rows = self.input.rows(ctx, memo)
        key_of = self.key_of
        groups: dict[tuple, list[tuple]] = {}
        for row in input_rows:
            key = key_of(row)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [row]
            else:
                bucket.append(row)

        if self.global_group and not groups:
            groups[()] = []

        row_order = self.row_order
        aggregates = self.aggregates
        parameters = ctx.parameters
        output: list[tuple] = []
        for key, rows in groups.items():
            if row_order is not None:
                rows = sorted(rows, key=row_order)
            output.append(key + tuple([aggregate(rows, parameters) for aggregate in aggregates]))
        return output


def _order_key(slots: Sequence[int]) -> Callable[[tuple], Any] | None:
    """The sort key of an order-within-group, compiled for its arity."""
    if not slots:
        return None
    if len(slots) == 1:
        slot = slots[0]
        return lambda row: sort_key(row[slot])
    return lambda row: tuple([sort_key(row[i]) for i in slots])


class PUnion(PhysicalOp):
    """Union with per-input slot permutations and optional deduplication."""

    __slots__ = ("children", "projections", "all")

    def __init__(self, logical: UnionOp, children: Sequence[PhysicalOp]) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.children = tuple(children)
        self.all = logical.all
        self.projections = tuple(
            slot_getter(child.layout.slots([mapping[column] for column in logical.output_columns]))
            for child, mapping in zip(children, logical.mappings)
        )

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        output: list[tuple] = []
        seen: set[tuple] = set()
        for child, projection in zip(self.children, self.projections):
            if self.all:
                output.extend(map(projection, child.rows(ctx, memo)))
                continue
            for projected in map(projection, child.rows(ctx, memo)):
                fingerprint = tuple(map(_hashable, projected))
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                output.append(projected)
        return output


class PUnnest(PhysicalOp):
    """Split an XML fragment slot into one output tuple per item."""

    __slots__ = ("input", "source_slot", "item_slot", "ordinal_slot", "width")

    def __init__(self, logical: UnnestOp, input_op: PhysicalOp) -> None:
        super().__init__(logical, SlotLayout(logical.output_columns))
        self.input = input_op
        self.source_slot = input_op.layout.index.get(logical.source_column)
        self.item_slot = self.layout.index[logical.item_column]
        self.ordinal_slot = (
            self.layout.index[logical.ordinal_column] if logical.ordinal_column else None
        )
        self.width = len(self.layout.columns)

    def _compute(self, ctx: EvaluationContext, memo: dict[int, list[tuple]]) -> list[tuple]:
        from repro.xmlmodel.node import Fragment

        input_rows = self.input.rows(ctx, memo)
        source_slot = self.source_slot
        if source_slot is None:
            return []  # row.get(missing source) is None for every row
        item_slot = self.item_slot
        ordinal_slot = self.ordinal_slot
        width = self.width
        output: list[tuple] = []
        for row in input_rows:
            value = row[source_slot]
            if value is None:
                continue
            if isinstance(value, Fragment):
                items = list(value.items)
            elif isinstance(value, (list, tuple)):
                items = list(value)
            else:
                items = [value]
            padded = list(row) + [None] * (width - len(row))
            for ordinal, item in enumerate(items):
                out = list(padded)
                out[item_slot] = item
                if ordinal_slot is not None:
                    out[ordinal_slot] = ordinal
                output.append(tuple(out))
        return output


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class PhysicalPlan:
    """A compiled, immutable physical plan for one logical graph."""

    def __init__(self, root: PhysicalOp) -> None:
        self.root = root
        self.layout = root.layout
        #: Whether every execution under one statement's context yields the
        #: same rows (the root is not volatile) — callers may then derive
        #: from the result once per statement.
        self.shareable = not root.volatile
        #: Base tables the plan reads: a result derived from an execution
        #: holds while their :func:`version_stamp` does.
        self.table_deps = root.table_deps

    def execute(self, context: EvaluationContext) -> list[tuple]:
        """Evaluate the plan; returns slot rows (see :attr:`layout`).

        ``context.shared_results`` (a statement's evaluation memo) lets
        statement-shared nodes reuse what an earlier execution under the same
        statement computed.
        """
        memo: dict[int, list[tuple]] = {}
        return self.root.rows(context, memo)

    def execute_mappings(self, context: EvaluationContext) -> list[dict[str, Any]]:
        """Evaluate and convert to the interpreter's dict-row representation."""
        columns = self.layout.columns
        return [dict(zip(columns, row)) for row in self.execute(context)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhysicalPlan(root={self.root.kind}, columns={list(self.layout.columns)})"


def _operator_uses_parameters(op: Operator) -> bool:
    """Whether evaluating ``op`` itself may read the parameter bindings."""
    if isinstance(op, SelectOp):
        return expression_uses_parameters(op.predicate)
    if isinstance(op, ProjectOp):
        return any(expression_uses_parameters(e) for _, e in op.projections)
    if isinstance(op, JoinOp):
        return op.condition is not None and expression_uses_parameters(op.condition)
    if isinstance(op, GroupByOp):
        return any(
            aggregate.argument is not None and expression_uses_parameters(aggregate.argument)
            for aggregate in op.aggregates
        )
    return False


def _parameters(op: Operator) -> tuple:
    """The operator's own parameters — everything but its inputs — as a value.

    Expressions and aggregate specs are frozen dataclasses and hash as they
    are.  A join's output columns are left out: they follow from its inputs.
    A constants table is bound by name at run time and keeps its identity.
    """
    if isinstance(op, TableOp):
        return (op.table, op.alias, op.variant, op.columns)
    if isinstance(op, SelectOp):
        return (op.predicate,)
    if isinstance(op, ProjectOp):
        return tuple(op.projections)
    if isinstance(op, JoinOp):
        return (op.join_kind, op.equi_pairs, op.condition)
    if isinstance(op, GroupByOp):
        return (op.grouping, op.aggregates, op.order_within_group)
    if isinstance(op, UnionOp):
        columns = op.output_columns
        return (op.all, columns, tuple(tuple(m[c] for c in columns) for m in op.mappings))
    if isinstance(op, UnnestOp):
        return (op.source_column, op.item_column, op.ordinal_column)
    return (op.id,)


class PlanCompiler:
    """Lowers logical graphs over one catalog into physical plans.

    Lowering is hash-consed: an operator's *signature* is its kind, its own
    parameters (:func:`_parameters`) and the compiled nodes of its inputs —
    by identity, so a signature is as flat as the operator however deep the
    graph below — and one compiler keeps one node per signature.  The
    structural twins the translator leaves behind (``clone_graph`` /
    ``push_semijoin`` / compensation copies carry fresh operator ids) thus
    lower to one node, evaluated once per execution, and the plans of one
    compiler share the nodes of shared subgraphs: the translator registers
    the event-independent sides of a monitored path (:meth:`share`) and every
    per-event plan (:meth:`plan`) references one compiled node per side —
    which is also what keys the side's rows in the statement's evaluation
    memo.  The signature is taken from the operator as it stands, so an
    operator widened in place since an earlier lowering (``ensure_columns``)
    is lowered afresh.

    ``catalog`` is the :class:`~repro.relational.database.Database` whose
    schemas bind unbound table scans; only the schemas are kept — a
    long-lived compiler never pins the database — so the compiled plans may
    execute against any database with the same catalog (the shard services
    of a server share them).  Compilation is not thread-safe; the service
    compiles under its plan cache's lock.
    """

    def __init__(self, catalog) -> None:
        self.schemas = {name: catalog.schema(name) for name in catalog.table_names()}
        self.memo: dict[tuple, PhysicalOp] = {}  # signature -> its one node
        self._taken: set[int] = set()  # logical ids the nodes answer to
        # logical id of a share()d side -> its node, once lowered
        self._shared: dict[int, PhysicalOp | None] = {}
        # logical id -> the operator lowered in its place
        self._substitutes: dict[int, Operator] = {}

    def share(self, op: Operator) -> None:
        """Lower ``op`` as a statement-shared node (volatile nodes never are).

        Nothing is lowered here, so an operator the compiler cannot lower
        fails where the plan that needs it is compiled.  A shared side keeps the
        node of its first lowering — every plan over it reads the one entry
        the statement's memo holds — even when a later translation has
        widened the graph below it (for operators of its own).
        """
        self._shared.setdefault(op.id)

    def substitute(self, op: Operator, replacement: Operator) -> None:
        """Lower ``op`` as ``replacement`` wherever a plan reaches it.

        The caller vouches that ``replacement`` yields ``op``'s rows, in the
        same order, under the same columns — typically a projection of a node
        some other side computes anyway.  The logical graph is left as it is,
        so the interpreter still evaluates ``op`` itself.
        """
        if replacement.output_columns != op.output_columns:
            raise EvaluationError(
                f"substitute for {op.describe()} yields {list(replacement.output_columns)}"
            )
        self._substitutes[op.id] = replacement

    def plan(self, top: Operator) -> PhysicalPlan:
        """The physical plan for the graph rooted at ``top``."""
        return PhysicalPlan(self.compile(top))

    def compile(self, op: Operator) -> PhysicalOp:
        """The node for ``op``'s signature, lowering what has none yet."""
        return self._lower(op, {})

    def _lower(self, op: Operator, seen: dict[int, PhysicalOp]) -> PhysicalOp:
        # ``seen`` (logical id -> node) holds for this call only: it keeps the
        # walk linear in a DAG, and the graph may be widened between calls.
        op = self._substitutes.get(op.id, op)
        node = seen.get(op.id) or self._shared.get(op.id)
        if node is not None:
            return node
        if isinstance(op, TableOp) and op.columns is None:
            op.bind_schema(self.schemas[op.table].column_names)
        children = [self._lower(input_op, seen) for input_op in op.inputs]
        signature = (type(op), _parameters(op), *children)
        try:
            node = self.memo.get(signature)
        except TypeError:  # an unhashable constant in an expression: no twins
            signature = (op.id, *children)
            node = self.memo.get(signature)
        if node is None:
            node = self._build(op, children)
            self._classify(op, node, children)
            self.memo[signature] = node
        if op.id in self._shared:
            self._shared[op.id] = node
            node.shared = not node.volatile
        seen[op.id] = node
        return node

    def _classify(self, op: Operator, node: PhysicalOp, children: list[PhysicalOp]) -> None:
        """Derive a new node's sharing classification from its children's."""
        if node.logical_id in self._taken:
            # ``op`` was widened since an earlier lowering, which still serves
            # its twins: the two nodes must not answer to one memo key.
            node.logical_id = next(_operator_counter)
        self._taken.add(node.logical_id)
        # Volatile — never shared — when a constants table or a parameter
        # binding is consulted anywhere below.
        node.volatile = isinstance(op, ConstantsOp) or any(
            child.volatile for child in children
        ) or _operator_uses_parameters(op)
        deps: set[str] = set()
        for child in children:
            deps.update(child.table_deps)
        if isinstance(op, TableOp):
            deps.add(op.table)
        node.table_deps = tuple(sorted(deps))

    def _build(self, op: Operator, children: list[PhysicalOp]) -> PhysicalOp:
        if isinstance(op, TableOp):
            return PTableScan(op, self.schemas[op.table])
        if isinstance(op, ConstantsOp):
            return PConstants(op)
        if isinstance(op, SelectOp):
            return PSelect(op, *children)
        if isinstance(op, ProjectOp):
            return PProject(op, *children)
        if isinstance(op, JoinOp):
            if op.join_kind is JoinKind.INNER:
                return PInnerJoin(op, children)
            return PTwoWayJoin(op, *children)
        if isinstance(op, GroupByOp):
            return PGroupBy(op, *children)
        if isinstance(op, UnionOp):
            return PUnion(op, children)
        if isinstance(op, UnnestOp):
            return PUnnest(op, *children)
        raise EvaluationError(f"cannot compile operator {op.kind}")


def compile_plan(top: Operator, catalog) -> PhysicalPlan:
    """Lower the logical graph rooted at ``top`` into a standalone physical plan.

    See :class:`PlanCompiler` for what ``catalog`` binds; nothing in a plan
    compiled this way is statement-shared.
    """
    return PlanCompiler(catalog).plan(top)
