"""Trigger Pushdown (Section 5.2): building the executable SQL triggers.

This stage takes the affected-node machinery of Section 4 and turns it into
the statement-level SQL trigger that actually runs on every relational
update.  Three levers are applied here, matching the paper's GROUPED /
GROUPED-AGG implementations:

* **Affected-key pushdown** — the affected keys (driven by the transition
  tables) are pushed *into* the view graph as semi-joins, so base tables are
  probed through indexes for just the affected keys instead of being scanned
  (Figure 16's ``AffectedKeys`` CTE joined inside ``ProductCount``).

* **Old-aggregate compensation (GROUPED-AGG)** — when the triggers in a group
  never look inside ``OLD_NODE`` (beyond attributes derived from the element
  key), the old side only has to decide *which keys existed and satisfied the
  view predicates before the update*.  Distributive aggregates over the
  pre-update table are then computed from the post-update aggregates plus the
  transition tables (Figure 16's ``deltaCount`` / ``HAVING SUM(...)``),
  so ``B_old`` is never materialized or re-aggregated.

* **Difference-check elision** — the transition tables are always the
  pruned ones of Definition 8, so for injective views the final
  ``OLD_NODE ≠ NEW_NODE`` check is dropped (Theorem 3).

Translation is split the way Figure 12 is: the **event-independent half**
(:class:`SharedSides` — affected-key union, pushed ``NEW_NODE`` side, and the
compensated or full ``OLD_NODE`` side) is built once per (monitored path,
base table), alike for a top-level and a nested path, and each XML event
adds only its thin **combine** (join / anti join / difference check /
output projection) on top of those very operator objects.  At run time every side is therefore
evaluated once per relational statement, whatever mix of INSERT, UPDATE and
DELETE trigger groups that statement fires (see
:meth:`CompiledTableTrigger.affected_pairs`).

The result, :class:`CompiledTableTrigger`, carries the optimized executable
graph and its lowered physical plan (``ActiveViewService.generated_sql``
renders it as Figure 16-style SQL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import EvaluationError, TriggerCompilationError
from repro.relational.database import Database
from repro.relational.triggers import TriggerContext, TriggerEvent
from repro.xqgm.expressions import AttributeSpec, ColumnRef, ElementConstructor, Expression
from repro.xqgm.evaluate import EvaluationContext, evaluate
from repro.xqgm.graph import ensure_columns, walk
from repro.xqgm.physical import PhysicalPlan, PlanCompiler, version_stamp
from repro.xqgm.operators import (
    GroupByOp,
    JoinKind,
    JoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    TableOp,
)
from repro.xqgm.rewrite import compensate_old_aggregates, prune_columns, push_semijoin
from repro.xqgm.views import PathGraph, ViewElementSpec
from repro.xmlmodel.serialize import EncodedPair
from repro.core.affected_nodes import (
    NEW_NODE,
    OLD_NODE,
    AffectedNodeSides,
    combine_sides,
    create_an_sides,
    _node_side,
)
from repro.core.events import events_by_table, get_source_events
from repro.core.injectivity import path_graph_is_injective

__all__ = [
    "OldNodeRequirement",
    "PushdownOptions",
    "SharedSides",
    "CompiledTableTrigger",
    "translate_path",
    "AffectedPair",
]


# What the triggers need to know about the pre-update node.
class OldNodeRequirement:
    """How much of OLD_NODE the triggers of a group actually reference."""

    NONE = "none"  # OLD_NODE never referenced
    SHALLOW = "shallow"  # only OLD_NODE attributes derived from the element key
    FULL = "full"  # OLD_NODE descendants / arbitrary content


@dataclass
class PushdownOptions:
    """Knobs selecting which Section 5 optimizations are applied."""

    compensate_old_aggregates: bool = False
    old_node_requirement: str = OldNodeRequirement.FULL

    def cache_key(self) -> tuple:
        """Hashable fingerprint: two option sets with equal keys compile to
        interchangeable plans, so the service's plan cache can share the
        translation across trigger groups.  Of the old-node requirement only
        "FULL or not" reaches the translation (NONE and SHALLOW both take the
        compensated old side where there is one)."""
        return (
            self.compensate_old_aggregates,
            self.old_node_requirement != OldNodeRequirement.FULL,
        )


@dataclass
class AffectedPair:
    """One (OLD_NODE, NEW_NODE) pair produced by an activated SQL trigger."""

    key: tuple
    old_node: Any
    new_node: Any
    #: The pair's serialized nodes, filled on first read.  The statement's
    #: pairs memo hands one pair to every sibling group, so every firing of
    #: the pair — and every encoder behind it — shares this one holder.
    encoded: EncodedPair = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.encoded = EncodedPair(self.old_node, self.new_node)


class SharedSides:
    """The event-independent half of a translation, for one base table.

    Figure 12 derives the INSERT, UPDATE and DELETE pairs of a monitored path
    from the same sub-plans; this object owns them once for every trigger
    group and XML event on ``(path_graph, table)``, at any depth of the path:

    * :attr:`reference` — the faithful ``CreateANGraph`` steps the sides
      are built from (affected-key graphs, their union, key columns,
      ``G_old``);
    * :attr:`union_keys` / :attr:`new_side` — the affected-key union and the
      ``NEW_NODE`` side actually evaluated, with the affected keys pushed
      into ``G`` as semi-joins through every level of the path;
    * :meth:`old_side` — the ``OLD_NODE`` side, in up to two variants: the
      full pre-update nodes (keys pushed into ``G_old`` alike), and the
      GROUPED-AGG *compensated* side that decides which keys existed without
      touching ``B_old``.  Compensation is used where the affected keys name
      changed tuples only: not where an affected-key graph was reached
      through several legs of one join
      (:attr:`~repro.core.affected_keys.AffectedKeyGraph.multi_leg_join`),
      whose keys include unchanged siblings under an affected ancestor that
      only the ``OLD_NODE ≠ NEW_NODE`` check on full nodes drops.

    The sides are lowered once, by one compiler; the per-event plans
    (:meth:`compile`) reference those compiled nodes, which the compiler
    marks statement-shared — one evaluation per relational statement serves
    every group and event the statement fires.  The compensated side's
    new-state group-bys re-aggregate the very rows the ``NEW_NODE`` side's
    group-bys aggregate; the compiler lowers each as a projection of its
    ``NEW_NODE`` twin (:func:`_new_state_reads`), so an affected group's rows
    are joined and grouped once per statement, as in Figure 16.

    Old-side variants and per-event plans are added lazily, so an instance
    is mutated after construction: callers serialize on the cache that hands
    it out (the service's ``PlanCache`` builds and extends it under its
    lock).
    """

    def __init__(
        self,
        path_graph: PathGraph,
        table: str,
        database: Database,
    ) -> None:
        self.path_graph = path_graph
        self.table = table
        self.reference: AffectedNodeSides = create_an_sides(path_graph, table, database)
        self.union_keys = self.reference.union_keys
        self.new_side = self._pushed_side(path_graph.top, NEW_NODE, "", "new-nodes-pushed")
        # compensated? -> (old side, uses_compensation)
        self._old_sides: dict[bool, tuple[Operator, bool]] = {}
        # Compilation captures only schema information, so the plans run
        # against any database with this catalog.
        self._compiler = PlanCompiler(database)
        self._compiler.share(self.union_keys)
        self._compiler.share(self.new_side)

    def _pushed_side(
        self, graph_top: Operator, node_output: str, key_suffix: str, label: str
    ) -> Operator:
        """``keys ⋈ graph`` with the affected keys pushed into ``graph``."""
        reference = self.reference
        pushed = push_semijoin(
            graph_top,
            list(zip(reference.covered_key_columns, reference.union_key_columns)),
            self.union_keys,
        )
        return _node_side(
            self.union_keys, reference.union_key_columns, pushed,
            self.path_graph.node_column, reference.key_columns,
            node_output=node_output, key_suffix=key_suffix, label=label,
            join_columns=reference.covered_key_columns,
        )

    def old_side(self, compensated: bool) -> tuple[Operator, bool]:
        """``(OLD_NODE side, uses_compensation)`` for the requested variant.

        ``compensated`` asks for the GROUPED-AGG keys-only side; where that
        rewrite does not apply (affected keys through several legs of a join,
        non-distributive aggregates) the full side is returned instead,
        flagged ``False``.
        """
        entry = self._old_sides.get(compensated)
        if entry is not None:
            return entry
        side = _compensated_old_side(self) if compensated else None
        if side is not None:
            entry = (side, True)
            for op, projection in _new_state_reads(side, self.new_side, self._compiler.schemas):
                self._compiler.substitute(op, projection)
        elif compensated:
            entry = self.old_side(False)
        else:
            entry = (
                self._pushed_side(self.reference.g_old_top, OLD_NODE, "#old", "old-nodes-pushed"),
                False,
            )
        self._old_sides[compensated] = entry
        self._compiler.share(entry[0])
        return entry

    @property
    def shared_operators(self) -> tuple[Operator, ...]:
        """The distinct operators evaluated at most once per statement."""
        sides = [self.union_keys, self.new_side, *(side for side, _ in self._old_sides.values())]
        return tuple({id(side): side for side in sides}.values())

    def compile(self, top: Operator) -> PhysicalPlan:
        """Lower a per-event graph over these sides.

        Runs at translation time, never on the DML hot path.  A graph the
        compiler cannot lower raises :class:`TriggerCompilationError`, so
        ``CREATE TRIGGER`` fails before any SQL trigger is installed.
        """
        try:
            return self._compiler.plan(top)
        except EvaluationError as error:
            raise TriggerCompilationError(
                f"cannot lower the plan for {'/'.join(self.path_graph.path)!r} "
                f"on table {self.table!r}: {error}"
            ) from error


@dataclass
class CompiledTableTrigger:
    """The translation of one monitored path / XML event for one base table.

    Besides the logical graphs, the translation carries the lowered
    *physical* plan (:mod:`repro.xqgm.physical`): tuple rows with slot
    layouts and pre-compiled expression closures.  The physical plan is
    compiled once at translation time and is immutable, so a translation
    cached in the service :class:`~repro.core.service.PlanCache` shares its
    compiled plan across trigger groups and across the shard services of a
    server.  The interpreted evaluator remains available as the oracle
    (``use_compiled=False``).
    """

    table: str
    xml_event: TriggerEvent
    relational_events: dict[TriggerEvent, frozenset[str] | None]
    path_graph: PathGraph
    executable_top: Operator
    key_columns: tuple[str, ...]
    injective: bool
    checks_difference: bool
    uses_compensation: bool
    options: PushdownOptions
    #: The event-independent half this translation combines — the same
    #: object for every sibling group / event on this path and table.
    sides: SharedSides
    physical_plan: PhysicalPlan

    def affected_pairs(
        self,
        database: Database,
        trigger_context: TriggerContext,
        *,
        use_compiled: bool = True,
        engine_stats: dict[str, int] | None = None,
    ) -> list[AffectedPair]:
        """Evaluate the executable graph for one fired statement.

        ``use_compiled`` runs the physical plan (the default); without it the
        interpreter evaluates the graph.

        The compiled plan works through the statement's evaluation memo
        (``trigger_context.evaluation_memo``): each shared side is computed
        by whichever sibling group or event translation fires first and read
        back by the others, and the derived pairs list of this translation is
        itself kept there, so the groups sharing the translation return it
        without entering the engine (treat it as immutable).  Memo entries
        are keyed by the plan or side *and* the version stamps of the base
        tables it reads: when an earlier group's action ran DML of its own
        on one of them, the later groups recompute against the tables as
        they now stand — exactly what the interpreter does.  The interpreter
        never consults the memo — it stays the independent oracle.

        ``engine_stats`` accumulates the sharing counters the service reports
        (``shared_side_evaluations`` / ``shared_side_reuses`` /
        ``pairs_memo_hits``).
        """
        def bump(counter: str, amount: int = 1) -> None:
            if engine_stats is not None and amount:
                engine_stats[counter] = engine_stats.get(counter, 0) + amount

        plan = self.physical_plan if use_compiled else None
        memo = trigger_context.evaluation_memo
        memo_key = None
        if plan is not None and plan.shareable:
            memo_key = (plan, version_stamp(database, plan.table_deps))
            pairs = memo.get(memo_key)
            if pairs is not None:
                bump("pairs_memo_hits")
                return pairs

        context = EvaluationContext(database, trigger_context)
        if plan is None:
            return [
                AffectedPair(
                    key=tuple(row[column] for column in self.key_columns),
                    old_node=row[OLD_NODE],
                    new_node=row[NEW_NODE],
                )
                for row in evaluate(self.executable_top, context)
            ]
        context.shared_results = memo
        index = plan.layout.index
        key_slots = [index[column] for column in self.key_columns]
        old_slot = index[OLD_NODE]
        new_slot = index[NEW_NODE]
        pairs = [
            AffectedPair(
                key=tuple(row[i] for i in key_slots),
                old_node=row[old_slot],
                new_node=row[new_slot],
            )
            for row in plan.execute(context)
        ]
        bump("shared_side_evaluations", context.shared_side_evaluations)
        bump("shared_side_reuses", context.shared_side_reuses)
        if memo_key is not None:
            memo[memo_key] = pairs
        return pairs

    @property
    def sql_events(self) -> frozenset[TriggerEvent]:
        """Relational events the generated SQL trigger must subscribe to."""
        return frozenset(self.relational_events)


def translate_path(
    path_graph: PathGraph,
    xml_event: TriggerEvent,
    database: Database,
    options: PushdownOptions | None = None,
    shared_sides: Callable[[tuple, Callable[[], SharedSides]], SharedSides] | None = None,
) -> dict[str, CompiledTableTrigger]:
    """Translate one monitored path + XML event into per-table SQL triggers.

    Runs Event Pushdown to find the relevant base tables, then combines the
    event-independent sides of each into the event's affected-node graph and
    its optimized executable form.

    ``shared_sides(key, build)`` is the get-or-build hook of whoever keeps
    the :class:`SharedSides` between calls (the service passes its plan
    cache's, so sibling events, sibling groups and sibling shard services
    all combine the same sides); ``key`` starts with the view name and the
    monitored path.  Without it every call builds private sides.
    """
    options = options or PushdownOptions()
    columns: frozenset[str] | None = None
    if xml_event is TriggerEvent.UPDATE:
        columns = frozenset({path_graph.node_column})
    events = get_source_events(path_graph.top, xml_event, columns)
    per_table = events_by_table(events)
    if not per_table:
        raise TriggerCompilationError(
            f"no relational events can cause {xml_event.value} on "
            f"{'/'.join(path_graph.path)!r}"
        )

    compiled: dict[str, CompiledTableTrigger] = {}
    for table, relational_events in per_table.items():
        def build() -> SharedSides:
            return SharedSides(path_graph, table, database)

        if shared_sides is None:
            sides = build()
        else:
            sides = shared_sides((path_graph.view_name, tuple(path_graph.path), table), build)
        compiled[table] = _translate_for_table(
            sides, xml_event, relational_events, options
        )
    return compiled


def _translate_for_table(
    sides: SharedSides,
    xml_event: TriggerEvent,
    relational_events: dict[TriggerEvent, frozenset[str] | None],
    options: PushdownOptions,
) -> CompiledTableTrigger:
    # Everything graph-related comes from the sides: a cached instance may
    # have been built over a sibling service's (equal) path graph.
    path_graph = sides.path_graph
    table = sides.table
    injective = path_graph_is_injective(path_graph, table)
    # Theorem 3: injective view + pruned transition tables need no check.
    check_difference = not injective

    # The thin per-event combine over the shared (optimized) sides.
    old_side, uses_compensation = sides.old_side(
        options.compensate_old_aggregates
        and options.old_node_requirement != OldNodeRequirement.FULL
    )
    executable = combine_sides(
        xml_event,
        sides.new_side,
        old_side,
        sides.reference.key_columns,
        sides.reference.old_key_columns,
        check_difference,
    )

    physical_plan = sides.compile(executable)

    return CompiledTableTrigger(
        table=table,
        xml_event=xml_event,
        relational_events=dict(relational_events),
        path_graph=path_graph,
        executable_top=executable,
        key_columns=sides.reference.key_columns,
        injective=injective,
        checks_difference=check_difference,
        uses_compensation=uses_compensation,
        options=options,
        sides=sides,
        physical_plan=physical_plan,
    )


def _compensated_old_side(sides: SharedSides) -> Operator | None:
    """GROUPED-AGG old side: keys of pre-update nodes, without touching B_old.

    Returns ``None`` when the rewrite does not apply (affected keys that
    include unchanged tuples, non-distributive aggregates feeding the view's
    predicates, or the compensation being structurally impossible), in
    which case the caller falls back to the plain (pushed) ``G_old``
    evaluation.
    """
    reference = sides.reference
    if reference.multi_leg_join:
        return None
    path_graph = sides.path_graph
    key_columns = reference.key_columns
    union_keys = sides.union_keys

    # Only the key columns (plus whatever the view's own predicates reference,
    # which prune_columns keeps automatically) are needed on the old side.
    try:
        pruned = prune_columns(reference.g_old_top, list(key_columns))
    except Exception:
        return None

    # Pull up the columns feeding the monitored element's attributes so a
    # shallow OLD_NODE (attributes only, no children) can still be built —
    # they are grouping columns of the view's GroupBy, so no aggregation over
    # B_old is needed for them.
    spec = path_graph.level_specs[-1]
    attribute_columns: list[str] = []
    for _, source in spec.attributes:
        expression = ColumnRef(source) if isinstance(source, str) else source
        for column in sorted(expression.referenced_columns()):
            if column in attribute_columns:
                continue
            try:
                ensure_columns(pruned, [column])
                attribute_columns.append(column)
            except Exception:
                continue

    compensated = compensate_old_aggregates(pruned, sides.table)
    if compensated is None:
        return None

    pairs = list(zip(reference.covered_key_columns, reference.union_key_columns))
    try:
        old_graph = push_semijoin(compensated, pairs, union_keys)
    except Exception:
        old_graph = compensated

    joined = JoinOp(
        [union_keys, old_graph],
        equi_pairs=[(union_column, graph_column) for graph_column, union_column in pairs],
        label="old-keys-compensated",
    )

    # Shallow OLD_NODE: the monitored element with only those attributes whose
    # source columns survived on the old side (key columns and group-level
    # columns) — sufficient for conditions such as OLD_NODE/@name = '...';
    # no children are reconstructed.
    old_node_expression = _shallow_node_expression(
        spec, list(key_columns) + attribute_columns
    )
    projections: list[tuple[str, Expression]] = [(OLD_NODE, old_node_expression)]
    for column, old_column in zip(key_columns, reference.old_key_columns):
        projections.append((old_column, ColumnRef(column)))
    return ProjectOp(joined, projections, label="old-nodes-compensated")


def _shallow_node_expression(spec: ViewElementSpec, key_columns: Sequence[str]) -> Expression:
    attributes: list[AttributeSpec] = []
    available = set(key_columns)
    for attribute_name, source in spec.attributes:
        expression = ColumnRef(source) if isinstance(source, str) else source
        if expression.referenced_columns() <= available:
            attributes.append(AttributeSpec(attribute_name, expression))
    return ElementConstructor(spec.name, tuple(attributes), ())


def _new_state_reads(
    old_side: Operator, new_side: Operator, schemas: dict
) -> Iterator[tuple[GroupByOp, ProjectOp]]:
    """Old-side group-bys that only re-aggregate what a NEW-side group-by does.

    GROUPED-AGG compensation starts from each affected group's new-state
    aggregates; the ``NEW_NODE`` side groups the same rows of the same level
    for its nodes.  A pair is proved, not guessed: same grouping, inputs
    built alike down to every scan, predicate and pushed affected-key
    semi-join (:func:`_same_rows` — so the keys are pushed on both sides or
    on neither), and every aggregate of the old-side group-by computed by
    the NEW-side one.  Labels are never consulted: above a compensated level
    a group-by of the same grouping reads the *old* state.  Yields each such
    group-by with the projection of its NEW-side twin that replaces it.
    """
    on_new_side = {op.id: op for op in walk(new_side)}
    sources = [op for op in on_new_side.values() if isinstance(op, GroupByOp)]
    for op in walk(old_side):
        # A group-by without aggregates costs less than the projection would.
        if not isinstance(op, GroupByOp) or not op.aggregates or op.id in on_new_side:
            continue
        for source in sources:
            if source.grouping == op.grouping and _same_rows(op.input, source.input):
                columns = _served_by(op, source, schemas)
                if columns is not None:
                    yield op, ProjectOp(source, columns, label="new-state-read")
                break


def _served_by(
    op: GroupByOp, source: GroupByOp, schemas: dict
) -> list[tuple[str, Expression]] | None:
    """``op``'s columns as a projection of ``source``'s, grouping the same rows.

    ``count(*)`` is read off a ``count(c)`` whose ``c`` is never NULL.
    """
    columns: list[tuple[str, Expression]] = [(c, ColumnRef(c)) for c in op.grouping]
    for aggregate in op.aggregates:
        if aggregate.func == "xmlfrag" and op.order_within_group != source.order_within_group:
            return None
        match = next(
            (
                candidate for candidate in source.aggregates
                if (candidate.func, candidate.argument) == (aggregate.func, aggregate.argument)
                or (
                    aggregate.func == candidate.func == "count"
                    and aggregate.argument is None
                    and isinstance(candidate.argument, ColumnRef)
                    and _never_null(source.input, candidate.argument.name, schemas)
                )
            ),
            None,
        )
        if match is None:
            return None
        columns.append((aggregate.name, ColumnRef(match.name)))
    return columns


def _never_null(op: Operator, column: str, schemas: dict) -> bool:
    """Whether ``column`` is non-NULL in every row ``op`` yields."""
    if isinstance(op, TableOp):
        prefix = f"{op.alias}."
        if not column.startswith(prefix):
            return False
        schema = schemas[op.table]
        name = column[len(prefix):]
        return name in schema.primary_key or not schema.column(name).nullable
    if isinstance(op, SelectOp):
        return _never_null(op.input, column, schemas)
    if isinstance(op, ProjectOp):
        expression = op.expression_for(column)
        return isinstance(expression, ColumnRef) and _never_null(
            op.input, expression.name, schemas
        )
    if isinstance(op, GroupByOp):
        return column in op.grouping and _never_null(op.input, column, schemas)
    if isinstance(op, JoinOp) and op.join_kind is JoinKind.INNER:
        providers = [input_op for input_op in op.inputs if column in input_op.output_columns]
        return all(_never_null(input_op, column, schemas) for input_op in providers)
    return False


def _same_rows(a: Operator, b: Operator) -> bool:
    """Whether ``a`` yields ``b``'s rows, in ``b``'s order, but maybe fewer columns.

    The graphs must be built alike operator for operator; projections and
    aggregates may differ in which columns they keep (pruning), never in how
    they compute a column both keep.
    """
    if a is b:
        return True
    if type(a) is not type(b) or len(a.inputs) != len(b.inputs):
        return False
    if isinstance(a, TableOp):
        alike = (a.table, a.alias, a.variant) == (b.table, b.alias, b.variant)
    elif isinstance(a, SelectOp):
        alike = a.predicate == b.predicate
    elif isinstance(a, ProjectOp):
        alike = _agree(a.projections, b.projections)
    elif isinstance(a, JoinOp):
        alike = (a.join_kind, a.equi_pairs, a.condition) == (b.join_kind, b.equi_pairs, b.condition)
    elif isinstance(a, GroupByOp):
        alike = (
            a.grouping == b.grouping
            and a.order_within_group == b.order_within_group
            and _agree([(x.name, x) for x in a.aggregates], [(x.name, x) for x in b.aggregates])
        )
    else:  # a union, unnest or constants table: view levels have none, never paired
        alike = False
    return alike and all(_same_rows(x, y) for x, y in zip(a.inputs, b.inputs))


def _agree(a: Iterable[tuple[str, Any]], b: Iterable[tuple[str, Any]]) -> bool:
    """Whether every name ``a`` and ``b`` both define has one definition."""
    definitions = dict(b)
    return all(definitions.get(name, value) == value for name, value in a)
