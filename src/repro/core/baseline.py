"""The MATERIALIZED baseline (and correctness oracle).

Section 1 of the paper describes the rejected alternative design: materialize
the XML view, keep it incrementally maintained (here: recomputed) on every
relational update, and run XML triggers against the materialized copy.  This
module implements that design — partly as the comparison baseline for the
benchmarks, and mainly as the *oracle* that the property-based tests compare
the translated SQL triggers against: its semantics follow Definitions 2 and 3
directly (materialize the monitored nodes before and after every statement
and diff them by canonical key).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TriggerError
from repro.relational.database import Database
from repro.relational.dml import Statement, StatementResult
from repro.relational.triggers import TriggerEvent
from repro.xmlmodel.node import XmlNode
from repro.xqgm.evaluate import EvaluationContext, evaluate
from repro.xqgm.views import PathGraph, ViewDefinition
from repro.core.semantics import NodeChange, diff_node_maps
from repro.core.activation import ActionRegistry, TriggerActivator
from repro.core.trigger import ActionCall, TriggerSpec

__all__ = ["ViewDelta", "MaterializedBaseline", "diff_node_maps"]


@dataclass
class ViewDelta:
    """All node changes for one (view, path) caused by one statement."""

    view: str
    path: tuple[str, ...]
    changes: list[NodeChange] = field(default_factory=list)

    def of_kind(self, kind: TriggerEvent | str) -> list[NodeChange]:
        """Changes of one kind (INSERT / UPDATE / DELETE)."""
        kind = kind.value if isinstance(kind, TriggerEvent) else kind
        return [change for change in self.changes if change.kind == kind]


class MaterializedBaseline:
    """Maintain materialized path results and fire triggers from their diffs."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: dict[str, ViewDefinition] = {}
        self._triggers: dict[str, TriggerSpec] = {}
        # (view, path) -> trigger names, so firing walks one monitored
        # path's triggers instead of the whole registry.
        self._by_path: dict[tuple[str, tuple[str, ...]], list[str]] = {}
        self._paths: dict[tuple[str, tuple[str, ...]], PathGraph] = {}
        self._materialized: dict[tuple[str, tuple[str, ...]], dict[tuple, XmlNode]] = {}
        self.registry = ActionRegistry()
        self.activator = TriggerActivator(self.registry)
        self.fired: list[ActionCall] = []

    # -- registration ---------------------------------------------------------------

    def register_view(self, view: ViewDefinition) -> None:
        """Register a view definition by name."""
        self._views[view.name] = view

    def register_action(self, name: str, function) -> None:
        """Register an external action function."""
        self.registry.register(name, function)

    def create_trigger(self, spec: TriggerSpec) -> None:
        """Register an XML trigger (and materialize its monitored path)."""
        if spec.name in self._triggers:
            raise TriggerError(f"trigger {spec.name!r} already exists")
        view = self._views.get(spec.view)
        if view is None:
            raise TriggerError(f"unknown view {spec.view!r}")
        key = (spec.view, spec.path)
        if key not in self._paths:
            self._paths[key] = view.path_graph(spec.path, self.database)
            self._materialized[key] = self._evaluate_path(self._paths[key])
        # Compile (and cache) the condition and action arguments now: firing
        # must never re-parse trigger text per statement.
        spec.compiled_condition()
        spec.compiled_args()
        self._triggers[spec.name] = spec
        self._by_path.setdefault(key, []).append(spec.name)

    def drop_trigger(self, name: str) -> None:
        """Remove an XML trigger."""
        spec = self._triggers.pop(name, None)
        if spec is None:
            return
        bucket = self._by_path.get((spec.view, spec.path))
        if bucket is not None and name in bucket:
            bucket.remove(name)

    @property
    def triggers(self) -> list[TriggerSpec]:
        """All registered trigger specs."""
        return list(self._triggers.values())

    # -- materialization ------------------------------------------------------------

    def _evaluate_path(self, path_graph: PathGraph) -> dict[tuple, XmlNode]:
        rows = evaluate(path_graph.top, EvaluationContext(self.database))
        return {
            tuple(row[column] for column in path_graph.key_columns): row[path_graph.node_column]
            for row in rows
        }

    def refresh(self) -> None:
        """Re-materialize every monitored path (e.g. after bulk loads)."""
        for key, path_graph in self._paths.items():
            self._materialized[key] = self._evaluate_path(path_graph)

    # -- statement execution ----------------------------------------------------------

    def execute(self, statement: Statement) -> tuple[StatementResult, list[ViewDelta], list[ActionCall]]:
        """Apply a statement, diff every monitored path, fire matching triggers.

        Returns the relational result, the per-path deltas, and the action
        calls that fired.  Statement-level SQL triggers registered on the
        database (e.g. by a co-existing translated service) are *not* fired.
        """
        result = self.database.execute(statement, fire_triggers=False)
        deltas: list[ViewDelta] = []
        calls: list[ActionCall] = []
        for key, path_graph in self._paths.items():
            old_nodes = self._materialized[key]
            new_nodes = self._evaluate_path(path_graph)
            changes = diff_node_maps(old_nodes, new_nodes)
            self._materialized[key] = new_nodes
            delta = ViewDelta(view=key[0], path=key[1], changes=changes)
            deltas.append(delta)
            calls.extend(self._fire_for_delta(delta))
        self.fired.extend(calls)
        return result, deltas, calls

    def _fire_for_delta(self, delta: ViewDelta) -> list[ActionCall]:
        calls: list[ActionCall] = []
        for name in self._by_path.get((delta.view, delta.path), ()):
            spec = self._triggers[name]
            # Cached at create_trigger: firing never re-parses trigger text.
            condition = spec.compiled_condition()
            for change in delta.of_kind(spec.event):
                variables = {"OLD_NODE": change.old_node, "NEW_NODE": change.new_node}
                if condition is not None and not condition.as_boolean(variables):
                    continue
                calls.append(
                    self.activator.activate(
                        spec, change.old_node, change.new_node, key=change.key
                    )
                )
        return calls
