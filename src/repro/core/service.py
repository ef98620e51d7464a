"""The active XML-view middleware (the "Quark + triggers" system of Figure 6).

:class:`ActiveViewService` ties the whole pipeline together:

1. users register :class:`~repro.xqgm.views.ViewDefinition` objects and
   external action functions;
2. ``CREATE TRIGGER`` statements (text or :class:`TriggerSpec`) are parsed,
   composed with their view, pushed through Event Pushdown, translated via
   CreateAKGraph / CreateANGraph, grouped with structurally similar triggers,
   and installed as statement-level SQL triggers on the base tables;
3. ordinary relational DML executed through the service (or directly against
   the :class:`~repro.relational.Database`) fires those SQL triggers, whose
   bodies compute the (OLD_NODE, NEW_NODE) pairs, evaluate each XML trigger's
   condition, and invoke its action;
4. batches of DML submitted via :meth:`ActiveViewService.execute_batch` are
   applied set-at-a-time: the per-statement deltas are coalesced and every
   SQL trigger fires once per (table, event) over the combined transition
   tables, so the whole trigger pipeline runs once per batch slice instead of
   once per statement.

Trigger compilation is memoized in a plan cache keyed by (view, monitored
path, XML event, pushdown options), so structurally identical trigger groups
— most notably the one-group-per-trigger populations of UNGROUPED mode —
share a single pushdown derivation.  The event-independent half of every
translation (affected keys, NEW_NODE side, OLD_NODE side) is cached there
too, once per (view, path, table), so the INSERT, UPDATE and DELETE groups on
one path combine the same sides — and each statement evaluates them once.

Three execution modes reproduce the systems evaluated in Section 6:
``UNGROUPED``, ``GROUPED``, and ``GROUPED_AGG``.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.errors import TriggerError
from repro.relational.database import Database
from repro.relational.dml import Batch, BatchResult, BulkLoad, Statement, StatementResult
from repro.relational.triggers import StatementTrigger, TriggerContext, TriggerEvent
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.serialize import EncodedPair
from repro.xmlmodel.xpath import XPath
from repro.xqgm.physical import ResultCache
from repro.xqgm.views import PathGraph, ViewDefinition
from repro.core.activation import ActionRegistry, TriggerActivator
from repro.core.grouping import ConstantsRow, TriggerGroup
from repro.core.language import parse_trigger
from repro.core.pushdown import (
    CompiledTableTrigger,
    OldNodeRequirement,
    PushdownOptions,
    SharedSides,
    translate_path,
)
from repro.core.semantics import check_trigger_specifiable
from repro.core.trigger import ActionCall, TriggerSpec
from repro.matching.engine import GroupMatcher, MatchPlanCache, MatchStats
from repro.matching.indexes import PathTrie
from repro.matching.predicates import MatchPlan

__all__ = ["ExecutionMode", "FiredTrigger", "PlanCache", "ActiveViewService"]


class ExecutionMode(enum.Enum):
    """The three systems evaluated in Section 6 of the paper."""

    UNGROUPED = "ungrouped"
    GROUPED = "grouped"
    GROUPED_AGG = "grouped_agg"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class FiredTrigger:
    """Record of one XML trigger firing for one affected node."""

    trigger: str
    view: str
    path: tuple[str, ...]
    event: TriggerEvent
    key: tuple
    old_node: XmlNode | None
    new_node: XmlNode | None
    action_call: ActionCall | None = None
    #: The affected pair's serialized nodes (shared by every firing of it).
    encoded: EncodedPair | None = None


@dataclass
class _CompiledGroup:
    """A trigger group together with its installed SQL triggers."""

    group: TriggerGroup
    translations: dict[str, CompiledTableTrigger] = field(default_factory=dict)
    sql_trigger_names: list[str] = field(default_factory=list)
    condition: XPath | None = None
    arguments: tuple[XPath, ...] = ()
    constants_cache: list[ConstantsRow] | None = None
    compile_seconds: float = 0.0
    #: The condition's indexable structure (None for condition-less groups).
    match_plan: MatchPlan | None = None
    _matcher: GroupMatcher | None = field(default=None, init=False, repr=False)
    _matcher_dirty: bool = field(default=True, init=False, repr=False)

    def constants_rows(self) -> list[ConstantsRow]:
        if self.constants_cache is None:
            self.constants_cache = self.group.constants_table()
        return self.constants_cache

    def invalidate_constants(self) -> None:
        self.constants_cache = None
        self._matcher_dirty = True

    # -- matching indexes (repro.matching) -------------------------------------

    def matcher(self) -> GroupMatcher:
        """The group's :class:`GroupMatcher`, (re)built lazily when dirty."""
        matcher = self._matcher
        if matcher is None or self._matcher_dirty:
            # Build fully, then swap: a concurrent reader observes the old
            # complete matcher or the new complete matcher, never a torn one.
            matcher = GroupMatcher.build(
                self.condition, self.match_plan, self.group.members
            )
            self._matcher = matcher
            self._matcher_dirty = False
        return matcher

    def note_member_added(self, member) -> None:
        """Index one newly added member without rebuilding (when clean)."""
        self.constants_cache = None
        if self._matcher is not None and not self._matcher_dirty:
            self._matcher.add_member(member)

    def note_member_removed(self, name: str, constants_key: tuple) -> None:
        """Unindex one removed member without rebuilding (when clean)."""
        self.constants_cache = None
        if self._matcher is not None and not self._matcher_dirty:
            self._matcher.remove_member(name, constants_key)


class PlanCache:
    """Thread-safe cache of compiled trigger plans, shareable across services.

    The cache maps ``(view, path, XML event, pushdown-option fingerprint)``
    keys to the per-table :class:`CompiledTableTrigger` translations derived
    by Trigger Pushdown, and — next to them — ``(view, path, table, ...)``
    keys to the :class:`~repro.core.pushdown.SharedSides` those translations
    combine, so every event and option set on one path reuses one
    event-independent half.  Compiled plans reference base tables *by name*
    and receive the database at evaluation time, so one cache may be shared
    by several :class:`ActiveViewService` instances — in particular by the
    per-shard services of a :class:`repro.serving.ActiveViewServer`, whose
    shards all expose the same catalog.  Sharing means an N-shard server pays
    the pushdown derivation once per distinct plan, not once per shard.

    Thread safety: :meth:`get_or_compile` holds the cache lock for the whole
    lookup-or-compile, so concurrent callers racing on the same key compile
    exactly once (the others block briefly and then hit).  The lock is
    re-entrant because a compilation looks its sides up through
    :meth:`shared_sides`; it also serializes the lazy extension of a
    ``SharedSides``.  Compilation runs at trigger-creation time, never on the
    serving hot path, so the coarse lock does not affect DML throughput.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._plans: dict[tuple, dict[str, CompiledTableTrigger]] = {}
        self._sides: dict[tuple, SharedSides] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compile(
        self,
        key: tuple,
        compile_fn: Callable[[], dict[str, CompiledTableTrigger]],
    ) -> tuple[dict[str, CompiledTableTrigger], bool]:
        """Return ``(translations, was_hit)``, compiling at most once per key."""
        with self._lock:
            translations = self._plans.get(key)
            if translations is not None:
                self.hits += 1
                return translations, True
            translations = compile_fn()
            self._plans[key] = translations
            self.misses += 1
            return translations, False

    def shared_sides(self, key: tuple, build: Callable[[], SharedSides]) -> SharedSides:
        """The sides cached under ``key``, built at most once.

        The ``shared_sides`` hook of
        :func:`~repro.core.pushdown.translate_path`; not counted in
        :attr:`hits` / :attr:`misses`, which describe whole translations.
        """
        with self._lock:
            sides = self._sides.get(key)
            if sides is None:
                sides = self._sides[key] = build()
            return sides

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def invalidate_view(self, view: str) -> int:
        """Drop every cached plan compiled for ``view``; returns the count.

        Plan keys are ``(view, path, event, option fingerprint)`` tuples, so
        a dropped view's plans can be evicted without touching the others;
        its shared sides (keys start with the view name too) go with them.
        On a cache shared across shard services the eviction is global — the
        next ``create_trigger`` for a re-registered view simply recompiles.
        """
        with self._lock:
            doomed = [key for key in self._plans if key[0] == view]
            for key in doomed:
                del self._plans[key]
            for key in [key for key in self._sides if key[0] == view]:
                del self._sides[key]
            return len(doomed)


class ActiveViewService:
    """Middleware exposing active (trigger-enabled) XML views of relational data.

    Thread-safety model: a service instance is *single-writer* — DML
    execution, trigger creation, and the firing log are meant to be driven
    from one thread at a time (the shard-worker model of
    :class:`repro.serving.ActiveViewServer`).  The only pieces designed for
    cross-thread sharing are the :class:`PlanCache` (pass one instance to
    several services) and the registered activation listeners, which are
    invoked on whichever thread executes the DML.
    """

    def __init__(
        self,
        database: Database,
        mode: ExecutionMode = ExecutionMode.GROUPED_AGG,
        *,
        push_affected_keys: bool = True,
        use_pruned_transitions: bool = True,
        create_indexes: bool = True,
        strict_actions: bool = False,
        plan_cache: PlanCache | None = None,
        use_compiled_plans: bool = True,
        use_columnar: bool = False,
        result_cache_size: int = 512,
        collect_eval_stats: bool = False,
        backend: Any = None,
        use_matching_indexes: bool = True,
        match_plan_cache: MatchPlanCache | None = None,
    ) -> None:
        self.database = database
        self.mode = mode
        self.push_affected_keys = push_affected_keys
        self.use_pruned_transitions = use_pruned_transitions
        self.create_indexes = create_indexes
        # Compiled physical plans (repro.xqgm.physical) are the default
        # trigger-firing engine; the interpreted evaluator remains the oracle
        # and the fallback for graphs the lowering cannot handle.  The result
        # cache reuses STABLE subplan results across statements while the
        # input tables' version counters are unchanged; it observes *this*
        # service's database only, so it is per-service even when the
        # PlanCache (and thereby the compiled plans) is shared across shard
        # services.  Within one statement the engines share each OLD/NEW node
        # side and each translation's pairs through the statement's own
        # evaluation memo (TriggerContext.evaluation_memo).
        self.use_compiled_plans = use_compiled_plans
        # The batch-oriented columnar engine (repro.xqgm.columnar) is opt-in:
        # it prefers the columnar lowering per firing and degrades to the row
        # engines for translations without one — every such degradation is
        # counted (columnar_fallbacks / columnar_plan_errors in
        # :meth:`evaluation_report`), never silent.
        self.use_columnar = use_columnar
        # Always-on engine counters (maintained on the hot path regardless of
        # collect_eval_stats): statement-level sharing, and the columnar
        # firing/batch/fallback counts that keep the zero-silent-fallback
        # guarantee observable.
        self.engine_stats: dict[str, int] = {
            "shared_side_evaluations": 0,
            "shared_side_reuses": 0,
            "pairs_memo_hits": 0,
            "columnar_firings": 0,
            "columnar_batches": 0,
            "columnar_fallbacks": 0,
        }
        self.result_cache = ResultCache(max_entries=result_cache_size)
        # When enabled, evaluation counters (index_probes / hash_joins /
        # cache_hits / rows_* ...) accumulate here across firings.
        self.collect_eval_stats = collect_eval_stats
        self.eval_stats: dict[str, int] = {}
        self.registry = ActionRegistry()
        self.activator = TriggerActivator(self.registry, strict=strict_actions)
        self._views: dict[str, ViewDefinition] = {}
        self._triggers: dict[str, TriggerSpec] = {}
        self._groups: dict[tuple, _CompiledGroup] = {}
        self._path_graphs: dict[tuple[str, tuple[str, ...]], PathGraph] = {}
        # Compiled-plan cache: (view, path, XML event, pushdown-option
        # fingerprint) -> per-table translations.  Trigger groups with the
        # same monitored path and options compile to identical plans, so
        # UNGROUPED populations (one group per trigger) and re-created
        # triggers skip the whole pushdown derivation after the first time.
        # A shared PlanCache extends the same sharing across services (the
        # per-shard services of an ActiveViewServer pass one cache here).
        # "plan_cache or PlanCache()" would discard an *empty* shared cache
        # (PlanCache defines __len__, so an empty one is falsy).
        self._plan_cache: PlanCache = plan_cache if plan_cache is not None else PlanCache()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Sublinear matching (repro.matching): per-group predicate indexes
        # select candidate constants rows in ~O(matching triggers).  The
        # linear scan stays available as the oracle (set
        # ``use_matching_indexes = False``); selections that cannot use an
        # index are counted in ``match_stats.fallbacks`` and surfaced through
        # :meth:`evaluation_report`.  The MatchPlanCache is shareable across
        # services exactly like the PlanCache ("is not None" for the same
        # empty-cache reason).
        self.use_matching_indexes = use_matching_indexes
        self._match_plan_cache: MatchPlanCache = (
            match_plan_cache if match_plan_cache is not None else MatchPlanCache()
        )
        self.match_stats = MatchStats()
        # Per-view prefix tries over monitored paths: (view, path) -> the
        # group signatures monitoring that path.  ``drop_view`` and the
        # :meth:`monitored_groups` diagnostic walk the trie instead of
        # scanning the registered-trigger population.
        self._monitored: dict[str, PathTrie] = {}
        self._fired: list[FiredTrigger] = []
        self._listeners: list[Callable[[FiredTrigger], None]] = []
        # DDL listeners observe registry changes (view registration, trigger
        # creation/drop) so the persistence layer can log them for registry
        # rehydration after a restart (see repro.persist).
        self._ddl_listeners: list[Callable[[str, Any], None]] = []
        self._sql_trigger_counter = 0
        self.last_compile_seconds = 0.0
        # Optional execution backend (repro.backends): mirrors the database
        # into an external engine (e.g. SQLite) and runs the generated
        # trigger statements there — the paper's Figure 16 architecture,
        # where the RDBMS executes the translated SQL.  Translations the
        # backend's dialect cannot express fall back to the in-memory
        # engines above, per translation; the fallbacks are surfaced through
        # :meth:`evaluation_report` so they can never go unnoticed.
        self.backend = None
        if backend is not None:
            from repro.backends.base import create_backend

            self.backend = create_backend(backend)
            self.backend.attach(database)
        # Backend plans cached by (plan key, table): like the PlanCache,
        # structurally identical trigger groups share one lowered statement.
        self._backend_plans: dict[tuple, Any] = {}
        self._backend_errors: dict[tuple, str] = {}

    # ------------------------------------------------------------------ registration

    def register_view(self, view: ViewDefinition) -> None:
        """Register an XML view definition (must be trigger-specifiable)."""
        if view.name in self._views:
            raise TriggerError(f"view {view.name!r} already registered")
        for table in view.base_tables():
            if not self.database.has_table(table):
                raise TriggerError(
                    f"view {view.name!r} references unknown table {table!r}"
                )
        self._views[view.name] = view
        self._emit_ddl("register_view", view.name)

    def drop_view(self, name: str) -> None:
        """Unregister a view, dropping its triggers and cached plans.

        Mirrors :meth:`~repro.relational.database.Database.drop_table`'s
        cascade: every XML trigger monitoring the view is dropped (their SQL
        triggers uninstall when the groups empty), the composed path graphs
        are forgotten, and the plan cache evicts every plan compiled for the
        view — so re-registering a changed view under the same name can never
        serve stale compiled plans.
        """
        if name not in self._views:
            raise TriggerError(f"unknown view {name!r}")
        # The monitored-path trie knows every group of this view; collecting
        # their members costs O(the view's triggers), not O(all triggers).
        doomed: list[str] = []
        trie = self._monitored.get(name)
        if trie is not None:
            for signature in trie.extensions_of(()):
                compiled = self._groups.get(signature)
                if compiled is not None:
                    doomed.extend(m.spec.name for m in compiled.group.members)
        for trigger_name in doomed:
            self.drop_trigger(trigger_name)
        self._monitored.pop(name, None)
        del self._views[name]
        self._path_graphs = {
            key: graph for key, graph in self._path_graphs.items() if key[0] != name
        }
        self._plan_cache.invalidate_view(name)
        # Cached subplan results of the dropped view's plans would never be
        # looked up again (recompiled plans carry fresh operator ids), but
        # dropping them now returns the memory immediately.  Backend plans
        # are keyed by the same (view, path, event, options) plan keys, so
        # the dropped view's lowered statements (and any recorded lowering
        # failures) are evicted alongside.
        self.result_cache.clear()
        self._backend_plans = {
            key: plan for key, plan in self._backend_plans.items() if key[0][0] != name
        }
        self._backend_errors = {
            key: error for key, error in self._backend_errors.items() if key[0][0] != name
        }
        self._emit_ddl("drop_view", name)

    def register_action(self, name: str, function: Callable[..., Any]) -> None:
        """Register an external action function callable from trigger actions."""
        self.registry.register(name, function)

    def add_activation_listener(self, listener: Callable[[FiredTrigger], None]) -> None:
        """Register a hook invoked with every :class:`FiredTrigger` as it fires.

        Listeners run synchronously on the executing thread, after the
        trigger's action function, **most recently registered first**.  The
        serving layer registers its fan-out when the server is built, so a
        listener added to a served service has seen a firing before any
        subscriber — in this process or across a socket — can receive it.
        Tests use listeners to observe firings without going through
        ``service.fired``.
        """
        self._listeners.insert(0, listener)

    def remove_activation_listener(self, listener: Callable[[FiredTrigger], None]) -> None:
        """Remove a previously registered activation listener (idempotent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def add_ddl_listener(self, listener: Callable[[str, Any], None]) -> None:
        """Register a hook observing registry DDL, for durability logging.

        The listener is called as ``listener(kind, payload)`` with
        ``("register_view", name)``, ``("drop_view", name)``,
        ``("create_trigger", TriggerSpec)``, and ``("drop_trigger", name)``
        events, in the order they commit.  :class:`repro.persist` appends
        these to a DDL log so the registry can be rehydrated after a restart.
        """
        self._ddl_listeners.append(listener)

    def remove_ddl_listener(self, listener: Callable[[str, Any], None]) -> None:
        """Remove a previously registered DDL listener (idempotent)."""
        try:
            self._ddl_listeners.remove(listener)
        except ValueError:
            pass

    def _emit_ddl(self, kind: str, payload: Any) -> None:
        for listener in self._ddl_listeners:
            listener(kind, payload)

    def view(self, name: str) -> ViewDefinition:
        """Look up a registered view."""
        try:
            return self._views[name]
        except KeyError:
            raise TriggerError(f"unknown view {name!r}") from None

    @property
    def views(self) -> list[str]:
        """Names of registered views."""
        return list(self._views)

    @property
    def triggers(self) -> list[TriggerSpec]:
        """All registered XML trigger specs."""
        return list(self._triggers.values())

    # ------------------------------------------------------------------ triggers

    def create_trigger(self, definition: str | TriggerSpec) -> TriggerSpec:
        """Create an XML trigger from ``CREATE TRIGGER`` text or a spec.

        Parsing, view composition, event pushdown, affected-node graph
        generation, grouping and pushdown all happen here (trigger *compile
        time*); the resulting SQL triggers are registered on the database.
        """
        started = time.perf_counter()
        spec = parse_trigger(definition) if isinstance(definition, str) else definition
        if spec.name in self._triggers:
            raise TriggerError(f"trigger {spec.name!r} already exists")
        self.view(spec.view)  # unknown views fail here, before any compilation

        signature = self._group_signature(spec)
        compiled = self._groups.get(signature)
        if compiled is None:
            group = TriggerGroup(spec.structural_signature())
            group.add(spec)
            compiled = self._compile_group(group, spec)
            self._groups[signature] = compiled
            self._note_group_added(signature, spec)
        else:
            member = compiled.group.add(spec)
            compiled.note_member_added(member)
        self._triggers[spec.name] = spec
        self.last_compile_seconds = time.perf_counter() - started
        compiled.compile_seconds += self.last_compile_seconds
        self._emit_ddl("create_trigger", spec)
        return spec

    def register_triggers_bulk(
        self, definitions: Iterable[str | TriggerSpec]
    ) -> list[TriggerSpec]:
        """Create a batch of XML triggers, building matching indexes once.

        Semantically equivalent to calling :meth:`create_trigger` per
        definition, but the per-group constants tables and matching indexes
        are invalidated once per *touched group* instead of once per trigger,
        so registering N structurally similar triggers costs one index build
        instead of N incremental ones.  The batch is validated up front —
        unknown views, duplicate names (against the registry *and* within the
        batch) and unspecifiable paths all fail before any trigger is
        installed — so a failed bulk registration leaves the service
        unchanged.
        """
        started = time.perf_counter()
        specs: list[TriggerSpec] = []
        batch_names: set[str] = set()
        for definition in definitions:
            spec = parse_trigger(definition) if isinstance(definition, str) else definition
            if spec.name in self._triggers or spec.name in batch_names:
                raise TriggerError(f"trigger {spec.name!r} already exists")
            batch_names.add(spec.name)
            self.view(spec.view)
            specs.append(spec)
        for spec in specs:
            # Dry-run the path-graph derivation (cached per (view, path)):
            # an unspecifiable monitored path aborts the whole batch here,
            # before any registration mutates the service.
            self._path_graph(spec)
        touched: dict[tuple, _CompiledGroup] = {}
        for spec in specs:
            signature = self._group_signature(spec)
            compiled = self._groups.get(signature)
            if compiled is None:
                group = TriggerGroup(spec.structural_signature())
                group.add(spec)
                compiled = self._compile_group(group, spec)
                self._groups[signature] = compiled
                self._note_group_added(signature, spec)
            else:
                compiled.group.add(spec)
                touched[signature] = compiled
            self._triggers[spec.name] = spec
            self._emit_ddl("create_trigger", spec)
        for compiled in touched.values():
            compiled.invalidate_constants()
        self.last_compile_seconds = time.perf_counter() - started
        return specs

    def drop_trigger(self, name: str) -> None:
        """Drop an XML trigger (and its SQL triggers when the group empties)."""
        spec = self._triggers.pop(name, None)
        if spec is None:
            raise TriggerError(f"no such trigger {name!r}")
        signature = self._group_signature(spec)
        compiled = self._groups.get(signature)
        if compiled is None:
            self._emit_ddl("drop_trigger", name)
            return
        constants_key = next(
            (m.constants_key for m in compiled.group.members if m.spec.name == name),
            None,
        )
        compiled.group.remove(name)
        if constants_key is not None:
            compiled.note_member_removed(name, constants_key)
        else:  # pragma: no cover - name absent from its own group
            compiled.invalidate_constants()
        if not compiled.group.members:
            for sql_name in compiled.sql_trigger_names:
                self.database.drop_trigger(sql_name)
            del self._groups[signature]
            self._note_group_removed(signature, spec)
        self._emit_ddl("drop_trigger", name)

    def generated_sql(self, trigger_name: str) -> list[str]:
        """The SQL text of the statement triggers generated for an XML trigger."""
        spec = self._triggers.get(trigger_name)
        if spec is None:
            raise TriggerError(f"no such trigger {trigger_name!r}")
        compiled = self._groups[self._group_signature(spec)]
        return [translation.sql_text for translation in compiled.translations.values()]

    def group_count(self) -> int:
        """Number of trigger groups (== number of generated SQL trigger sets)."""
        return len(self._groups)

    # ------------------------------------------------------------------ execution

    def execute(self, statement: Statement) -> StatementResult:
        """Execute a DML statement; SQL triggers fire and XML triggers activate."""
        mark = len(self._fired)
        result = self.database.execute(statement)
        result.fired_xml_triggers = [fired.trigger for fired in self._fired[mark:]]
        return result

    def execute_batch(
        self, statements: Batch | BulkLoad | Iterable[Statement | BulkLoad]
    ) -> BatchResult:
        """Execute a batch of DML statements set-at-a-time.

        The statements are applied through
        :meth:`~repro.relational.Database.execute_many`, so each generated SQL
        trigger fires once per (table, event) with the batch's *net*
        transition tables, and the (OLD_NODE, NEW_NODE) pairs are computed
        over the whole delta in a single evaluation of the pushed-down plan —
        the paper's set-oriented semantics extended across statements.  XML
        triggers activate at most **once per affected node per batch**
        (slices rediscovering the same net transition are deduplicated):
        OLD_NODE reconstructs the updated table's pre-batch contents (other
        tables are read post-batch, as in any AFTER trigger), NEW_NODE is the
        post-batch state, and intermediate states are never observed.
        """
        mark = len(self._fired)
        result = self.database.execute_many(statements)
        result.fired_xml_triggers = [fired.trigger for fired in self._fired[mark:]]
        return result

    def insert(self, table: str, rows) -> StatementResult:
        """Convenience INSERT through the service."""
        if isinstance(rows, Mapping):
            rows = [rows]
        from repro.relational.dml import InsertStatement

        return self.execute(InsertStatement(table, rows))

    def update(self, table: str, assignments, where=None) -> StatementResult:
        """Convenience UPDATE through the service."""
        from repro.relational.dml import UpdateStatement

        return self.execute(UpdateStatement(table, assignments, where))

    def delete(self, table: str, where=None) -> StatementResult:
        """Convenience DELETE through the service."""
        from repro.relational.dml import DeleteStatement

        return self.execute(DeleteStatement(table, where))

    # ------------------------------------------------------------------ results

    @property
    def fired(self) -> list[FiredTrigger]:
        """Every XML trigger firing observed so far (most recent last)."""
        return self._fired

    @property
    def action_calls(self) -> list[ActionCall]:
        """Every action invocation performed so far."""
        return self.activator.call_log

    def clear_logs(self) -> None:
        """Forget recorded firings and action calls (used between benchmark runs)."""
        self._fired.clear()
        self.activator.reset_log()

    def close(self) -> None:
        """Release the execution backend, if any (idempotent).

        The backend subscribes to the database's commit listeners at
        construction; a service that is being discarded while its database
        lives on must be closed, or the orphaned mirror would keep replaying
        every subsequent commit.  Services without a backend need no
        teardown (``close`` is then a no-op).
        """
        if self.backend is not None:
            self.backend.close()
            self.backend = None
            self._backend_plans.clear()
            self._backend_errors.clear()

    def evaluation_report(self) -> dict[str, int]:
        """Evaluation counters plus result-cache statistics.

        The ``index_probes`` / ``hash_joins`` / ``cache_hits`` / ``rows_*``
        counters accumulate only when the service was created with
        ``collect_eval_stats=True``; the ``result_cache_*`` entries and
        ``compiled_plan_fallbacks`` (translations whose physical lowering
        failed and run on the interpreter — expected to be zero) are always
        maintained, as are the ``matching_*`` counters of the sublinear
        matching engine (``matching_fallbacks`` counts candidate selections
        that had to scan linearly because a condition has no indexable atom
        — the equivalence suites assert it stays zero on indexable
        populations).

        Statement-level sharing is always counted too:
        ``shared_side_evaluations`` is how many times a shared OLD/NEW node
        side (or affected-key union) was actually computed,
        ``shared_side_reuses`` how many times a sibling trigger group or
        event translation of the same statement read one back, and
        ``pairs_memo_hits`` how many firings returned a translation's pairs
        without entering the engine at all.  One statement never evaluates
        more sides than its ``(path, table)`` has registered.

        The ``columnar_*`` counters are likewise always maintained:
        ``columnar_firings`` / ``columnar_batches`` count firings served by
        the columnar engine (pairs-memo hits included) and the column
        batches they materialized;
        ``columnar_fallbacks`` counts firings that degraded to the row
        engines because a translation has no columnar lowering, and
        ``columnar_plan_errors`` the currently-installed translations in that
        state — both expected to be zero, and asserted zero by the columnar
        equivalence suite so unlowerable operators can never pass silently.
        """
        report = dict(self.eval_stats)
        for key, value in self.result_cache.stats().items():
            report[f"result_cache_{key}"] = value
        for key, value in self.match_stats.as_dict().items():
            report[f"matching_{key}"] = value
        report["compiled_plan_fallbacks"] = sum(
            1
            for compiled in self._groups.values()
            for translation in compiled.translations.values()
            if translation.physical_plan is None
        )
        report.update(self.engine_stats)
        report["columnar_plan_errors"] = sum(
            1
            for compiled in self._groups.values()
            for translation in compiled.translations.values()
            if translation.columnar_plan is None
        )
        if self.backend is not None:
            report["backend_plans"] = len(self._backend_plans)
            report["backend_lowering_fallbacks"] = len(self._backend_errors)
            report["backend_statements"] = getattr(
                self.backend, "statements_executed", 0
            )
        return report

    def backend_lowering_errors(self) -> dict[tuple, str]:
        """Per-(plan key, table) lowering errors of the execution backend.

        Non-empty means some translations run on the in-memory fallback
        engines instead of the backend; the property suite asserts this is
        empty so backend equivalence can never pass vacuously.
        """
        return dict(self._backend_errors)

    # ------------------------------------------------------------------ internals

    def _group_signature(self, spec: TriggerSpec) -> tuple:
        if self.mode is ExecutionMode.UNGROUPED:
            # No sharing: every trigger is its own group (its own SQL triggers).
            return ("__ungrouped__", spec.name)
        return spec.structural_signature()

    def _note_group_added(self, signature: tuple, spec: TriggerSpec) -> None:
        trie = self._monitored.get(spec.view)
        if trie is None:
            trie = PathTrie()
            self._monitored[spec.view] = trie
        trie.add(spec.path, signature)

    def _note_group_removed(self, signature: tuple, spec: TriggerSpec) -> None:
        trie = self._monitored.get(spec.view)
        if trie is not None:
            trie.discard(spec.path, signature)
            if not len(trie):
                del self._monitored[spec.view]

    def monitored_groups(
        self, view: str, path: tuple[str, ...] = (), *, descendants: bool = True
    ) -> list[tuple]:
        """Group signatures monitoring ``path`` of ``view`` (trie lookup).

        With ``descendants`` (the default) the result covers the whole
        subtree under ``path`` — ``monitored_groups(view)`` lists every group
        of the view; without it, only groups at exactly ``path``.  Cost is
        the path length plus the matches, independent of how many triggers
        are registered.
        """
        trie = self._monitored.get(view)
        if trie is None:
            return []
        return trie.extensions_of(path) if descendants else trie.exact(path)

    def _path_graph(self, spec: TriggerSpec) -> PathGraph:
        key = (spec.view, spec.path)
        graph = self._path_graphs.get(key)
        if graph is None:
            view = self.view(spec.view)
            graph = view.path_graph(spec.path, self.database)
            check_trigger_specifiable(graph.top, self.database)
            self._path_graphs[key] = graph
            if self.create_indexes:
                self._create_join_indexes(view)
        return graph

    def _create_join_indexes(self, view: ViewDefinition) -> None:
        """Build hash indexes on foreign-key join columns (Section 6.1 setup)."""
        for table_name in view.base_tables():
            table = self.database.table(table_name)
            for fk in table.schema.foreign_keys:
                if not table.has_index_on(fk.columns):
                    table.create_index(f"fk_{table_name}_{'_'.join(fk.columns)}", fk.columns)

    def _pushdown_options(self, group: TriggerGroup) -> PushdownOptions:
        requirement = OldNodeRequirement.NONE
        for member in group.members:
            if member.spec.references_old_node_content():
                requirement = OldNodeRequirement.FULL
                break
            if member.spec.references_old_node():
                requirement = OldNodeRequirement.SHALLOW
        return PushdownOptions(
            push_affected_keys=self.push_affected_keys,
            use_pruned_transitions=self.use_pruned_transitions,
            compensate_old_aggregates=(self.mode is ExecutionMode.GROUPED_AGG),
            old_node_requirement=requirement,
        )

    def _compile_group(self, group: TriggerGroup, spec: TriggerSpec) -> _CompiledGroup:
        path_graph = self._path_graph(spec)
        options = self._pushdown_options(group)
        plan_key = (spec.view, spec.path, spec.event, options.cache_key())
        translations, was_hit = self._plan_cache.get_or_compile(
            plan_key,
            lambda: translate_path(
                path_graph,
                spec.event,
                self.database,
                options,
                trigger_name=spec.name,
                shared_sides=self._plan_cache.shared_sides,
            ),
        )
        if was_hit:
            # Structurally identical plan already derived (possibly for a
            # different group — e.g. every UNGROUPED trigger of a Figure 17
            # population, or the same trigger compiled on a sibling shard
            # service sharing this cache); the rendered SQL keeps the first
            # trigger's name.
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        condition = group.parameterized_condition()
        compiled = _CompiledGroup(
            group=group,
            translations=translations,
            condition=condition,
            arguments=group.parameterized_arguments(),
            match_plan=(
                None
                if condition is None
                else self._match_plan_cache.get_or_analyze(condition)
            ),
        )
        backend_plans = self._prepare_backend_plans(plan_key, translations)
        for table, translation in translations.items():
            self._sql_trigger_counter += 1
            sql_name = f"sqlTrigger{self._sql_trigger_counter}_{table}"
            trigger = StatementTrigger(
                name=sql_name,
                table=table,
                events=translation.sql_events,
                body=self._make_trigger_body(
                    compiled, translation, backend_plans.get(table)
                ),
                sql_text=translation.sql_text,
                metadata={
                    "xml_trigger_group": group.signature,
                    "mode": self.mode.value,
                    "uses_compensation": translation.uses_compensation,
                },
            )
            self.database.register_trigger(trigger)
            compiled.sql_trigger_names.append(sql_name)
        return compiled

    def _prepare_backend_plans(
        self, plan_key: tuple, translations: dict[str, CompiledTableTrigger]
    ) -> dict[str, Any]:
        """Lower the group's translations on the execution backend, if any.

        Prepared statements are cached by ``(plan key, table)`` — mirroring
        the :class:`PlanCache` sharing — and a translation whose lowering
        fails is recorded once and permanently served by the in-memory
        engines instead (the fallback count is in :meth:`evaluation_report`).
        """
        if self.backend is None:
            return {}
        from repro.backends.base import BackendLoweringError

        plans: dict[str, Any] = {}
        for table, translation in translations.items():
            cache_key = (plan_key, table)
            if cache_key in self._backend_errors:
                continue
            plan = self._backend_plans.get(cache_key)
            if plan is None:
                try:
                    plan = self.backend.prepare(translation)
                except BackendLoweringError as error:
                    self._backend_errors[cache_key] = str(error)
                    continue
                self._backend_plans[cache_key] = plan
            plans[table] = plan
        return plans

    def _make_trigger_body(
        self,
        compiled: _CompiledGroup,
        translation: CompiledTableTrigger,
        backend_plan: Any = None,
    ) -> Callable[[TriggerContext], None]:
        def body(context: TriggerContext) -> None:
            # self.backend is re-read per firing: after close() the in-memory
            # engines take over (the mirror is gone).
            if backend_plan is not None and self.backend is not None:
                # Figure 16 for real: the lowered statement runs inside the
                # backend engine against its mirrored tables (the commit
                # listener updated them before this trigger fired).
                pairs = self.backend.affected_pairs(backend_plan, context)
            else:
                pairs = translation.affected_pairs(
                    self.database,
                    context,
                    use_compiled=self.use_compiled_plans,
                    use_columnar=self.use_columnar,
                    result_cache=self.result_cache,
                    stats=self.eval_stats if self.collect_eval_stats else None,
                    engine_stats=self.engine_stats,
                )
            if not pairs:
                return
            self._activate_group(
                compiled,
                translation,
                pairs,
                batch_seen=context.batch_seen,
                probe_cache=context.probe_cache,
            )

        return body

    def _activate_group(
        self,
        compiled: _CompiledGroup,
        translation: CompiledTableTrigger,
        pairs,
        batch_seen: set | None = None,
        probe_cache: dict | None = None,
    ) -> None:
        # The registry itself is the name -> spec index: trigger names are
        # globally unique, and a concurrently dropped trigger is absent from
        # it (the per-activation guard below).  Building a per-group dict
        # here would cost O(group size) per firing.
        spec_by_name = self._triggers
        condition = compiled.condition
        arguments = compiled.arguments
        matcher = compiled.matcher() if self.use_matching_indexes else None
        constants_rows = compiled.constants_rows() if matcher is None else []
        stats = self.match_stats
        for pair in pairs:
            variables = {"OLD_NODE": pair.old_node, "NEW_NODE": pair.new_node}
            if matcher is not None:
                rows, check_condition = matcher.candidates(
                    variables, stats, shared_probe_cache=probe_cache
                )
            else:
                rows, check_condition = constants_rows, condition is not None
            for row in rows:
                if check_condition and condition is not None and not condition.as_boolean(
                    variables, parameters=row.condition_constants
                ):
                    continue
                for trigger_name in row.trigger_names:
                    spec = spec_by_name.get(trigger_name)
                    if spec is None:  # dropped concurrently
                        continue
                    if batch_seen is not None:
                        # A node undergoes at most one net transition per
                        # batch; a second slice rediscovering it is a dup.
                        # The set lives on the batch's TriggerContext, so
                        # direct Database.execute_many calls dedupe too.
                        seen_key = (spec.name, spec.event.value, pair.key)
                        if seen_key in batch_seen:
                            continue
                        batch_seen.add(seen_key)
                    call = self.activator.activate(
                        spec,
                        pair.old_node,
                        pair.new_node,
                        key=pair.key,
                        compiled_args=arguments,
                        argument_parameters=row.argument_constants,
                    )
                    fired = FiredTrigger(
                        trigger=spec.name,
                        view=spec.view,
                        path=spec.path,
                        event=spec.event,
                        key=pair.key,
                        old_node=pair.old_node,
                        new_node=pair.new_node,
                        action_call=call,
                        encoded=pair.encoded,
                    )
                    self._fired.append(fired)
                    for listener in self._listeners:
                        listener(fired)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ActiveViewService(mode={self.mode.value}, views={len(self._views)}, "
            f"triggers={len(self._triggers)}, groups={len(self._groups)})"
        )
