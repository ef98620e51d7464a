"""The server's shared ``PlanCache`` holds plans, never a shard's data.

One :class:`~repro.core.service.PlanCache` serves every shard service of an
:class:`ActiveViewServer`: compiled plans keep table *schemas* and receive
the database at evaluation time.  A cached plan that kept a reference to the
shard it was first compiled on would pin that shard's rows for the life of
the server (and hand them to the others).  This walks the object graph
behind the cache and asserts that no ``Database`` is reachable from it.
"""

from __future__ import annotations

import gc
import sys
import types

from repro.relational.database import Database
from repro.relational.sharded import ShardedDatabase
from repro.serving import ActiveViewServer
from repro.workloads import HierarchyWorkload, WorkloadParameters
from repro.xqgm.physical import PhysicalPlan

PARAMETERS = WorkloadParameters(
    depth=3, leaf_tuples=256, fanout=8, num_triggers=12, satisfied_triggers=3, seed=5,
)


def reachable(root: object) -> list[object]:
    """Every object reachable from ``root``, except through modules, classes
    and module globals (those reach everything loaded)."""
    module_globals = {id(vars(module)) for module in list(sys.modules.values()) if module}
    seen = {id(root)}
    stack = [root]
    found: list[object] = []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or id(ref) in module_globals:
                continue
            if isinstance(ref, (types.ModuleType, type)):
                continue
            seen.add(id(ref))
            stack.append(ref)
            found.append(ref)
    return found


def test_shared_plan_cache_reaches_no_shard_database():
    workload = HierarchyWorkload(PARAMETERS)
    server = ActiveViewServer(workload.build_sharded_database(2))
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    view = PARAMETERS.view_name
    top = workload.level_element(0)
    server.register_triggers_bulk(
        [
            *workload.trigger_definitions(),
            f"CREATE TRIGGER added AFTER INSERT ON view('{view}')/{top} DO collect(NEW_NODE)",
            f"CREATE TRIGGER removed AFTER DELETE ON view('{view}')/{top} DO collect(OLD_NODE)",
        ]
    )
    assert len(server.plan_cache) >= 3

    from_cache = reachable(server.plan_cache)
    assert any(isinstance(obj, PhysicalPlan) for obj in from_cache)
    assert [obj for obj in from_cache if isinstance(obj, (Database, ShardedDatabase))] == []

    # The walk does find a shard where one is referenced.
    shard = server.services[0].database
    assert any(obj is shard for obj in reachable(server.services[0]))
