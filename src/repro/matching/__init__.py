"""Sublinear trigger matching (beyond Figure 17).

The paper's grouping (Section 5.1) shares *evaluation*: one generated SQL
trigger serves every structurally similar XML trigger, driven by a constants
table.  But the runtime still probed that constants table linearly — one
parameterized condition evaluation per registered constant set per affected
node — and the relational layer scanned every registered SQL trigger per
statement.  Both costs are linear in the registered population, which caps
the system near the paper's 10^5-trigger measurements.

This package removes both linear scans, the same leap NiagaraCQ-style
grouping and scalable trigger processing (TriggerMan) made for
continuous-query systems:

* :mod:`repro.matching.indexes` — the index structures: a hash index over
  equality constants, an interval tree over range-predicate constants, and
  a path-prefix trie over monitored view paths;
* :mod:`repro.matching.predicates` — compile-time analysis of a group's
  parameterized condition into indexable predicate atoms;
* :mod:`repro.matching.engine` — the per-group :class:`GroupMatcher` that
  turns an affected (OLD_NODE, NEW_NODE) pair into its matching constants
  rows in ~O(matching triggers), with the linear scan retained as the
  oracle/fallback engine (exactly the interpreter-vs-compiled and
  in-memory-vs-sqlite pattern of the earlier engines).

Wiring lives in :class:`repro.core.service.ActiveViewService`
(``use_matching_indexes=True`` by default; per-group indexes maintained on
``create_trigger`` / ``drop_trigger`` / ``drop_view`` and rebuilt after
``invalidate_constants``), and every candidate-selection that cannot use an
index is counted and surfaced through ``evaluation_report()`` — a fallback
can never go unnoticed.
"""

from repro.matching.engine import MATCH_COUNTERS, GroupMatcher, MatchStats
from repro.matching.indexes import EqualityHashIndex, IntervalTree, PathTrie, constant_key
from repro.matching.predicates import MatchPlan, ProbeAtom, analyze_condition

__all__ = [
    "EqualityHashIndex",
    "IntervalTree",
    "PathTrie",
    "constant_key",
    "MatchPlan",
    "ProbeAtom",
    "analyze_condition",
    "GroupMatcher",
    "MATCH_COUNTERS",
    "MatchStats",
]
