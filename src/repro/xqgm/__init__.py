"""XQGM — the XML Query Graph Model (Section 2.1 of the paper).

XQGM is the intermediate representation used by XPERANTO/Quark to represent
XQuery views and queries: a DAG of operators (Table, Select, Project, Join,
GroupBy, Union, Unnest) whose tuples carry XML nodes and scalar values, with
XML-construction functions embedded in operators (Table 1 of the paper).

This package provides:

* the operator classes and tuple-level expression language
  (:mod:`repro.xqgm.operators`, :mod:`repro.xqgm.expressions`);
* canonical-key derivation per Appendix A / Table 3 (:mod:`repro.xqgm.keys`);
* an evaluator that runs an XQGM graph against the relational database,
  including the ``B_old`` / ``ΔB`` / ``∇B`` table variants the trigger
  translation needs (:mod:`repro.xqgm.evaluate`);
* a hierarchical view builder that constructs XQGM graphs like Figure 5 of
  the paper from a declarative nesting spec (:mod:`repro.xqgm.views`);
* graph utilities: cloning with shared-subgraph preservation, table-variant
  substitution, column propagation (:mod:`repro.xqgm.graph`);
* a one-time lowering of logical graphs into compiled physical plans — slot
  tuples, closure expressions, statement-shared subplans, and a
  version-stamped cross-statement result cache (:mod:`repro.xqgm.physical`;
  see ``docs/performance.md``);
* a batch-oriented columnar lowering of the same graphs — column batches
  with shared selections, vectorized predicate masks, bulk hash joins and
  sort-clustered grouped aggregation (:mod:`repro.xqgm.columnar`), reusing
  the physical engine's compiler, stability classes and row-major result
  cache.
"""

from repro.xqgm.expressions import (
    AggregateSpec,
    Arithmetic,
    AttributeSpec,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Constant,
    ElementConstructor,
    Expression,
    IsNull,
    Parameter,
)
from repro.xqgm.operators import (
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
from repro.xqgm.keys import derive_keys, operator_key
from repro.xqgm.graph import clone_graph, ensure_columns, replace_table_variant, walk
from repro.xqgm.evaluate import EvaluationContext, evaluate
from repro.xqgm.physical import (
    PhysicalPlan,
    PlanCompiler,
    ResultCache,
    SlotLayout,
    compile_plan,
)
from repro.xqgm.columnar import (
    ColumnBatch,
    ColumnarCompiler,
    ColumnarPlan,
    compile_columnar_plan,
)
from repro.xqgm.views import PathGraph, ViewDefinition, ViewElementSpec

__all__ = [
    "AggregateSpec",
    "Arithmetic",
    "AttributeSpec",
    "BooleanExpr",
    "ColumnBatch",
    "ColumnRef",
    "ColumnarCompiler",
    "ColumnarPlan",
    "Comparison",
    "Constant",
    "ElementConstructor",
    "EvaluationContext",
    "Expression",
    "GroupByOp",
    "IsNull",
    "JoinKind",
    "JoinOp",
    "Operator",
    "Parameter",
    "PathGraph",
    "PhysicalPlan",
    "PlanCompiler",
    "ProjectOp",
    "ResultCache",
    "SelectOp",
    "SlotLayout",
    "TableOp",
    "TableVariant",
    "UnionOp",
    "UnnestOp",
    "ViewDefinition",
    "ViewElementSpec",
    "clone_graph",
    "compile_columnar_plan",
    "compile_plan",
    "derive_keys",
    "ensure_columns",
    "evaluate",
    "operator_key",
    "replace_table_variant",
    "walk",
]
