"""Tests for the Table-2 workload generator and the experiment harness."""

import pytest

from repro.core.service import ExecutionMode
from repro.errors import WorkloadError
from repro.workloads import ExperimentHarness, HierarchyWorkload, PAPER_DEFAULTS, WorkloadParameters


SMALL = WorkloadParameters(
    leaf_tuples=512, fanout=16, num_triggers=20, satisfied_triggers=4, seed=7
)


class TestParameters:
    def test_paper_defaults_match_table_2(self):
        assert PAPER_DEFAULTS.depth == 2
        assert PAPER_DEFAULTS.leaf_tuples == 128_000
        assert PAPER_DEFAULTS.fanout == 64
        assert PAPER_DEFAULTS.num_triggers == 10_000
        assert PAPER_DEFAULTS.satisfied_triggers == 20

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(depth=1)
        with pytest.raises(WorkloadError):
            WorkloadParameters(num_triggers=1, satisfied_triggers=5)
        with pytest.raises(WorkloadError):
            WorkloadParameters(leaf_tuples=10, fanout=20)

    def test_scaling(self):
        scaled = PAPER_DEFAULTS.with_(scale=0.01)
        assert scaled.effective_leaf_tuples == 1280
        assert scaled.effective_num_triggers == 100
        assert scaled.effective_satisfied == 20

    def test_top_elements(self):
        assert SMALL.top_elements == 512 // 16


class TestGenerator:
    def test_database_shape_depth_2(self):
        workload = HierarchyWorkload(SMALL)
        db = workload.build_database()
        assert db.row_count("top") == SMALL.top_elements
        assert db.row_count("leaf") == SMALL.effective_leaf_tuples
        assert db.table("leaf").has_index_on(["parent_id"])

    def test_database_shape_depth_4(self):
        params = SMALL.with_(depth=4)
        workload = HierarchyWorkload(params)
        db = workload.build_database()
        counts = workload.nodes_per_level()
        assert db.row_count("top") == counts[0]
        assert db.row_count("mid1") == counts[1]
        assert db.row_count("mid2") == counts[2]
        assert db.row_count("leaf") == counts[3]
        # Every top element still contains roughly `fanout` leaves.
        assert counts[3] // counts[0] == workload.leaves_per_lowest_parent * 4

    def test_view_materializes_with_expected_top_elements(self):
        workload = HierarchyWorkload(SMALL)
        db = workload.build_database()
        view = workload.build_view()
        doc = view.materialize(db)
        tops = doc.child_elements("topelem")
        assert len(tops) == SMALL.top_elements
        # Each top element contains `fanout` leaf descendants.
        first = tops[0]
        leaves = [n for n in first.iter_descendants() if getattr(n, "name", None) == "leafelem"]
        assert len(leaves) == SMALL.fanout

    def test_trigger_definitions_constants(self):
        workload = HierarchyWorkload(SMALL)
        definitions = workload.trigger_definitions()
        assert len(definitions) == SMALL.effective_num_triggers
        satisfied = [d for d in definitions if f"'{workload.target_top_name}'" in d]
        assert len(satisfied) == SMALL.effective_satisfied

    def test_update_statements_target_the_designated_element(self):
        workload = HierarchyWorkload(SMALL)
        db = workload.build_database()
        statements = workload.update_statements(5, db)
        assert len(statements) == 5
        leaf_ids = set(workload.leaf_ids_under_target(db))
        for statement in statements:
            assert {key[0] for key in statement.keys} <= leaf_ids

    def test_insert_and_delete_statements(self):
        workload = HierarchyWorkload(SMALL)
        db = workload.build_database()
        inserts = workload.insert_statements(2, db)
        deletes = workload.delete_statements(2, db)
        assert len(inserts) == 2 and len(deletes) == 2
        db.execute(inserts[0])
        db.execute(deletes[0])


class TestHarness:
    def test_end_to_end_setup_and_measure(self):
        harness = ExperimentHarness(SMALL, updates=3)
        setup = harness.build_setup(SMALL, ExecutionMode.GROUPED_AGG)
        avg_seconds, fired = harness.measure(setup)
        assert avg_seconds > 0
        assert fired == SMALL.effective_satisfied
        assert len(setup.collected) == 3 * SMALL.effective_satisfied

    def test_materialized_baseline_setup_agrees_on_firings(self):
        harness = ExperimentHarness(SMALL, updates=2)
        translated = harness.build_setup(SMALL, ExecutionMode.GROUPED)
        materialized = harness.build_setup(SMALL, harness.MATERIALIZED)
        statements = translated.workload.update_statements(2, translated.database)
        _, fired_translated = harness.measure(translated, statements)
        statements2 = materialized.workload.update_statements(2, materialized.database)
        _, fired_materialized = harness.measure(materialized, statements2)
        assert fired_translated == fired_materialized == SMALL.effective_satisfied

    def test_compile_time_reports_milliseconds(self):
        harness = ExperimentHarness(SMALL, updates=1)
        report = harness.compile_time(trigger_count=3)
        assert report["triggers_compiled"] == 3
        assert report["avg_compile_ms"] > 0
