"""Golden-file tests for the Figure 16 SQL rendering (both dialects).

The generated statement-level triggers for the paper's running example (the
catalog view of Figures 3-5, monitored path ``/product``) are rendered with
:func:`repro.core.sqlgen.render_sql_trigger` and compared against
checked-in golden files:

* ``*.readable.sql`` — the DB2-flavored Figure 16 reproduction
  (``XMLELEMENT`` / ``XMLAGG``, ``INSERTED`` / ``DELETED`` transition
  tables);
* ``*.sqlite.sql`` — the executable SQLite dialect (JSON node construction,
  per-firing transition temp tables, ``B_old`` reconstructed by primary
  key) that :mod:`repro.backends.sqlite` actually runs.

Affected-key columns embed global operator ids (``...#ak<id>``) that shift
with import order and the process hash seed, so both the rendered text and
the goldens are *canonicalized* before comparison: each distinct id is
renumbered by first appearance.  Everything else — structure, CTE names,
expressions — must match byte for byte.

To regenerate after an intentional emitter change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/core/test_sqlgen_golden.py
"""

from __future__ import annotations

import os
import pathlib
import re

import pytest

from repro.core.affected_nodes import NEW_NODE, OLD_NODE
from repro.core.pushdown import PushdownOptions, translate_path
from repro.core.sqlgen import render_sql_trigger
from repro.relational.triggers import TriggerEvent
from repro.xqgm.views import catalog_view

from tests.conftest import build_paper_database

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: Tokens that embed a global operator id (column suffixes and the CTE
#: labels derived from them).
_OP_ID = re.compile(r"(#ak|ak_join_group_|ak_groups__|ak_group_keys__)(\d+)")


def _canonicalize(text: str) -> str:
    """Renumber operator-id tokens by first appearance (1, 2, 3, ...)."""
    mapping: dict[str, str] = {}

    def replace(match: re.Match) -> str:
        original = match.group(2)
        canonical = mapping.setdefault(original, str(len(mapping) + 1))
        return match.group(1) + canonical

    return _OP_ID.sub(replace, text)


def _render(event: TriggerEvent, dialect: str) -> str:
    database = build_paper_database()
    view = catalog_view()
    path_graph = view.path_graph("/product", database)
    translations = translate_path(path_graph, event, database, PushdownOptions())
    translation = translations["vendor"]
    catalog = {name: database.schema(name) for name in database.table_names()}
    return render_sql_trigger(
        name=f"sql_PaperTrigger_vendor_{event.value.lower()}",
        table="vendor",
        events=translation.relational_events.keys(),
        top=translation.executable_top,
        final_columns=[OLD_NODE, NEW_NODE, *translation.key_columns],
        order_by=list(translation.key_columns),
        action_comment="translated from XML trigger(s) on path view('catalog')/product",
        dialect=dialect,
        catalog=catalog,
    )


def _check(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    canonical = _canonicalize(text)
    if _UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(canonical + "\n", encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    golden = _canonicalize(path.read_text(encoding="utf-8"))
    assert canonical + "\n" == golden, (
        f"{path.name} drifted from the rendered SQL; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


@pytest.mark.parametrize("event", [TriggerEvent.UPDATE, TriggerEvent.INSERT, TriggerEvent.DELETE])
@pytest.mark.parametrize("dialect", ["readable", "sqlite"])
def test_figure16_rendering_matches_golden(event, dialect):
    text = _render(event, dialect)
    _check(f"fig16_vendor_{event.value.lower()}.{dialect}.sql", text)


def test_readable_goldens_keep_figure16_shape():
    """Structural pins on the checked-in readable goldens themselves, so a
    regeneration cannot silently drop the Figure 16 landmarks."""
    text = (GOLDEN_DIR / "fig16_vendor_update.readable.sql").read_text(encoding="utf-8")
    assert "REFERENCING OLD_TABLE AS DELETED, NEW_TABLE AS INSERTED" in text
    assert "FOR EACH STATEMENT" in text
    assert "XMLELEMENT(" in text and "XMLAGG(" in text
    assert "SELECT * FROM INSERTED EXCEPT ALL SELECT * FROM DELETED" in text
    # B_old reconstruction: (B EXCEPT ΔB) UNION ∇B
    assert "EXCEPT SELECT * FROM INSERTED UNION SELECT * FROM DELETED" in text


def test_sqlite_goldens_keep_executable_shape():
    text = (GOLDEN_DIR / "fig16_vendor_update.sqlite.sql").read_text(encoding="utf-8")
    assert "json_array('e'" in text and "json_group_array" in text
    assert "__trg_vendor_pruned_inserted" in text
    # NULL-safe equi joins and the by-primary-key B_old reconstruction.
    assert " IS " in text
    assert 'NOT IN (SELECT "vid", "pid" FROM "__trg_vendor_delta_inserted")' in text
    # No DB2 SQL/XML functions may leak into the executable dialect.
    assert "XMLELEMENT" not in text and "XMLAGG" not in text


def test_sqlite_golden_statements_actually_compile():
    """The executable dialect's goldens are real SQL: SQLite compiles them.

    This is what separates the two dialects — the readable rendering is for
    humans, the sqlite rendering must prepare on a live connection (with the
    mirror schema and transition temp tables in place).
    """
    import sqlite3

    from repro.backends.sqlite import SqliteBackend

    database = build_paper_database()
    backend = SqliteBackend()
    backend.attach(database)
    backend._ensure_transition_tables("vendor")
    for event in (TriggerEvent.UPDATE, TriggerEvent.INSERT, TriggerEvent.DELETE):
        text = _render(event, "sqlite")
        statement = "\n".join(
            line for line in text.splitlines() if not line.startswith("--")
        )
        try:
            backend._conn.execute("EXPLAIN " + statement)
        except sqlite3.Error as error:  # pragma: no cover - failure reporting
            pytest.fail(f"{event.value} statement does not compile: {error}")
    backend.close()
