"""The CI support tools are code too: pin their contracts.

Covers the scripts the workflow leans on:

* ``tools/check_flakes.py`` — failures replayed once under the printed
  seed must be classified "fails deterministically" vs "flaked", the
  report written either way, and the build failed either way;
* ``tools/ci_paths.py`` — diff classification for the docs and e2e-gate
  jobs, including the comment-only-src-change skip;
* ``tools/check_docs.py`` — every repository path the docs and docstrings
  name must exist.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_flakes = load_tool("check_flakes")
check_docs = load_tool("check_docs")


class TestCheckFlakesUnits:
    def test_parse_seed(self):
        header = "REPRO_TEST_SEED=424242 (export to reproduce)\n1 passed\n"
        assert check_flakes.parse_seed(header) == "424242"
        assert check_flakes.parse_seed("no seed here") is None

    def test_parse_failures(self):
        output = textwrap.dedent("""\
            =========== short test summary info ===========
            FAILED tests/test_a.py::test_one - AssertionError
            ERROR tests/test_b.py::test_two - RuntimeError
            FAILED tests/test_a.py::test_one - AssertionError
            1 failed, 1 error in 0.10s
        """)
        assert check_flakes.parse_failures(output) == [
            "tests/test_a.py::test_one",
            "tests/test_b.py::test_two",
        ]

    def test_classify_partitions_by_rerun_outcome(self):
        verdicts = check_flakes.classify(
            ["t.py::deterministic", "t.py::flaky"],
            ["t.py::deterministic"],
        )
        assert verdicts == [
            {"nodeid": "t.py::deterministic",
             "outcome": "fails deterministically"},
            {"nodeid": "t.py::flaky", "outcome": "flaked"},
        ]


def run_check_flakes(tmp_path: pathlib.Path, *pytest_args: str):
    report = tmp_path / "flake-report.json"
    process = subprocess.run(
        [sys.executable, str(TOOLS / "check_flakes.py"),
         "--report", str(report), *pytest_args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    payload = json.loads(report.read_text()) if report.exists() else None
    return process, payload


@pytest.fixture
def suite_dir(tmp_path: pathlib.Path) -> pathlib.Path:
    # A self-contained mini-suite: its conftest prints a seed header the
    # tool must parse and pin for the rerun; the flaky test passes exactly
    # on its second run (marker file), the broken one never does.
    (tmp_path / "conftest.py").write_text(textwrap.dedent("""\
        def pytest_report_header(config):
            return "REPRO_TEST_SEED=777 (export to reproduce)"
    """))
    (tmp_path / "test_mini.py").write_text(textwrap.dedent("""\
        import os
        import pathlib


        def test_always_passes():
            assert True


        def test_flaky_passes_on_rerun():
            marker = pathlib.Path(__file__).parent / "ran_once"
            first_run = not marker.exists()
            marker.write_text("x")
            assert not first_run, "first run fails; identical rerun passes"
            assert os.environ.get("REPRO_TEST_SEED") == "777", \\
                "the rerun must pin the printed seed"


        def test_fails_deterministically():
            assert 1 == 2
    """))
    return tmp_path


class TestCheckFlakesEndToEnd:
    def test_clean_run(self, tmp_path: pathlib.Path):
        (tmp_path / "test_ok.py").write_text("def test_ok():\n    assert True\n")
        process, payload = run_check_flakes(tmp_path, "test_ok.py")
        assert process.returncode == 0, process.stdout
        assert payload["verdict"] == "clean"
        assert payload["tests"] == []

    def test_failures_are_replayed_and_classified(self, suite_dir):
        process, payload = run_check_flakes(suite_dir, "test_mini.py")
        # The build fails even though one failure turned out to be a flake.
        assert process.returncode == 1, process.stdout
        assert payload["verdict"] == "flaky"
        assert payload["seed"] == "777"
        outcomes = {t["nodeid"].split("::")[-1]: t["outcome"]
                    for t in payload["tests"]}
        assert outcomes == {
            "test_flaky_passes_on_rerun": "flaked",
            "test_fails_deterministically": "fails deterministically",
        }
        assert "flaked" in process.stdout

    def test_deterministic_only_failure(self, tmp_path: pathlib.Path):
        (tmp_path / "test_broken.py").write_text(
            "def test_broken():\n    assert False\n"
        )
        process, payload = run_check_flakes(tmp_path, "test_broken.py")
        assert process.returncode == 1
        assert payload["verdict"] == "deterministic"
        assert payload["tests"][0]["outcome"] == "fails deterministically"


def git(cwd: pathlib.Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.email=ci@test", "-c", "user.name=ci", *args],
        cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture
def diff_repo(tmp_path: pathlib.Path) -> pathlib.Path:
    repo = tmp_path / "repo"
    (repo / "src" / "repro" / "serving").mkdir(parents=True)
    (repo / "src" / "repro" / "xqgm").mkdir(parents=True)
    (repo / "tests").mkdir()
    (repo / "src/repro/serving/gateway.py").write_text(
        "def serve():\n    return 1\n"
    )
    (repo / "src/repro/xqgm/eval.py").write_text(
        "def evaluate():\n    return 2\n"
    )
    (repo / "tests/test_x.py").write_text("def test_x():\n    pass\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "base")
    return repo


def classify_at(repo: pathlib.Path) -> dict:
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "head")
    process = subprocess.run(
        [sys.executable, str(TOOLS / "ci_paths.py"),
         "--base", "HEAD~1", "--head", "HEAD"],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return dict(
        line.split("=", 1) for line in process.stdout.split() if "=" in line
    )


class TestCiPathsClassification:
    def test_serving_change_triggers_docs_and_bench(self, diff_repo):
        (diff_repo / "src/repro/serving/gateway.py").write_text(
            "def serve():\n    return 99\n"
        )
        assert classify_at(diff_repo) == {"docs": "true", "bench": "true"}

    def test_persist_change_triggers_the_e2e_gate(self, diff_repo):
        (diff_repo / "src/repro/persist").mkdir()
        (diff_repo / "src/repro/persist/durable.py").write_text(
            "def append():\n    return 1\n"
        )
        assert classify_at(diff_repo) == {"docs": "true", "bench": "true"}

    def test_comment_only_serving_change_skips_all(self, diff_repo):
        (diff_repo / "src/repro/serving/gateway.py").write_text(
            "# a comment\ndef serve():\n    return 1\n"
        )
        assert classify_at(diff_repo) == {"docs": "false", "bench": "false"}

    def test_test_churn_skips_all(self, diff_repo):
        (diff_repo / "tests/test_x.py").write_text(
            "def test_x():\n    assert True\n"
        )
        assert classify_at(diff_repo) == {"docs": "false", "bench": "false"}

    def test_benchmark_declaration_change_triggers_only_bench(self, diff_repo):
        (diff_repo / "BENCHMARK.json").write_text('{"run_seconds": 12}\n')
        assert classify_at(diff_repo) == {"docs": "false", "bench": "true"}


class TestCheckDocsPaths:
    def test_a_named_path_that_does_not_exist_fails(self, tmp_path: pathlib.Path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "src/pkg").mkdir(parents=True)
        (tmp_path / "tests/property").mkdir(parents=True)
        (tmp_path / "tests/property/test_delivery.py").write_text("")
        (tmp_path / "README.md").write_text(
            "See `tests/property/test_delivery.py` and `tests/**/*.py`.\n"
        )
        (tmp_path / "docs/guide.md").write_text(
            "Intro.\n\nPinned by `tests/property/test_{delivery,gone}.py::test_x`.\n"
        )
        (tmp_path / "src/pkg/mod.py").write_text('"""Reads docs/guide.md and docs/old.md."""\n')
        sources = check_docs.path_sources(tmp_path)
        assert check_docs.missing_paths(sources, tmp_path) == [
            "docs/guide.md:3: tests/property/test_gone.py",
            "src/pkg/mod.py:1: docs/old.md",
        ]

    def test_every_brace_group_expands_to_each_alternative(self):
        assert check_docs._expand("tests/{net,web}/test_{a,b}.py") == [
            "tests/net/test_a.py",
            "tests/net/test_b.py",
            "tests/web/test_a.py",
            "tests/web/test_b.py",
        ]
        assert check_docs._expand("docs/api.md") == ["docs/api.md"]

    def test_the_default_run_fails_on_a_missing_path_before_any_block_runs(
        self, monkeypatch, capsys
    ):
        ran: list[pathlib.Path] = []
        monkeypatch.setattr(
            check_docs, "missing_paths", lambda files: ["docs/x.md:3: tests/gone.py"]
        )
        monkeypatch.setattr(
            check_docs, "run_file",
            lambda path, *, require_blocks: ran.append(path) or 0,
        )
        assert check_docs.main([]) == 1
        assert ran == []
        assert "FAIL docs/x.md:3: tests/gone.py does not exist" in capsys.readouterr().err
        # A file named on the command line is run without the path check.
        assert check_docs.main(["docs/api.md"]) == 0
        assert ran == [pathlib.Path("docs/api.md")]

    def test_the_repository_names_no_missing_path(self):
        assert check_docs.missing_paths(check_docs.path_sources()) == []
