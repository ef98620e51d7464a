#!/usr/bin/env python
"""Decide which CI jobs a diff actually needs — docs, web-smoke and e2e-gate.

The docs job executes every Python block in ``README.md`` and ``docs/*.md``
against the live API, so it must run whenever the docs themselves change
*or* the public behaviour under them might have.  The web-smoke job runs
``examples/subscribers.py`` (TCP, then REST + WebSocket) end to end, so it
must run whenever the serving/persistence stack under the web gateway might
have changed.  The
e2e-gate job runs the repo benchmark (``BENCHMARK.json``) on the base and
head checkouts, so it must run whenever the program under ``src/repro/``
might behave differently, or the benchmark's declaration did.  But a
large class of ``src`` changes — comment edits, formatting — cannot affect
any of them.  This script compares the **AST** of each changed ``src`` Python
file between the base and head revisions: comment-only (and
whitespace-only) edits produce identical ASTs and let the jobs skip;
any semantic change (docstrings included — they are part of the AST, and
conservatism is the right failure mode here) triggers them.

Anything that is not a ``src`` Python file is classified by path alone:
docs / README / examples / the checker itself always need the docs job;
test and benchmark churn never does.  The web-smoke job cares only about
the gateway's dependency cone: ``src/repro/serving/``, ``src/repro/persist/``,
and its own example script; the e2e gate only about ``src/repro/`` and
``BENCHMARK.json``.

Usage (from CI)::

    python tools/ci_paths.py --base <sha> --head <sha>

Prints ``bench=true|false``, ``docs=true|false`` and ``web=true|false`` and
appends the same lines to ``$GITHUB_OUTPUT`` when set.  Any git/parse error makes every
answer ``true`` — the jobs run when in doubt.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys

#: Paths (prefix match) whose changes always require the docs job.
_DOC_PATHS = ("README.md", "docs/", "examples/", "tools/check_docs.py")

#: Paths whose changes never affect executed doc blocks.
_IGNORED_PREFIXES = ("tests/", "benchmarks/", "tools/", ".github/")

#: The web-smoke job's dependency cone: the gateway package and everything
#: it serves (delivery machinery, durable cursors), plus its own example.
_WEB_PATHS = (
    "src/repro/serving/",
    "src/repro/persist/",
    "examples/subscribers.py",
)

#: What the e2e gate measures: the program, and the benchmark's declaration.
_BENCH_PATHS = ("src/repro/", "BENCHMARK.json")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def _show(revision: str, path: str) -> str | None:
    try:
        return _git("show", f"{revision}:{path}")
    except subprocess.CalledProcessError:
        return None  # added/deleted at this revision


def _ast_equal(base_text: str, head_text: str, path: str) -> bool:
    try:
        return ast.dump(ast.parse(base_text)) == ast.dump(ast.parse(head_text))
    except SyntaxError:
        print(f"ci_paths: {path}: unparseable at one revision — docs job runs",
              file=sys.stderr)
        return False


def _semantically_changed(base: str, head: str, path: str) -> bool:
    """Whether a ``src`` Python file changed beyond comments/whitespace."""
    if not path.endswith(".py"):
        return True
    base_text = _show(base, path)
    head_text = _show(head, path)
    if base_text is None or head_text is None:
        return True  # file added or removed
    return not _ast_equal(base_text, head_text, path)


def classify(base: str, head: str) -> dict[str, bool]:
    """Which skippable jobs the ``base...head`` diff needs: docs, web, bench."""
    changed = [
        line
        for line in _git("diff", "--name-only", f"{base}...{head}").splitlines()
        if line.strip()
    ]
    docs = False
    web = False
    bench = False
    # Cache AST comparisons: a serving-layer file feeds all three decisions.
    semantic: dict[str, bool] = {}

    def changed_semantically(path: str) -> bool:
        if path not in semantic:
            semantic[path] = _semantically_changed(base, head, path)
        return semantic[path]

    for path in changed:
        if not web and path.startswith(_WEB_PATHS):
            web = (
                changed_semantically(path)
                if path.startswith("src/") else True
            )
        if not bench and path.startswith(_BENCH_PATHS):
            bench = (
                changed_semantically(path)
                if path.startswith("src/") else True
            )
        if docs:
            continue
        if path.startswith(_DOC_PATHS):
            docs = True
        elif path.startswith(_IGNORED_PREFIXES):
            pass
        elif not path.startswith("src/"):
            # Top-level files (pyproject, requirements, ...) cannot change
            # executed doc blocks.
            pass
        elif changed_semantically(path):
            docs = True
    return {"docs": docs, "web": web, "bench": bench}


def docs_needed(base: str, head: str) -> bool:
    """Whether the docs drift check must run for the ``base...head`` diff."""
    return classify(base, head)["docs"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision (merge target)")
    parser.add_argument("--head", required=True, help="head revision (the change)")
    args = parser.parse_args(argv)
    try:
        outputs = classify(args.base, args.head)
    except Exception as error:  # noqa: BLE001 - any failure means "run the jobs"
        print(f"ci_paths: {error} — defaulting to every job", file=sys.stderr)
        outputs = {"docs": True, "web": True, "bench": True}
    lines = [
        f"{job}={'true' if needed else 'false'}"
        for job, needed in sorted(outputs.items())
    ]
    for line in lines:
        print(line)
    output = os.environ.get("GITHUB_OUTPUT")
    if output:
        with pathlib.Path(output).open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
