#!/usr/bin/env python
"""Docs drift check: execute every Python code block in the documentation,
and find every repository path it names.

The documentation's examples are part of the public-API contract: if a rename
or behaviour change breaks a snippet, this script fails and CI goes red.
Within one file, code blocks run top to bottom in one shared namespace (later
blocks may use names defined by earlier ones), exactly as a reader following
along would execute them; each file gets a fresh namespace.

By default the script checks ``README.md`` plus every ``docs/*.md`` file.
Files without Python blocks are reported and skipped (architecture diagrams
and benchmark guides are prose); a file passed *explicitly* on the command
line must contain at least one block, so a typo'd path cannot silently pass.

Before any block runs, the default run also reads ``README.md``,
``docs/*.md`` and ``src/**/*.py`` for ``src/``, ``tests/``, ``benchmarks/``,
``tools/``, ``examples/`` and ``docs/`` paths ending in ``.py``, ``.md`` or
``.json`` (``{a,b}`` braces expanded; globs skipped) and fails if one of
them does not exist, so a moved test cannot leave its old name behind.

Usage:  PYTHONPATH=src python tools/check_docs.py [path-to-markdown ...]
Exits non-zero on the first failing block, printing the block and the error.
"""

from __future__ import annotations

import pathlib
import re
import sys
import traceback

_BLOCK = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)

#: A repository path as the docs and docstrings spell it.
_PATH = re.compile(
    r"(?<![\w./{-])((?:src|tests|benchmarks|tools|examples|docs)/[\w./{},-]*?"
    r"\.(?:py|md|json))(?![\w*])"
)
_BRACE = re.compile(r"\{([^{}]*)\}")

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def default_targets() -> list[pathlib.Path]:
    """README.md plus docs/*.md, in a stable order."""
    targets = [_REPO_ROOT / "README.md"]
    targets.extend(sorted((_REPO_ROOT / "docs").glob("*.md")))
    return targets


def path_sources(root: pathlib.Path = _REPO_ROOT) -> list[pathlib.Path]:
    """The files whose path references must exist."""
    return [
        root / "README.md",
        *sorted((root / "docs").glob("*.md")),
        *sorted((root / "src").rglob("*.py")),
    ]


def _expand(path: str) -> list[str]:
    match = _BRACE.search(path)
    if match is None:
        return [path]
    return [
        expanded
        for choice in match.group(1).split(",")
        for expanded in _expand(path[: match.start()] + choice + path[match.end():])
    ]


def missing_paths(files: list[pathlib.Path], root: pathlib.Path = _REPO_ROOT) -> list[str]:
    """``file:line: path`` for every named path under ``root`` that is absent."""
    missing = []
    for source in files:
        text = source.read_text(encoding="utf-8")
        for match in _PATH.finditer(text):
            for path in _expand(match.group(1)):
                if not (root / path).exists():
                    line = text.count("\n", 0, match.start()) + 1
                    missing.append(f"{source.relative_to(root)}:{line}: {path}")
    return missing


def _failure_line(error: Exception, filename: str) -> int | None:
    """The markdown line number where ``error`` arose, if determinable.

    Blocks are compiled padded with newlines so their code objects carry the
    block's true position *within the markdown file*; the deepest traceback
    frame belonging to that file (or the syntax-error position) is therefore
    directly reportable as ``path:line``.
    """
    if isinstance(error, SyntaxError) and error.filename == filename:
        return error.lineno
    lineno = None
    for frame in traceback.extract_tb(error.__traceback__):
        if frame.filename == filename:
            lineno = frame.lineno
    return lineno


def run_file(path: pathlib.Path, *, require_blocks: bool) -> int:
    """Execute one markdown file's Python blocks; returns a process status."""
    text = path.read_text(encoding="utf-8")
    matches = list(_BLOCK.finditer(text))
    if not matches:
        if require_blocks:
            print(f"{path}: no python code blocks found", file=sys.stderr)
            return 1
        print(f"skip {path} (no python code blocks)")
        return 0
    namespace: dict = {"__name__": f"docs_block::{path.name}"}
    for index, match in enumerate(matches, start=1):
        block = match.group(1)
        # Pad with blank lines so compiled line numbers equal line numbers in
        # the markdown file itself (group(1) begins with the newline that ends
        # the ``` fence line, so count newlines up to the first code line).
        stripped = block.lstrip("\n")
        leading = len(block) - len(stripped)
        first_code_line = text.count("\n", 0, match.start(1)) + 1 + leading
        padded = "\n" * (first_code_line - 1) + stripped
        try:
            exec(compile(padded, str(path), "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report and fail
            lineno = _failure_line(error, str(path))
            location = f"{path}:{lineno}" if lineno else f"{path} block {index}"
            print(f"FAIL {location} (code block {index}): "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            print("----- block source -----", file=sys.stderr)
            print(block.strip(), file=sys.stderr)
            print("------------------------", file=sys.stderr)
            return 1
        print(f"ok   {path} block {index} ({len(block.splitlines())} lines)")
    return 0


def main(argv: list[str]) -> int:
    explicit = bool(argv)
    if not explicit:
        missing = missing_paths(path_sources())
        for entry in missing:
            print(f"FAIL {entry} does not exist", file=sys.stderr)
        if missing:
            return 1
    targets = [pathlib.Path(arg) for arg in argv] or default_targets()
    for target in targets:
        status = run_file(target, require_blocks=explicit)
        if status:
            return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
