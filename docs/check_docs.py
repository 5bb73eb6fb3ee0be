#!/usr/bin/env python
"""Docs drift gate: verify README/docs code fences against the code.

Documentation rots in predictable ways: a snippet imports a name that
was renamed, a CLI example uses a flag that no longer exists, a curl
example hits an endpoint that was never wired up.  This script walks
every fenced code block in ``README.md`` and ``docs/*.md`` and checks
each kind against the live implementation, and checks the example and
benchmark scripts like python fences:

* ``python`` fences — must compile, and every ``import``/``from`` of a
  ``repro`` module must resolve (module imports, names exist).  This is
  what catches "the README still says ``MultiplierFitness``".
* ``bash`` fences — every ``python -m repro.cli …`` invocation is
  parsed by the *real* argparse parser (commands and flags must exist;
  nothing is executed); ``python -m repro.x.y`` modules must import;
  ``python path/to/script.py`` scripts must exist on disk.
* ``json`` fences — must be valid JSON (example responses stay
  copy-pasteable).
* curl lines (any fence) — the URL path must match a route in the
  serving layer's route table, and every query parameter must be one
  the route declares.
* ``examples/*.py`` and ``benchmarks/*.py`` — checked as python fences
  (parse + ``repro`` imports resolve).  The test suite imports neither
  the examples nor the paper-claim benches, so a deleted name would
  otherwise break them silently.

Run from the repo root (CI does, as does ``tests/test_docs.py``)::

    python docs/check_docs.py            # exit 1 on any drift
    python docs/check_docs.py --list     # show every checked fence
"""

from __future__ import annotations

import argparse
import ast
import glob
import importlib
import io
import json
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import List, Tuple
from urllib.parse import parse_qsl, urlsplit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_PLACEHOLDER = re.compile(r"^<[^>]+>$")


def extract_fences(path: str) -> List[Tuple[str, str, int]]:
    """``(language, body, line_number)`` for every fence in a file."""
    text = open(path).read()
    fences = []
    for found in _FENCE.finditer(text):
        line = text[: found.start()].count("\n") + 1
        fences.append((found.group(1).lower(), found.group(2), line))
    return fences


# ----------------------------------------------------------------------
# Python fences: compile + resolve repro imports
# ----------------------------------------------------------------------
def check_python(body: str, where: str, errors: List[str]) -> None:
    try:
        tree = ast.parse(body)
    except SyntaxError as exc:
        errors.append(f"{where}: does not parse as python: {exc}")
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, attr in names:
            if not module or module.split(".")[0] != "repro":
                continue
            try:
                mod = importlib.import_module(module)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                errors.append(f"{where}: cannot import {module}: {exc}")
                continue
            if attr and attr != "*" and not hasattr(mod, attr):
                errors.append(
                    f"{where}: {module} has no attribute {attr!r}"
                )


# ----------------------------------------------------------------------
# Bash fences: CLI invocations must parse, scripts must exist
# ----------------------------------------------------------------------
def _logical_lines(body: str) -> List[str]:
    """Join backslash continuations, drop comments and blanks."""
    lines: List[str] = []
    pending = ""
    for raw in body.splitlines():
        stripped = raw.strip()
        if pending:
            pending = pending + " " + stripped.rstrip("\\").strip()
        else:
            if not stripped or stripped.startswith("#"):
                continue
            pending = stripped.rstrip("\\").strip()
        if not raw.rstrip().endswith("\\"):
            lines.append(pending)
            pending = ""
    if pending:
        lines.append(pending)
    return lines


def _parse_cli(argv: List[str], where: str, errors: List[str]) -> None:
    from repro.cli import _build_parser

    argv = ["x" if _PLACEHOLDER.match(a) else a for a in argv]
    parser = _build_parser()
    try:
        # parse_args only validates vocabulary; no command function runs.
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            errors.append(
                f"{where}: `repro {' '.join(argv)}` does not parse "
                "against the live CLI"
            )


def check_bash(body: str, where: str, errors: List[str]) -> None:
    for line in _logical_lines(body):
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            errors.append(f"{where}: cannot tokenize {line!r}: {exc}")
            continue
        # Strip leading VAR=value environment assignments.
        while tokens and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", tokens[0]):
            tokens.pop(0)
        if not tokens:
            continue
        if tokens[0] == "curl":
            check_curl(tokens, where, errors)
            continue
        if tokens[0] not in ("python", "python3"):
            continue
        rest = tokens[1:]
        if rest[:1] == ["-m"]:
            module = rest[1] if len(rest) > 1 else ""
            if module == "repro.cli":
                _parse_cli(rest[2:], where, errors)
            elif module.split(".")[0] == "repro":
                try:
                    importlib.import_module(module)
                except Exception as exc:  # noqa: BLE001
                    errors.append(
                        f"{where}: cannot import -m module {module}: {exc}"
                    )
            continue
        if rest and rest[0].endswith(".py"):
            if not os.path.exists(os.path.join(REPO, rest[0])):
                errors.append(
                    f"{where}: script {rest[0]!r} does not exist"
                )


# ----------------------------------------------------------------------
# curl lines: URL path + query params must match the route table
# ----------------------------------------------------------------------
def check_curl(tokens: List[str], where: str, errors: List[str]) -> None:
    from repro.serve.api import ROUTES
    from repro.serve.routes import match_path

    urls = [t for t in tokens if t.startswith("http")]
    for url in urls:
        parts = urlsplit(url)
        route, _ = match_path(ROUTES, parts.path)
        if route is None:
            errors.append(
                f"{where}: curl path {parts.path!r} matches no serve route"
            )
            continue
        declared = {p.name for p in route.params}
        for name, _ in parse_qsl(parts.query, keep_blank_values=True):
            if name not in declared:
                errors.append(
                    f"{where}: curl query parameter {name!r} is not "
                    f"declared by {route.method} {route.path}"
                )


def check_json(body: str, where: str, errors: List[str]) -> None:
    try:
        json.loads(body)
    except ValueError as exc:
        errors.append(f"{where}: json fence is not valid JSON: {exc}")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def doc_files() -> List[str]:
    files = [os.path.join(REPO, "README.md")]
    files += sorted(glob.glob(os.path.join(REPO, "docs", "*.md")))
    return files


def script_files() -> List[str]:
    return sorted(
        glob.glob(os.path.join(REPO, "examples", "*.py"))
        + glob.glob(os.path.join(REPO, "benchmarks", "*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--list", action="store_true", help="print every checked fence"
    )
    args = parser.parse_args(argv)

    errors: List[str] = []
    checked = 0
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        for language, body, line in extract_fences(path):
            where = f"{rel}:{line}"
            if language == "python":
                check_python(body, where, errors)
            elif language in ("bash", "sh", "shell", "console"):
                check_bash(body, where, errors)
            elif language == "json":
                check_json(body, where, errors)
            else:
                continue
            checked += 1
            if args.list:
                print(f"checked {where} ({language})")
    scripts = script_files()
    for path in scripts:
        rel = os.path.relpath(path, REPO)
        with open(path) as fh:
            check_python(fh.read(), rel, errors)
        if args.list:
            print(f"checked {rel} (script)")

    if errors:
        for error in errors:
            print(f"DRIFT: {error}", file=sys.stderr)
        print(f"{len(errors)} problem(s) in {checked} fences and "
              f"{len(scripts)} scripts", file=sys.stderr)
        return 1
    print(f"all {checked} documentation fences match the implementation")
    print(f"repro imports resolve in all {len(scripts)} example and "
          "benchmark scripts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
