#!/usr/bin/env python3
"""Mutation audit of the certificate checks: which require(...) can go unnoticed?

Each require(cond, message) call under src/ is found with ast. In a temporary
copy of the repository, its condition is replaced by True, one call at a time,
and the pytest selection given on the command line (paths relative to the
repository root) is run against the copy, with -x, so a mutant stops at its
first failing test. A mutant survives when the selection still passes; the
survivors are printed last, one per line.

    python scripts/require_audit.py tests
    python scripts/require_audit.py tests/test_polymatrix.py -k Smith

Standard library only. The selection is run once unmutated first, and the
audit stops if it fails there. Meant to be run by hand: a full tier-1
selection runs the suite once per require call.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")
TIMEOUT_S = 3600  # per run; a mutant that hangs counts as caught


def require_calls(src: pathlib.Path) -> list[tuple[pathlib.Path, int, int, int, str]]:
    """(file, line, start, end, message) for each require(cond, message) under src,
    start and end the byte offsets of cond in the file."""
    calls = []
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for node in ast.walk(ast.parse(data, filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "require" and node.args):
                cond = node.args[0]
                message = node.args[1] if len(node.args) > 1 else None
                text = (message.value if isinstance(message, ast.Constant)
                        else ast.unparse(message) if message else "")
                calls.append((path.relative_to(src.parent), node.lineno,
                              starts[cond.lineno - 1] + cond.col_offset,
                              starts[cond.end_lineno - 1] + cond.end_col_offset, text))
    return sorted(calls)


def passes(copy: pathlib.Path, selection: list[str]) -> bool:
    # no bytecode caches: two mutants of one file can share a size and an mtime second
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *selection], cwd=copy, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(selection: list[str]) -> int:
    calls = require_calls(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if not passes(copy, selection):
            print("the selection fails on the unmutated tree; nothing to audit", file=sys.stderr)
            return 2
        survivors = []
        for i, (rel, line, start, end, message) in enumerate(calls, 1):
            target = copy / rel
            original = target.read_bytes()
            target.write_bytes(original[:start] + b"True" + original[end:])
            try:
                survived = passes(copy, selection)
            finally:
                target.write_bytes(original)
            print(f"[{i}/{len(calls)}] {rel}:{line} {message!r}: "
                  f"{'SURVIVED' if survived else 'caught'}", flush=True)
            if survived:
                survivors.append(f"{rel}:{line} {message}")
    print(f"\n{len(survivors)} of {len(calls)} mutants survive:")
    for survivor in survivors:
        print(f"  {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
