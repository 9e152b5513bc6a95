"""Workload inputs and the correctness oracle for the certify benchmark.

Every workload cycles over the same four module types, so per-candidate
metrics line up across workloads:

* ``certify-b8``: the bundled candidates at ``--qu-bound 8``, the default
  command-line path, where quotient enumeration and the law check share the
  time;
* ``certify-b16``: the bundled candidates at ``--qu-bound 16``, the current
  bound cap, where quotient enumeration dominates;
* ``certify-disguised``: each bundled module re-presented with 16 generators
  at ``--qu-bound 8``, where the Smith normal form certificates and the law
  check over a wide ``phi`` dominate. Its quotient work is that of
  ``certify-b8``.

A disguised presentation is ``L * D0 * U``: ``D0`` is the diagonal form of
the bundled module (units, then its invariant factors, then zero rows for the
free part) and ``L``, ``U`` are seeded unit triangular matrices, each a
product of elementary row or column operations whose multipliers are
``x + c``. ``L`` and ``U`` are invertible over F_p[x], so the module, and with
it the expected verdict, decomposition and quotient comparison, is that of
the bundled original.

The program only ever receives the candidate JSON text built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CANDIDATE_DIR = ROOT / "candidates"
ORACLE_PATH = BENCH_DIR / "oracle.json"

CANDIDATES = ("free_rank1", "free_rank2_p3", "mixed_free_torsion", "torsion_only")

DISGUISE_GENERATORS = 16
DISGUISE_BLOCK = 12


@dataclass(frozen=True)
class Workload:
    name: str
    qu_bound: int
    disguised: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("certify-b8", 8, False),
        Workload("certify-b16", 16, False),
        Workload("certify-disguised", 8, True),
    )
}


@dataclass(frozen=True)
class Call:
    """One benchmark request: the candidate name and the CLI argv."""

    candidate: str
    argv: tuple[str, ...]


def canonical_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_bundled(name: str) -> dict:
    with open(CANDIDATE_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_oracle() -> dict:
    with open(ORACLE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- dense polynomials over F_p as coefficient lists, ascending -------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _from_literal(lit: list[list[int]], p: int) -> list[int]:
    out: list[int] = []
    for e, c in lit:
        out.extend([0] * (e + 1 - len(out)))
        out[e] = (out[e] + c) % p
    return _trim(out)


def _to_literal(a: list[int]) -> list[list[int]]:
    return [[e, c] for e, c in enumerate(a) if c]


def _unit_triangular(size: int, lower: bool, block: int, rng: random.Random, p: int
                     ) -> list[list[list[int]]]:
    """Unit triangular matrix, block diagonal with blocks of `block` rows, whose
    entries inside a block are x + c (c seeded).

    It is the product of one elementary operation per off-diagonal entry, with
    that entry as multiplier. Every multiplier is monic of degree 1, so the
    entry degrees of the disguised presentation and the elimination path of
    its Smith normal form do not depend on the seed, and the cost of a call
    hardly does.
    """
    mat = [[[1] if i == j else [] for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if i // block == j // block and (i > j if lower else i < j):
                mat[i][j] = [rng.randrange(p), 1]
    return mat


def _matmul(a, b, p: int):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc: list[int] = []
            for k, x in enumerate(row):
                if x and b[k][j]:
                    acc = _add(acc, _mul(x, b[k][j], p), p)
            out_row.append(acc)
        out.append(out_row)
    return out


def disguise(p: int, n: int, free_rank: int, invariant_factors: list[list[list[int]]],
             seed: int) -> dict:
    """Candidate JSON presenting R^free_rank + sum R/(f_i) with 16 generators.

    The relation matrix is L * D0 * U with L unit lower and U unit upper
    triangular (see `_unit_triangular`).
    """
    generators = DISGUISE_GENERATORS
    relators = generators - free_rank
    factors = [_from_literal(f, p) for f in invariant_factors]
    units = relators - len(factors)
    if units < 0:
        raise ValueError("too few generators for the torsion part")
    d0 = [[[] for _ in range(relators)] for _ in range(generators)]
    for i in range(relators):
        d0[i][i] = [1] if i < units else factors[i - units]
    rng = random.Random(seed)
    left = _unit_triangular(generators, True, DISGUISE_BLOCK, rng, p)
    right = _unit_triangular(relators, False, DISGUISE_BLOCK, rng, p)
    mat = _matmul(_matmul(left, d0, p), right, p)
    return {
        "p": p,
        "n": n,
        "presentation": {
            "generators": generators,
            "relations": [[_to_literal(e) for e in row] for row in mat],
        },
    }


def disguised_candidate(name: str, oracle_entry: dict, seed: int) -> dict:
    """The bundled candidate `name`, re-presented from its expected decomposition."""
    bundled = load_bundled(name)
    dec = oracle_entry["decomposition"]
    index = CANDIDATES.index(name)
    return disguise(bundled["p"], bundled["n"], dec["free_rank"], dec["invariant_factors"],
                    seed=seed * len(CANDIDATES) + index)


def build_calls(workload: Workload, seed: int, oracle: dict) -> list[Call]:
    """The requests of one pass, one per candidate, in a fixed order.

    The order does not depend on the seed: a call's time depends a little on
    which call ran before it, and that would add to the spread across seeds.
    """
    expected = oracle[str(workload.qu_bound)]
    calls = []
    for name in CANDIDATES:
        if workload.disguised:
            text = canonical_text(disguised_candidate(name, expected[name], seed))
        else:
            text = canonical_text(load_bundled(name))
        argv = ("certify", text, "--qu-bound", str(workload.qu_bound), "--seed", "0", "--json")
        calls.append(Call(name, argv))
    return calls


# --- the oracle -------------------------------------------------------------

QU_FIELDS = ("bound", "equal", "witness", "left_classes", "right_classes",
             "left_only", "right_only")


def checked_fields(exit_code: int, report: dict) -> dict:
    """The report fields the oracle pins; additive report blocks are ignored."""
    qu = report["qu_comparison"]
    return {
        "exit_code": exit_code,
        "certified": report["certified"],
        "failed_stage": report["failed_stage"],
        "decomposition": report["decomposition"],
        "qu_comparison": {k: qu[k] for k in QU_FIELDS},
    }


def check_call(expected: dict, exit_code: int, stdout: str) -> str | None:
    """None when the call matches the oracle, else a one-line reason."""
    try:
        got = checked_fields(exit_code, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report (exit {exit_code}): {exc!r}"
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key}: expected {want!r:.120}, got {got.get(key)!r:.120}"
    return None
