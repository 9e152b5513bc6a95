"""JSON schemas for all external interfaces.

Polynomial literal: a list of [exponent, coefficient] pairs, ascending order
not required, e.g. [[0,1],[1,1],[2,1]] for x^2 + x + 1. Negative exponents are
permitted only where a Laurent value is expected. No exponent may exceed
MAX_EXPONENT in absolute value: polynomials are stored densely, so a literal
like [[400000000,1]] would otherwise allocate gigabytes before any check.
Presentations, candidates and matrices have at most MAX_GENERATORS generators
(rows, or lamp rank n) and MAX_RELATORS relators (columns).

Matrix: {"p": 2, "rows": R, "cols": C, "entries": [[lit, ...], ...]} with
entries row-major.

Presentation: {"p": 2, "generators": g, "relations": [[lit, ...], ...]}.
Relations are row-major like matrix entries: relations[i][j] is the
coefficient of generator i in relator j, so there is one inner list per
generator and one column per relator. An empty list means no relations.

Candidate: {"p": 2, "n": 1, "presentation": {...}} (inner "p" optional, must
agree with the outer one when present).

Wreath element: {"lamps": [[index, [v1, ..., vn]], ...], "shift": k}.

Serialization of reports is canonical: keys sorted, two-space indent, newline
terminated, so identical reports produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InvalidInput
from .fppoly import FieldSpec, FpPoly
from .laurent_modules import ModuleDecomposition, ModulePresentation
from .pipeline import CandidateGroup, RigidityReport
from .polymatrix import PolyMatrix
from .quotients import ORDER_CAP, QuComparison, QuotientFingerprint, QuSet
from .wreath import LamplighterSpec, WreathElement, element

MAX_EXPONENT = 4096
MAX_GENERATORS = 128
MAX_RELATORS = 128


_KIND = np.zeros(256, np.uint8)  # 1 opens, 2 closes, 3 comma, 4 colon
_KIND[list(b"[{")], _KIND[list(b"]}")], _KIND[ord(",")], _KIND[ord(":")] = 1, 2, 3, 4


def canonical_dumps(obj: Any) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n", laid out from the C
    encoder's compact text, since indent drops json to its pure-Python encoder.

    The compact text is ASCII, and every backslash in it starts an escape, so
    blanking each \\\\ and then each \\" keeps the length and leaves only the quotes
    that delimit strings; their running parity marks the characters inside
    strings. A running sum over the brackets outside them is the depth. A
    newline and two spaces per level follow each comma and opening bracket and
    precede each closing one, unless the brackets enclose nothing; a space
    follows each colon."""
    compact = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")
    blanked = np.frombuffer(compact.replace(b"\\\\", b"  ").replace(b'\\"', b"  "), np.uint8)
    kind = _KIND[blanked]
    kind[np.bitwise_xor.accumulate(blanked == ord('"'))] = 0
    opens, shuts = kind == 1, kind == 2
    extra = np.cumsum(opens.view(np.int8) - shuts.view(np.int8), dtype=np.int32)  # the depth
    breaks = kind == 3
    breaks[:-1] |= opens[:-1] & ~shuts[1:]
    shuts[1:] &= ~opens[:-1]
    extra *= 2
    extra += 1
    extra *= breaks | shuts
    extra += kind == 4
    at = extra + 1
    np.cumsum(at, out=at)
    out = np.full(at[-1] + 1, ord(" "), np.uint8)
    at -= extra + 1  # a run starts with its character, but a closing bracket ends its run
    at[shuts] += extra[shuts]
    out[at] = np.frombuffer(compact, np.uint8)
    out[at[breaks] + 1] = out[at[shuts] - extra[shuts]] = out[-1] = ord("\n")
    return str(out, "ascii")


def _quote(value: Any) -> str:
    """repr(value) cut to about 80 characters, for error messages."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInput(message)


def _at_most(value: int, limit: int, what: str) -> None:
    _expect(value <= limit, f"{what} {value} exceeds the limit {limit}")


def _int_field(data: dict, key: str) -> int:
    _expect(key in data, f"missing field '{key}'")
    value = data[key]
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"field '{key}' must be an integer")
    return value


def parse_field(data: dict) -> FieldSpec:
    p = _int_field(data, "p")
    try:
        return FieldSpec(p)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc


def _literal_pairs(data: Any, allow_negative: bool = False) -> list[tuple[int, int]]:
    """The validated [exponent, coefficient] pairs of a polynomial literal."""
    _expect(isinstance(data, list), "polynomial literal must be a list of [exp, coeff] pairs")
    pairs = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise InvalidInput(f"bad term {_quote(item)} in polynomial literal")
        e, c = item
        _expect(allow_negative or e >= 0,
                f"negative exponent {e} where a plain polynomial is expected")
        _expect(abs(e) <= MAX_EXPONENT, f"exponent {e} exceeds the limit {MAX_EXPONENT}")
        pairs.append((e, c))
    return pairs


def poly_to_literal(f: FpPoly) -> list[list[int]]:
    return [[e, c] for e, c in enumerate(f.coeffs) if c]


def _entries_to_json(m: PolyMatrix) -> list[list[list[list[int]]]]:
    return [[[[e, c] for e, c in enumerate(entry) if c] for entry in row]
            for row in m.coeffs.tolist()]


def parse_matrix(data: Any) -> PolyMatrix:
    _expect(isinstance(data, dict), "matrix must be an object")
    field = parse_field(data)
    rows = _int_field(data, "rows")
    cols = _int_field(data, "cols")
    _expect(rows >= 0 and cols >= 0, "negative dimensions")
    _at_most(rows, MAX_GENERATORS, "'rows'")
    _at_most(cols, MAX_RELATORS, "'cols'")
    entries = data.get("entries")
    _expect(isinstance(entries, list) and len(entries) == rows,
            f"'entries' must be a list of {rows} rows")
    terms = []
    for i, row in enumerate(entries):
        _expect(isinstance(row, list) and len(row) == cols,
                f"each row must have {cols} entries")
        terms += [(i, j, e, c) for j, lit in enumerate(row) for e, c in _literal_pairs(lit)]
    return PolyMatrix.from_terms(field, rows, cols, terms)


def matrix_to_json(m: PolyMatrix) -> dict:
    return {
        "p": m.field.p,
        "rows": m.rows,
        "cols": m.cols,
        "entries": _entries_to_json(m),
    }


def parse_presentation(data: Any, field: FieldSpec | None = None) -> ModulePresentation:
    _expect(isinstance(data, dict), "presentation must be an object")
    if "p" in data:
        inner = parse_field(data)
        _expect(field is None or inner == field,
                "presentation 'p' disagrees with the enclosing candidate")
        field = inner
    _expect(field is not None, "missing field 'p'")
    generators = _int_field(data, "generators")
    _expect(generators >= 1, "'generators' must be >= 1")
    _at_most(generators, MAX_GENERATORS, "'generators'")
    relations = data.get("relations", [])
    _expect(isinstance(relations, list), "'relations' must be a list of rows")
    if not relations:
        return ModulePresentation.free(field, generators)
    _expect(len(relations) == generators,
            f"'relations' must have one row per generator ({generators})")
    _expect(isinstance(relations[0], list), "all relation rows must be lists")
    width = len(relations[0])
    _at_most(width, MAX_RELATORS, "the number of relators")
    terms = []
    for i, row in enumerate(relations):
        _expect(isinstance(row, list) and len(row) == width,
                "all relation rows must have the same number of relators")
        terms += [(i, j, e, c) for j, lit in enumerate(row) for e, c in _literal_pairs(lit, True)]
    return ModulePresentation.from_terms(field, generators, width, terms)


def presentation_to_json(pres: ModulePresentation) -> dict:
    return {
        "p": pres.field.p,
        "generators": pres.generators,
        "relations": _entries_to_json(pres.relations) if pres.relations.cols else [],
    }


def parse_candidate(data: Any) -> CandidateGroup:
    _expect(isinstance(data, dict), "candidate must be an object")
    field = parse_field(data)
    n = _int_field(data, "n")
    _expect(n >= 1, "'n' must be >= 1")
    _at_most(n, MAX_GENERATORS, "'n'")
    _expect("presentation" in data, "missing field 'presentation'")
    pres = parse_presentation(data["presentation"], field)
    return CandidateGroup(field, n, pres)


def candidate_to_json(c: CandidateGroup) -> dict:
    return {"p": c.field.p, "n": c.n, "presentation": presentation_to_json(c.presentation)}


def parse_wreath_element(spec: LamplighterSpec, data: Any) -> WreathElement:
    _expect(isinstance(data, dict), "wreath element must be an object")
    lamps = data.get("lamps", [])
    _expect(isinstance(lamps, list), "'lamps' must be a list of [index, vector] pairs")
    parsed = []
    for item in lamps:
        if not (isinstance(item, list) and len(item) == 2):
            raise InvalidInput(f"bad lamp entry {_quote(item)}")
        idx, vec = item
        _expect(isinstance(idx, int) and not isinstance(idx, bool), "lamp index must be an integer")
        _expect(isinstance(vec, list) and len(vec) == spec.n
                and all(isinstance(v, int) and not isinstance(v, bool) for v in vec),
                f"lamp vector must be a list of {spec.n} integers")
        parsed.append((idx, vec))
    shift = data.get("shift", 0)
    _expect(isinstance(shift, int) and not isinstance(shift, bool), "'shift' must be an integer")
    return element(spec, parsed, shift)


def element_to_json(w: WreathElement) -> dict:
    return {"lamps": [[i, list(v)] for i, v in w.lamps], "shift": w.shift}


def fingerprint_to_json(fp: QuotientFingerprint) -> dict:
    return {**vars(fp), "name": fp.describe()}


def quset_to_json(qs: QuSet) -> dict:
    return {"bound": qs.bound, "classes": [fingerprint_to_json(fp) for fp in qs.fingerprints]}


def comparison_to_json(cmp: QuComparison) -> dict:
    return {
        "bound": cmp.bound,
        "equal": cmp.equal,
        "left_classes": [fingerprint_to_json(fp) for fp in cmp.left_fingerprints],
        "right_classes": [fingerprint_to_json(fp) for fp in cmp.right_fingerprints],
        "left_only": [fingerprint_to_json(fp) for fp in cmp.left_only],
        "right_only": [fingerprint_to_json(fp) for fp in cmp.right_only],
        "witness": None if cmp.witness is None else {
            "side": cmp.witness[0],
            "class": fingerprint_to_json(cmp.witness[1]),
        },
    }


def decomposition_to_json(dec: ModuleDecomposition,
                          torsion_orders: tuple[int, ...] | None = None) -> dict:
    out = {
        "free_rank": dec.free_rank,
        "invariant_factors": [poly_to_literal(f) for f in dec.invariant_factors],
    }
    if torsion_orders is not None:
        out["torsion_orders"] = list(torsion_orders)
    return out


def report_to_json(report: RigidityReport) -> dict:
    rank = report.rank_check
    epi = report.epimorphism
    return {
        "schema": "rigidity-report/1",
        "input": candidate_to_json(report.candidate),
        "seed": report.seed,
        "qu_bound": report.qu_bound,
        "order_cap": ORDER_CAP,
        "ab_check": dict(vars(report.ab_check)),
        "decomposition": decomposition_to_json(report.decomposition, report.torsion_orders),
        "chosen_m": report.chosen_m,
        "rank_check": None if rank is None else dict(vars(rank)),
        "epimorphism": None if epi is None else {
            "matrix": matrix_to_json(epi.phi),
            "law_check": dict(vars(epi.law_check)),
        },
        "qu_comparison": {
            "sides": {"left": "candidate", "right": "lamplighter"},
            **comparison_to_json(report.qu_comparison),
        },
        "certified": report.certified,
        "failed_stage": report.failed_stage,
        "conclusion": report.conclusion,
    }
