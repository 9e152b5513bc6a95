"""The command line's exit-code contract under mutated input.

Each example takes a small valid input for certify, quotients, compare-qu, snf
or wreath, changes field types, drops fields, and puts negative, zero or
out-of-range integers and empty rows in its place. Whatever the input, the
command exits 0, 1 or 2, prints no traceback, and an exit 2 prints exactly one
line that starts with 'input error:' or 'error:'.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lamprigid import cli

CANDIDATE = {"p": 2, "n": 1, "presentation": {
    "generators": 2, "relations": [[[]], [[[0, 1], [1, 1], [2, 1]]]]}}
MATRIX = {"p": 3, "rows": 2, "cols": 2,
          "entries": [[[[0, 1], [1, 2]], []], [[[2, 1]], [[0, 2]]]]}
ELEMENT = {"lamps": [[0, [1]], [2, [1]]], "shift": 1}

# negative, zero, small, just past a limit (MAX_GENERATORS = 128,
# MAX_EXPONENT = 4096), and past 63 and 64 bits, the last two prime
INTEGERS = [-(2 ** 63), -1, 0, 1, 2, 3, 4, 129, 4097, 2 ** 63, 2 ** 63 + 29, 2 ** 64 + 13]
REPLACEMENTS = st.one_of(
    st.sampled_from(INTEGERS),
    st.sampled_from(["x", "", None, True, 1.5, [], [[]], {}, [[0, 1]], [[-1, 1]]]))


def paths(node, prefix=()):
    """Every path into the document, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, document):
    """The document after one to three replacements or deletions."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        options = list(paths(doc))
        if not options:
            break
        *parent_path, key = draw(st.sampled_from(options))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(REPLACEMENTS))
    return doc


def run(argv):
    """(exit code, stdout, stderr) of cli.main, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(("input error:", "error:")), (argv, err)


@settings(max_examples=60, deadline=None)
@given(mutated(CANDIDATE), st.sampled_from(["-1", "0", "1", "2", "8", "17"]))
def test_certify(candidate, bound):
    check_contract(["certify", json.dumps(candidate), "--qu-bound", bound, "--json"])


@settings(max_examples=30, deadline=None)
@given(mutated(CANDIDATE), st.sampled_from(["-1", "0", "1", "8", "17"]))
def test_quotients(candidate, bound):
    check_contract(["quotients", json.dumps(candidate), "--bound", bound, "--json"])


@settings(max_examples=30, deadline=None)
@given(mutated(CANDIDATE), st.booleans(), st.sampled_from(["-1", "0", "1", "8", "17"]))
def test_compare_qu(candidate, mutated_left, bound):
    pair = [candidate, CANDIDATE] if mutated_left else [CANDIDATE, candidate]
    check_contract(["compare-qu", *map(json.dumps, pair), "--bound", bound, "--json"])


def test_order_cap_is_not_an_option():
    for argv in (["quotients", json.dumps(CANDIDATE)],
                 ["compare-qu", json.dumps(CANDIDATE), json.dumps(CANDIDATE)],
                 ["certify", json.dumps(CANDIDATE)]):
        code, _, err = run(argv + ["--order-cap", "4096"])
        assert code == 2 and "unrecognized arguments: --order-cap" in err


@settings(max_examples=60, deadline=None)
@given(mutated(MATRIX))
def test_snf(matrix):
    check_contract(["snf", json.dumps(matrix), "--json"])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mul", "inv", "abelianize"]), mutated(ELEMENT), mutated(ELEMENT),
       st.sampled_from(["-1", "0", "1", "2", "3", "4"]), st.sampled_from(["-1", "0", "1", "2"]),
       st.sampled_from(["Z", "z", "-1", "0", "3", "x"]))
def test_wreath(op, first, second, p, n, base):
    elements = [first, second] if op == "mul" else [first]
    check_contract(["wreath", op, *map(json.dumps, elements), "--p", p, "--n", n,
                    "--base", base, "--json"])
