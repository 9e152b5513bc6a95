"""Command line interface.

Subcommands: snf, decompose, wreath (mul|inv|abelianize), quotients,
compare-qu, certify. Inputs are file paths, inline JSON (anything starting
with '{'), or '-' for stdin. Exit codes: 0 success or certified pass, 1 a
produced report that fails certification, 2 malformed input or usage error,
3 an internal error: one of the program's own certificates failed, 4 any other
unexpected exception, printed as one line 'internal error: <Type>: <message>'.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from . import jsonio
from .errors import AlgebraError, CertificateError, InvalidInput
from .laurent_modules import decompose, torsion_quotient_order
from .pipeline import certify
from .polymatrix import smith_normal_form
from .quotients import compare_qu, truncated_qu
from .wreath import LamplighterSpec, abelianize, wreath_inv, wreath_mul


def _load_json(source: str) -> Any:
    inline = source.lstrip().startswith(("{", "["))
    try:
        if source == "-":
            return json.load(sys.stdin)
        if inline:
            return json.loads(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integers past the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        what = f"inline JSON of {len(source)} characters" if inline else jsonio._quote(source)
        detail = exc.strerror if isinstance(exc, OSError) else exc  # its str() repeats the path
        raise InvalidInput(f"cannot read JSON from {what}: {detail}") from exc


def _emit(payload: Any, as_json: bool, text: str | None = None) -> None:
    """Write the output to stdout. A reader that has closed stdout (`| head`)
    leaves the exit code alone: stdout is pointed at os.devnull, so the flush
    at exit cannot fail again."""
    if as_json or text is None:
        text = jsonio.canonical_dumps(payload)
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_snf(args: argparse.Namespace) -> int:
    matrix = jsonio.parse_matrix(_load_json(args.matrix))
    dec = smith_normal_form(matrix)
    payload = {
        "diag": [jsonio.poly_to_literal(d) for d in dec.diag],
        "U": jsonio.matrix_to_json(dec.u),
        "D": jsonio.matrix_to_json(dec.d),
        "V": jsonio.matrix_to_json(dec.v),
    }
    text = "\n".join([
        "diag: " + ", ".join(str(d) for d in dec.diag),
        "U =", str(dec.u),
        "V =", str(dec.v),
    ])
    _emit(payload, args.json, text)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    pres = jsonio.parse_presentation(_load_json(args.presentation))
    dec = decompose(pres)
    orders = tuple(torsion_quotient_order(f) for f in dec.invariant_factors)
    payload = jsonio.decomposition_to_json(dec, orders)
    text = "\n".join([
        f"free rank: {dec.free_rank}",
        "invariant factors: " + (", ".join(str(f) for f in dec.invariant_factors) or "(none)"),
        "torsion orders: " + (", ".join(str(o) for o in orders) or "(none)"),
    ])
    _emit(payload, args.json, text)
    return 0


def _wreath_spec(args: argparse.Namespace) -> LamplighterSpec:
    from .fppoly import FieldSpec
    jsonio._at_most(args.n, jsonio.MAX_GENERATORS, "'--n'")  # abelianize allocates n per lamp
    try:
        base = None if args.base in ("Z", "z") else int(args.base)
        return LamplighterSpec(FieldSpec(args.p), args.n, base)
    except ValueError as exc:
        raise InvalidInput(f"bad wreath group: {exc}") from exc


def _cmd_wreath(args: argparse.Namespace) -> int:
    spec = _wreath_spec(args)
    elems = [jsonio.parse_wreath_element(spec, _load_json(src)) for src in args.elements]
    if args.op == "mul":
        if len(elems) < 2:
            raise InvalidInput("mul needs at least two elements")
        out = elems[0]
        for e in elems[1:]:
            out = wreath_mul(out, e)
        _emit(jsonio.element_to_json(out), args.json, str(out))
    elif args.op == "inv":
        if len(elems) != 1:
            raise InvalidInput("inv takes exactly one element")
        out = wreath_inv(elems[0])
        _emit(jsonio.element_to_json(out), args.json, str(out))
    else:  # abelianize
        if len(elems) != 1:
            raise InvalidInput("abelianize takes exactly one element")
        vec, shift = abelianize(elems[0])
        _emit({"lamp_sum": list(vec), "shift": shift}, args.json,
              f"lamp sum {list(vec)}, shift {shift}")
    return 0


def _cmd_quotients(args: argparse.Namespace) -> int:
    candidate = jsonio.parse_candidate(_load_json(args.candidate))
    qs = truncated_qu(candidate.presentation, args.bound)
    payload = jsonio.quset_to_json(qs)
    text = "\n".join(f"order {fp.order}: {fp.describe()}" for fp in qs.fingerprints)
    _emit(payload, args.json, text or "(no quotients)")
    return 0


def _cmd_compare_qu(args: argparse.Namespace) -> int:
    left = jsonio.parse_candidate(_load_json(args.left))
    right = jsonio.parse_candidate(_load_json(args.right))
    cmp = compare_qu(left.presentation, right.presentation, args.bound)
    payload = jsonio.comparison_to_json(cmp)
    if cmp.equal:
        text = f"equal up to order {cmp.bound}"
    else:
        side, fp = cmp.witness
        text = f"differ: witness {fp.describe()} (order {fp.order}) only on the {side} side"
    _emit(payload, args.json, text)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    candidate = jsonio.parse_candidate(_load_json(args.candidate))
    report = certify(candidate, qu_bound=args.qu_bound, seed=args.seed)
    payload = jsonio.report_to_json(report)
    if args.json:
        _emit(payload, True)
    else:
        lines = [
            f"abelianization check: {'pass' if report.ab_check.passed else 'FAIL'} "
            f"(dimension {report.ab_check.coinvariant_dimension}, expected {report.candidate.n})",
            f"free rank: {report.decomposition.free_rank}, torsion factors: "
            + (", ".join(str(f) for f in report.decomposition.invariant_factors) or "(none)"),
            f"chosen m: {report.chosen_m}",
        ]
        if report.rank_check is not None:
            rc = report.rank_check
            lines.append(
                f"rank check: {'pass' if rc.passed else 'FAIL'} (r = {rc.free_rank}, "
                f"n = {rc.target_rank}; ({rc.target_rank} - {rc.free_rank}) * {rc.m} = "
                f"{rc.inequality_lhs} <= {rc.inequality_rhs} is {rc.inequality_holds})")
        if report.epimorphism is not None:
            lines.append("epimorphism: constructed, relations killed, surjective; "
                         f"law checked on {report.epimorphism.law_check.samples} samples")
        qc = report.qu_comparison
        if qc.equal:
            lines.append(f"quotient sets: equal up to order {qc.bound}")
        else:
            side, fp = qc.witness
            side_name = "candidate" if side == "left" else "lamplighter"
            lines.append(f"quotient sets: differ at order {fp.order} "
                         f"({fp.describe()} only on the {side_name} side)")
        lines.append(f"certified: {report.certified}")
        lines.append(report.conclusion)
        _emit(None, False, "\n".join(lines))
    return 0 if report.certified else 1


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamprigid",
        description="Exact algebra and rigidity certificates for lamp groups (Z/pZ)^n wr Z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_snf = sub.add_parser("snf", help="Smith normal form of a matrix over F_p[x]")
    p_snf.add_argument("matrix", help="matrix JSON (path, inline, or -)")
    p_snf.add_argument("--json", action="store_true")
    p_snf.set_defaults(fn=_cmd_snf)

    p_dec = sub.add_parser("decompose", help="invariant factors of a presented module")
    p_dec.add_argument("presentation", help="presentation JSON (path, inline, or -)")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_wr = sub.add_parser("wreath", help="wreath product arithmetic")
    p_wr.add_argument("op", choices=["mul", "inv", "abelianize"])
    p_wr.add_argument("elements", nargs="+", help="element JSON (path, inline, or -)")
    p_wr.add_argument("--p", type=int, required=True, help="prime modulus")
    p_wr.add_argument("--n", type=int, default=1, help="lamp rank")
    p_wr.add_argument("--base", default="Z", help="'Z' or a cyclic order m")
    p_wr.add_argument("--json", action="store_true")
    p_wr.set_defaults(fn=_cmd_wreath)

    p_qu = sub.add_parser("quotients", help="bounded finite-quotient classes of a candidate")
    p_qu.add_argument("candidate", help="candidate JSON (path, inline, or -)")
    p_qu.add_argument("--bound", type=int, default=8)
    p_qu.add_argument("--json", action="store_true")
    p_qu.set_defaults(fn=_cmd_quotients)

    p_cmp = sub.add_parser("compare-qu", help="compare bounded quotient sets of two candidates")
    p_cmp.add_argument("left", help="candidate JSON")
    p_cmp.add_argument("right", help="candidate JSON")
    p_cmp.add_argument("--bound", type=int, default=8)
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(fn=_cmd_compare_qu)

    p_cert = sub.add_parser("certify", help="run the full certification pipeline")
    p_cert.add_argument("candidate", help="candidate JSON (path, inline, or -)")
    p_cert.add_argument("--qu-bound", type=int, default=8)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--json", action="store_true")
    p_cert.set_defaults(fn=_cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InvalidInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal error: certificate failed: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a verdict on the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
