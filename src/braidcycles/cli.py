"""Command-line surface: trees, decompose, pair, arnold, verify.

Exit codes: 0 success, 1 domain error (bad input of any kind), 2 verification
failure (a failing suite or a cross-method disagreement).  JSON output is
stable: keys sorted, term lists sorted, identical inputs giving identical
bytes (the `millis` timing field of verify reports is the one exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .arnold import format_class, parse_expression
from .decomposition import decompose, pair, validate_k
from .errors import DomainError
from .rewrite import reduce_to_balanced
from .trees import _json_listing, _split_count, _tree_lists, parse_tree
from .verification import SUITES

_SAMPLE_DEFAULTS = {"relations": 10000, "arnold": 1000}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled verification (default: 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="deprecated: suites run serially, so it changes neither "
                             "results nor speed; verify still requires >= 1 (default: 1)")

    parser = _Parser(prog="braidcycles",
                     description="Tree-indexed cycles: enumeration, pairing, "
                                 "decomposition, rewriting, verification.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_trees = sub.add_parser("trees", parents=[common],
                             help="enumerate trees of a given genus")
    p_trees.add_argument("--g", type=int, required=True, help="genus (>= 3)")
    p_trees.add_argument("--balanced", action="store_true",
                         help="restrict to balanced trees")
    p_trees.add_argument("--count", action="store_true", help="print the count only")

    p_dec = sub.add_parser("decompose", parents=[common],
                           help="decompose a tree's cycle over the balanced basis")
    p_dec.add_argument("--tree", required=True,
                       help='tree text, e.g. "((1,2),3)"')
    p_dec.add_argument("--method", choices=("det", "rewrite", "both"), default="det",
                       help="determinant route, rewriting route, or both (default: det)")
    p_dec.add_argument("--trace", action="store_true",
                       help="record each rotation (rewrite/both only)")

    p_pair = sub.add_parser("pair", parents=[common],
                            help="pair an index sequence against a tree")
    p_pair.add_argument("--k", required=True, help="comma-separated sequence, e.g. 1,1")
    p_pair.add_argument("--tree", required=True, help="tree text")

    p_arn = sub.add_parser("arnold", parents=[common],
                           help="normalize a cohomology expression")
    p_arn.add_argument("--n", type=int, required=True, help="strand count")
    p_arn.add_argument("--expr", required=True,
                       help='expression, e.g. "w(1,3)*w(2,3)+2*w(1,2)*w(1,3)"')

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES),
                       help="suite name")
    p_ver.add_argument("--g", "--n", dest="param", type=int, required=True,
                       help="genus (or strand count for the arnold suite)")
    p_ver.add_argument("--sample", type=int, default=None,
                       help="sampled cases for the sampling suites")
    return parser


def _parse_k(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse index sequence {text!r}") from None
    return validate_k(entries)


def _cmd_trees(args) -> int:
    if args.count:
        count = _split_count(args.g, args.balanced)
        print(_dump({"g": args.g, "balanced": args.balanced, "count": count})
              if args.format == "json" else count)
    elif args.format == "json":
        # the bytes of one _dump over the whole list, written entry by entry
        entries = map(_dump, _json_listing(args.g, args.balanced))
        sys.stdout.write("[" + next(entries))
        sys.stdout.writelines("," + entry for entry in entries)
        print("]")
    else:
        print("\n".join(sorted(_tree_lists(args.g, args.balanced)[1])))
    return 0


def _cmd_decompose(args) -> int:
    if args.trace and args.method == "det":
        raise DomainError("--trace requires --method rewrite or both")
    t = parse_tree(args.tree)
    payload = {"tree": t.render(), "method": args.method}
    agree = None
    if args.method in ("det", "both"):
        via_det = decompose(t)
        payload.update(via_det.to_json())
    if args.method in ("rewrite", "both"):
        trace: list[dict] = []
        signed = reduce_to_balanced(t, trace=trace.append if args.trace else None)
        converted = signed.to_decomposition()
        if args.method == "rewrite":
            payload.update(converted.to_json())
        else:
            agree = converted == via_det
            payload["agree"] = agree
        payload["balanced_terms"] = signed.to_json()["terms"]
        if args.trace:
            payload["trace"] = trace

    if args.format == "json":
        print(_dump(payload))
    else:
        for term in payload["terms"]:
            print(f"{','.join(str(x) for x in term['k'])} -> {term['coeff']}")
        if agree is not None:
            print(f"agree: {'true' if agree else 'false'}")
    return 2 if agree is False else 0


def _cmd_pair(args) -> int:
    k = _parse_k(args.k)
    t = parse_tree(args.tree)
    value = pair(k, t)
    if args.format == "json":
        print(_dump({"g": t.genus, "k": list(k), "tree": t.render(), "pair": value}))
    else:
        print(value)
    return 0


def _cmd_arnold(args) -> int:
    result = parse_expression(args.expr, args.n)
    if args.format == "json":
        terms = [{"monomial": [[f.i, f.j] for f in mono.factors], "coeff": c}
                 for mono, c in result.terms]
        print(_dump({"n": args.n, "terms": terms, "text": format_class(result)}))
    else:
        print(format_class(result))
    return 0


def _cmd_verify(args) -> int:
    if args.threads < 1:
        raise DomainError("--threads must be at least 1")
    sample = args.sample
    if sample is None:
        sample = _SAMPLE_DEFAULTS.get(args.suite, 0)
    report = SUITES[args.suite](args.param, args.seed, sample)
    if args.format == "json":
        print(_dump(report.to_json()))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.suite} param={report.param} cases={report.cases} "
              f"failures={len(report.failures)} millis={report.millis} {status}")
        for failure in report.failures:
            print(f"  {_dump(failure)}")
    return 0 if report.passed else 2


_COMMANDS = {
    "trees": _cmd_trees,
    "decompose": _cmd_decompose,
    "pair": _cmd_pair,
    "arnold": _cmd_arnold,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads != 1:
        print("warning: --threads is deprecated and has no effect", file=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
