"""Command-line front end.

Exit codes: 0 success / found / valid; 1 search exhausted or claim not
established; 2 invalid certificate; 3 parse or usage error; 130
interrupted (Ctrl-C).

Machine output is line-oriented ``key=value`` records so scripts in any
language can scrape it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from importlib import resources

from .canonical import canonical_key
from .certificates import (
    CertificateError,
    parse_certificate,
    render_certificate,
    replay,
    validate_certificate,
)
from .diagram import (
    DiagramError,
    closure,
    connected_sum,
    cut,
    inverse,
    mirror,
    parse_gauss,
    render_gauss,
    reverse,
)
from .moves import MoveError
from .search import SearchBudget, reduce_diagram, search_equivalent, search_slice
from .surface import carter_report

EXIT_OK = 0
EXIT_NOT_ESTABLISHED = 1
EXIT_INVALID_CERT = 2
EXIT_USAGE = 3
EXIT_INTERRUPTED = 130


class UsageError(Exception):
    """A bad argument that argparse's own checks let through."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_budget_flags(p: argparse.ArgumentParser, cobordism: bool) -> None:
    default = SearchBudget()
    p.add_argument("--max-crossings", type=int, default=default.max_crossings)
    p.add_argument("--max-components", type=int, default=default.max_components)
    p.add_argument("--max-depth", type=int, default=default.max_depth)
    p.add_argument("--max-nodes", type=int, default=default.max_nodes)
    if cobordism:
        # One saddle and one death by default: enough to slice a knot
        # the way the bundled Kishino certificate does.
        p.add_argument("--max-saddles", type=int, default=1)
        p.add_argument("--max-births", type=int, default=default.max_births)
        p.add_argument("--max-deaths", type=int, default=1)


def _budget(args) -> SearchBudget:
    """The budget the flags name; a cap with no flag keeps its default."""
    names = [f.name for f in fields(SearchBudget) if hasattr(args, f.name)]
    try:
        return SearchBudget(**{name: getattr(args, name) for name in names})
    except ValueError as err:
        raise UsageError(f"bad budget: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="vknots", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a Gauss code and echo it normalized")
    p.add_argument("code")

    p = sub.add_parser("info", help="crossing/component/writhe stats and Carter genus")
    p.add_argument("code")

    p = sub.add_parser("canon", help="canonical key of a diagram")
    p.add_argument("code")

    p = sub.add_parser("apply", help="replay a certificate file, printing each diagram")
    p.add_argument("cert")

    p = sub.add_parser("validate", help="validate a certificate file")
    p.add_argument("cert")
    p.add_argument("--claim", choices=("concordance", "slice-disk"), required=True)

    p = sub.add_parser("sum", help="connected sum of two long diagrams")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("closure", help="close a long diagram")
    p.add_argument("code")

    p = sub.add_parser("cut", help="open a round diagram at an arc")
    p.add_argument("code")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--arc", type=int, required=True)

    p = sub.add_parser("inverse", help="concordance-group inverse of a long diagram")
    p.add_argument("code")

    p = sub.add_parser("mirror", help="mirror a diagram")
    p.add_argument("code")
    p.add_argument("--mode", choices=("switch", "reflect"), required=True)

    p = sub.add_parser("reverse", help="reverse orientation")
    p.add_argument("code")

    p = sub.add_parser("search-slice", help="search for a concordance to the unknot")
    p.add_argument("code")
    p.add_argument("--out", help="write the found certificate to this file")
    _add_budget_flags(p, cobordism=True)

    p = sub.add_parser("search-equiv", help="search for a Reidemeister path a -> b")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", help="write the found certificate to this file")
    _add_budget_flags(p, cobordism=False)

    p = sub.add_parser("reduce", help="search for a smaller diagram (R-moves only)")
    p.add_argument("code")
    _add_budget_flags(p, cobordism=False)

    p = sub.add_parser("demo", help="bundled demonstrations")
    p.add_argument("name", choices=("kishino",))
    p.add_argument(
        "--claim", choices=("concordance", "slice-disk"), default="concordance"
    )

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DiagramError, MoveError, CertificateError, UsageError, OSError) as err:
        print(f"vknots: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("vknots: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "parse":
        print(render_gauss(parse_gauss(args.code)))
        return EXIT_OK

    if cmd == "info":
        d = parse_gauss(args.code)
        report = carter_report(closure(d) if d.long else d)
        print(
            f"crossings={d.n_crossings} components={d.n_components} "
            f"writhe={d.writhe} genus={report.genus}"
        )
        print(report.record())
        return EXIT_OK

    if cmd == "canon":
        print(canonical_key(parse_gauss(args.code)))
        return EXIT_OK

    if cmd == "apply":
        cert = parse_certificate(_read(args.cert))
        try:
            diagrams = replay(cert)
        except MoveError as err:
            print(f"vknots: invalid certificate: {err}", file=sys.stderr)
            return EXIT_INVALID_CERT
        for d in diagrams:
            print(render_gauss(d))
        if canonical_key(diagrams[-1]) != canonical_key(cert.end):
            print("vknots: invalid certificate: end mismatch", file=sys.stderr)
            return EXIT_INVALID_CERT
        return EXIT_OK

    if cmd == "validate":
        cert = parse_certificate(_read(args.cert))
        report = validate_certificate(cert, args.claim)
        print(report.record())
        return EXIT_OK if report.ok else EXIT_INVALID_CERT

    if cmd == "sum":
        print(render_gauss(connected_sum(parse_gauss(args.left), parse_gauss(args.right))))
        return EXIT_OK

    if cmd == "closure":
        print(render_gauss(closure(parse_gauss(args.code))))
        return EXIT_OK

    if cmd == "cut":
        print(render_gauss(cut(parse_gauss(args.code), args.component, args.arc)))
        return EXIT_OK

    if cmd == "inverse":
        print(render_gauss(inverse(parse_gauss(args.code))))
        return EXIT_OK

    if cmd == "mirror":
        print(render_gauss(mirror(parse_gauss(args.code), args.mode)))
        return EXIT_OK

    if cmd == "reverse":
        print(render_gauss(reverse(parse_gauss(args.code))))
        return EXIT_OK

    if cmd == "search-slice":
        outcome = search_slice(parse_gauss(args.code), _budget(args))
        return _emit_search(outcome, args.out)

    if cmd == "search-equiv":
        outcome = search_equivalent(
            parse_gauss(args.left), parse_gauss(args.right), _budget(args)
        )
        return _emit_search(outcome, args.out)

    if cmd == "reduce":
        best, bound = reduce_diagram(parse_gauss(args.code), _budget(args))
        print(render_gauss(best))
        print(f"crossings={best.n_crossings} genus_bound={bound}")
        return EXIT_OK

    if cmd == "demo":
        return _demo_kishino(args.claim)

    raise AssertionError(f"unhandled command {cmd}")


def _emit_search(outcome, out_path) -> int:
    print(outcome.record())
    if outcome.certificate is not None:
        text = render_certificate(outcome.certificate)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    return EXIT_NOT_ESTABLISHED


def _data(name: str) -> str:
    return (resources.files("vknots") / "data" / name).read_text()


def _demo_kishino(claim: str) -> int:
    code = _data("kishino.gauss").strip()
    cert_file = (
        "kishino_concordance.cert"
        if claim == "concordance"
        else "kishino_slice_disk.cert"
    )
    cert = parse_certificate(_data(cert_file))
    print(f"kishino={code}")
    for d in replay(cert):
        print(render_gauss(d))
    report = validate_certificate(cert, claim)
    print(report.record())
    return EXIT_OK if report.ok else EXIT_INVALID_CERT


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise UsageError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


if __name__ == "__main__":
    sys.exit(main())
