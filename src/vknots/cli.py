"""Command-line front end.

Exit codes: 0 success / found / valid; 1 search exhausted or budget-hit,
or claim not established; 2 invalid certificate; 3 parse or usage error;
130 interrupted (Ctrl-C).

Machine output is line-oriented ``key=value`` records so scripts in any
language can scrape it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from importlib import resources

from .canonical import canonical_key, compact_key
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

CLAIMS = ("concordance", "slice-disk")
# search-slice's caps by default: one saddle and one death, enough to
# slice a knot the way the bundled Kishino certificate does
SLICE_BUDGET = SearchBudget(max_saddles=1, max_deaths=1)
# the caps the R-move-only commands have no flag for
_COBORDISM_CAPS = ("max_saddles", "max_births", "max_deaths")


class UsageError(Exception):
    """A bad argument that argparse's own checks let through."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        # the root prog, as on every error line: a subcommand's prog is
        # "vknots cut"
        print(f"vknots: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int(text: str) -> int:
    """An optional `-` and ASCII digits, as Gauss codes and move lines
    read them: int() alone also reads other digits and `_` grouping."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_budget_flags(p, default=SearchBudget(), cobordism=False) -> None:
    """A `--max-*` flag for each `SearchBudget` field, defaulting to that
    field of `default`; the cobordism caps only if `cobordism`."""
    for f in fields(SearchBudget):
        if cobordism or f.name not in _COBORDISM_CAPS:
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=_int, default=getattr(default, f.name))


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

    def command(name, help, handler, *positionals):
        """The parser of subcommand `name`, which `main` runs as `handler(args)`."""
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler)
        return p

    def diagram(name, help, op, codes=("code",)):
        """A command printing `op(*diagrams, args)`, its Gauss codes parsed."""
        def handler(args):
            diagrams = [parse_gauss(getattr(args, code)) for code in codes]
            print(render_gauss(op(*diagrams, args)))
            return EXIT_OK
        return command(name, help, handler, *codes)

    diagram("parse", "parse a Gauss code and echo it normalized", lambda d, a: d)
    command("info", "crossing/component/writhe stats and Carter genus", _info, "code")
    command("canon", "canonical key of a diagram", _canon, "code")
    command("apply", "replay a certificate file, printing each diagram", _apply, "cert")
    p = command("validate", "validate a certificate file", _validate, "cert")
    p.add_argument("--claim", choices=CLAIMS, required=True)
    diagram("sum", "connected sum of two long diagrams",
            lambda left, right, a: connected_sum(left, right), ("left", "right"))
    diagram("closure", "close a long diagram", lambda d, a: closure(d))
    p = diagram("cut", "open a round diagram at an arc",
                lambda d, a: cut(d, a.component, a.arc))
    p.add_argument("--component", type=_int, default=0)
    p.add_argument("--arc", type=_int, required=True)
    diagram("inverse", "concordance-group inverse of a long diagram",
            lambda d, a: inverse(d))
    p = diagram("mirror", "mirror a diagram", lambda d, a: mirror(d, a.mode))
    p.add_argument("--mode", choices=("switch", "reflect"), required=True)
    diagram("reverse", "reverse orientation", lambda d, a: reverse(d))

    out = "write the found certificate to this file"
    p = command("search-slice", "search for a concordance to the unknot",
                lambda a: _search(a, search_slice, a.code), "code")
    p.add_argument("--out", help=out)
    _add_budget_flags(p, SLICE_BUDGET, cobordism=True)
    p = command("search-equiv", "search for a Reidemeister path a -> b",
                lambda a: _search(a, search_equivalent, a.left, a.right),
                "left", "right")
    p.add_argument("--out", help=out)
    _add_budget_flags(p)
    p = command("reduce", "search for a smaller diagram (R-moves only)",
                _reduce, "code")
    _add_budget_flags(p)

    p = command("demo", "bundled demonstrations", _demo)
    p.add_argument("name", choices=("kishino",))
    p.add_argument("--claim", choices=CLAIMS, default="concordance")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DiagramError, MoveError, CertificateError, UsageError, OSError) as err:
        print(f"vknots: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("vknots: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _info(args) -> int:
    d = parse_gauss(args.code)
    report = carter_report(closure(d) if d.long else d)
    print(
        f"crossings={d.n_crossings} components={d.n_components} "
        f"writhe={d.writhe} genus={report.genus}"
    )
    print(report.record())
    return EXIT_OK


def _canon(args) -> int:
    print(canonical_key(parse_gauss(args.code)))
    return EXIT_OK


def _apply(args) -> int:
    cert = parse_certificate(_read(args.cert))
    try:
        diagrams = replay(cert)
    except MoveError as err:
        print(f"vknots: invalid certificate: {err}", file=sys.stderr)
        return EXIT_INVALID_CERT
    for d in diagrams:
        print(render_gauss(d))
    if compact_key(diagrams[-1]) != compact_key(cert.end):
        print("vknots: invalid certificate: end mismatch", file=sys.stderr)
        return EXIT_INVALID_CERT
    return EXIT_OK


def _validate(args) -> int:
    cert = parse_certificate(_read(args.cert))
    report = validate_certificate(cert, args.claim)
    print(report.record())
    return EXIT_OK if report.ok else EXIT_INVALID_CERT


def _reduce(args) -> int:
    best, bound = reduce_diagram(parse_gauss(args.code), _budget(args))
    print(render_gauss(best))
    print(f"crossings={best.n_crossings} genus_bound={bound}")
    return EXIT_OK


def _search(args, search, *codes) -> int:
    """Run `search` on the diagrams of `codes`; print its record and any certificate."""
    outcome = search(*map(parse_gauss, codes), _budget(args))
    print(outcome.record())
    if outcome.certificate is not None:
        text = render_certificate(outcome.certificate)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    return EXIT_NOT_ESTABLISHED


def _data(name: str) -> str:
    return (resources.files("vknots") / "data" / name).read_text()


def _demo(args) -> int:
    code = _data("kishino.gauss").strip()
    # kishino_concordance.cert or kishino_slice_disk.cert
    cert = parse_certificate(_data(f"kishino_{args.claim.replace('-', '_')}.cert"))
    print(f"kishino={code}")
    for d in replay(cert):
        print(render_gauss(d))
    report = validate_certificate(cert, args.claim)
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
