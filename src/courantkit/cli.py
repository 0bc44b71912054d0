"""Command-line front end: verify, make, cohomology, dirac, linfty.

All reports are JSON with a stable schema version field; identical
invocations with identical seeds produce byte-identical output.  Exit codes:
0 all checks pass, 1 a check failed, 2 parse, usage or invariant error,
3 internal error (a bug: the traceback goes to stderr).

The grammar is built once, at import (``_PARSER``).  ``main(argv)`` may be
called many times in one process: each call parses its argv into a fresh
namespace, and argparse never changes the parser while parsing.  ``main``
returns every exit code above, a usage error's 2 and ``--help``'s 0
included, instead of raising ``SystemExit``.
"""

from __future__ import annotations

import argparse
import sys

from courantkit import fileio
from courantkit.axioms import SUITES, SuiteNotApplicableError, UnknownSuiteError, check_axioms
from courantkit.cohomology import CochainEscapeError, complex_summary
from courantkit.dirac import (
    MembershipError,
    Subbundle,
    _build_induced_htla,
    _check_dirac,
    search_coordinate_dirac,
)
from courantkit.exact import ParseError
from courantkit.fileio import StructureFileError, dumps_canonical
from courantkit.kerforms import UncertifiedFormError
from courantkit.linfty import build_classical, build_twisted, verify_linfty
from courantkit.structure import SpecInvariantError
from courantkit.twist import c_twist, make_standard, twist_bracket

SCHEMA = 2


class UsageError(Exception):
    """The command line lacks an argument or combines arguments wrongly."""


# no input reaches an ExactError, so one is a bug and exits 3
_USER_ERRORS = (StructureFileError, SpecInvariantError, ParseError,
                UnknownSuiteError, SuiteNotApplicableError, MembershipError,
                UncertifiedFormError, UsageError, OSError)


def _emit(doc: dict, args) -> None:
    if getattr(args, "text", False):
        _emit_text(doc)
    else:
        sys.stdout.write(dumps_canonical(doc))


def _emit_text(doc: dict, indent: str = "") -> None:
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _write_structure(doc: dict, out: str | None) -> None:
    text = dumps_canonical(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    spec = fileio.load_spec(args.file)
    report = check_axioms(spec, args.suite)
    _emit({"schema": SCHEMA, "command": "verify", **report.to_json()}, args)
    return 0 if report.passed else 1


def cmd_make(args) -> int:
    if args.what == "standard":
        spec = make_standard(args.n)
    elif args.what == "ctwist":
        if args.c is None:
            raise UsageError("make ctwist needs --c <base 3-form>")
        c3 = fileio.parse_inline_baseform(args.n, args.c)
        if any(len(k) != 3 for k in c3):
            raise UsageError("--c must be a base 3-form")
        spec = c_twist(args.n, c3)
    elif args.what == "twist":
        if args.base is None or args.b is None:
            raise UsageError("make twist needs --base <file> and --b <3-form>")
        spec0 = fileio.load_spec(args.base)
        b = fileio.parse_inline_kerform(spec0, args.b)
        if b.degree != 3:
            raise UsageError("--b must have degree 3")
        spec = twist_bracket(spec0, b)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown constructor {args.what!r}")
    _write_structure(fileio.spec_to_dict(spec), args.output)
    return 0


def cmd_cohomology(args) -> int:
    spec = fileio.load_spec(args.file)
    if args.truncate is None and not spec.is_point():
        raise UsageError("cohomology over a polynomial base needs --truncate "
                         "(a monomial truncation bound; Betti numbers are "
                         "point-only)")
    summary = complex_summary(spec, args.max_degree, args.truncate)
    doc = {"schema": SCHEMA, "command": "cohomology", **summary}
    _emit(doc, args)
    return 0 if summary["d_squared_zero"] else 1


def cmd_dirac(args) -> int:
    spec = fileio.load_spec(args.file)
    if args.search:
        found = search_coordinate_dirac(spec)
        _emit({"schema": SCHEMA, "command": "dirac", "search":
               [sub.to_json() for sub in found]}, args)
        return 0
    if not args.subspace:
        raise UsageError("dirac needs --subspace <file|inline> or --search")
    if args.subspace.endswith(".json"):
        gens = fileio.parse_subbundle_document(spec, fileio.read_json(args.subspace))
    elif args.subspace.lstrip().startswith("{"):
        gens = fileio.parse_subbundle_document(spec, fileio.parse_json(args.subspace))
    else:
        gens = [fileio.parse_inline_section(spec, chunk)
                for chunk in args.subspace.split(";") if chunk.strip()]
    sub = Subbundle(spec, gens)
    report, solved = _check_dirac(spec, sub)
    doc = {"schema": SCHEMA, "command": "dirac", "report": report.to_json(),
           "induced": None}
    if report.passed:
        # the check above is induced_htla's precondition; do not repeat it
        data, induced_report = _build_induced_htla(spec, sub, solved)
        doc["induced"] = data
        doc["induced_report"] = induced_report.to_json()
        _emit(doc, args)
        return 0 if induced_report.passed else 1
    _emit(doc, args)
    return 1


def cmd_linfty(args) -> int:
    spec = fileio.load_spec(args.file)
    if args.classical or spec.twist is None:
        data = build_classical(spec)
    else:
        data = build_twisted(spec)
    report = verify_linfty(data, seed=args.seed, degree=args.degree,
                           samples=args.tuples)
    doc = {"schema": SCHEMA, "command": "linfty",
           "packaging": "classical" if data.classical else "twisted",
           **report.to_json()}
    _emit(doc, args)
    return 0 if report.passed else 1


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Global flags, accepted both before and after the subcommand."""
    suppress = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--seed", type=int,
                        **({"default": 0} if top_level else suppress),
                        help="seed of linfty's random sections (default 0)")
    parser.add_argument("--degree", type=_at_least(0),
                        **({"default": 2} if top_level else suppress),
                        help="polynomial degree of those sections (default 2)")
    parser.add_argument("--json", dest="text", action="store_false",
                        **({"default": False} if top_level else suppress),
                        help="JSON output (default)")
    parser.add_argument("--text", dest="text", action="store_true",
                        **({} if top_level else suppress),
                        help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courantkit",
        description="Exact verification and construction of twisted Courant "
                    "algebroid structures.")
    _add_common(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an axiom suite on a structure file")
    p.add_argument("file")
    p.add_argument("--suite", default="courant", choices=sorted(SUITES))
    # still parsed, so that command lines written for the sampled suites run
    p.add_argument("--tuples", type=_at_least(0), default=3,
                   help="no effect: every axiom is decided on a finite set")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make", help="construct a structure file")
    p.add_argument("what", choices=("standard", "ctwist", "twist"))
    p.add_argument("--n", type=_at_least(1), default=2, help="base variables")
    p.add_argument("--c", default=None, help="base 3-form, e.g. 'x1*dx2^dx3^dx4'")
    p.add_argument("--base", default=None, help="structure file to twist")
    p.add_argument("--b", default=None, help="twisting 3-form, e.g. 'e1^e2^e3'")
    p.add_argument("-o", "--output", default=None)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("cohomology", help="cochain dimensions and Betti numbers")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_at_least(0), required=True)
    p.add_argument("--truncate", type=_at_least(0), default=None,
                   help="monomial truncation bound (polynomial bases)")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("dirac", help="check a subbundle or search coordinate ones")
    p.add_argument("file")
    p.add_argument("--subspace", default=None,
                   help="generators file, inline JSON, or 'e1; e2+x1*e3'")
    p.add_argument("--search", action="store_true")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_dirac)

    p = sub.add_parser("linfty", help="verify the two-term homotopy packaging")
    p.add_argument("file")
    p.add_argument("--classical", action="store_true",
                   help="force the classical packaging")
    p.add_argument("--tuples", type=_at_least(0), default=3)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_linfty)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return exc.code
    try:
        return args.func(args)
    except CochainEscapeError as exc:
        sys.stdout.write(dumps_canonical(
            {"schema": SCHEMA, "error": str(exc), "kind": "cochain-escape"}))
        return 1
    except _USER_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        import traceback  # only a bug reaches here; keep it out of start-up

        sys.stderr.write("internal error (a bug in courantkit):\n")
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
