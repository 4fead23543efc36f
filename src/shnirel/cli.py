"""Command line interface.

Subcommands: sieve, decompose, solve-thm1, solve-thm2, solve-conj1,
scan, obstruction, hypotheses, thm130, tables. Every reporting command
takes --format csv|json|md and --out FILE, writes the payload there,
and prints a one-line summary on stderr. Exit codes: 0 on success, 1
when the data says no (no decomposition, exceptions found, validation
failures), 2 for unusable arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from bisect import bisect_right
from itertools import chain
from operator import countOf, itemgetter

from .primes import CACHE_ENV
from .report import FORMATS, HypothesisViolation, Report, SearchExhausted
from .zcore import GaussianInt, Region, in_region

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

    from .gaussdecomp import Decomposition

# Each cmd_* function imports the modules it runs, so a command loads only
# its own layers. These are the keys of ratdecomp.HYPOTHESES, written out so
# that building the parser does not import ratdecomp; a test keeps them equal.
HYPOTHESIS_INDICES = (1, 2, 3, 4)

PRIME_REGIONS = (
    Region.PRIME_SECTOR.value,
    Region.PRIME_QUADRANT.value,
    Region.PRIME_HALF.value,
)


def parse_gaussian(text: str) -> GaussianInt:
    """Accept 'RE,IM' or a bare integer."""
    if "," in text:
        a, _, b = text.partition(",")
        return GaussianInt(int(a), int(b))
    return GaussianInt(int(text), 0)


def parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    return int(lo), int(hi)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _check_out(path: str) -> None:
    """Raise OSError now, before any work, when path cannot be opened for
    writing. Append mode leaves an existing file's bytes as they are, and
    a file this check creates is removed again."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(args, report: Report) -> None:
    """Write the report in args.format to args.out, or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            report.write(fh, args.format)
    else:
        report.write(sys.stdout, args.format)


class SieveReport(Report):
    """The primes up to limit themselves when listing, else their count."""

    limit: int
    primes: tuple[int, ...]
    cache: str | None
    mod4: int | None
    listing: bool

    @property
    def largest(self) -> int | None:
        return self.primes[-1] if self.primes else None

    def to_json_dict(self) -> dict | list[int]:
        if self.listing:
            return list(self.primes)
        return {
            "limit": self.limit,
            "count": len(self.primes),
            "largest": self.largest,
            "cache": self.cache,
            "mod4": self.mod4,
        }

    def md_lines(self) -> Iterable[str]:
        if self.listing:
            return (f"{p}\n" for p in self.primes)
        mod4 = "" if self.mod4 is None else f" (mod 4 = {self.mod4})"
        cache = f", cache {self.cache}" if self.cache else ""
        return [f"{len(self.primes)} primes up to {self.limit}{mod4}{cache}\n"]

    def csv_lines(self) -> Iterable[str]:
        if self.listing:
            return chain(["n\n"], (f"{p}\n" for p in self.primes))
        largest = "" if self.largest is None else self.largest
        return ["limit,count,largest\n", f"{self.limit},{len(self.primes)},{largest}\n"]


class RoutedDecomposition(Report):
    """A --chain decomposition and the route that found it."""

    dec: Decomposition
    route: str

    def to_json_dict(self) -> dict:
        return dict(self.dec.to_json_dict(), route=self.route)

    def md_lines(self) -> Iterable[str]:
        return chain(self.dec.md_lines(), [f"route: {self.route}\n"])

    def csv_lines(self) -> Iterable[str]:
        return self.dec.csv_lines()


def cmd_sieve(args) -> int:
    from .primes import ensure_table

    table = ensure_table(args.limit, args.cache)
    primes = table.primes if args.mod4 is None else table.residue_class(args.mod4)
    primes = tuple(primes[: bisect_right(primes, args.limit)])
    _emit(args, SieveReport(args.limit, primes, args.cache, args.mod4, args.list))
    _summary(f"primes: {len(primes)} up to {args.limit}")
    return 0


def cmd_decompose(args) -> int:
    from .gaussdecomp import NormPolicy, find_decomposition, four_term_decompose

    z = parse_gaussian(args.z)
    region = Region(args.primes)
    policy = NormPolicy.STRICT_LESS if args.strict_norm else NormPolicy.NONE
    if args.chain:
        got = four_term_decompose(z, region, policy)
        if got is None:
            if in_region(z, region):
                _summary(f"{z}: no split into at most four primes; counterexample candidate")
            else:
                _summary(
                    f"{z}: outside the {region.value} cone, which holds every sum of "
                    f"its primes; geometric obstruction"
                )
            return 1
        dec, route = got
        _emit(args, RoutedDecomposition(dec, route))
        _summary(f"terms: {dec.k}, route: {route}")
        return 0
    dec = find_decomposition(
        z, region, args.max_terms, policy, include_single=not args.no_single
    )
    if dec is None:
        _summary(f"{z}: no decomposition into at most {args.max_terms} terms")
        return 1
    _emit(args, dec)
    note = " (single: the target itself is prime)" if dec.k == 1 else ""
    _summary(f"terms: {dec.k}{note}")
    return 0


def _emit_matrix(args, matrix) -> int:
    _emit(args, matrix)
    case = "" if matrix.case is None else f", case {matrix.case}"
    _summary(f"columns: {matrix.k}{case}")
    return 0


def cmd_solve_thm1(args) -> int:
    from .diophantine import solve_four_columns

    return _emit_matrix(args, solve_four_columns(args.a, args.b))


def cmd_solve_thm2(args) -> int:
    from .diophantine import solve_min_columns

    return _emit_matrix(args, solve_min_columns(args.a, args.b, args.kmax))


def cmd_solve_conj1(args) -> int:
    from .diophantine import solve_square_columns

    return _emit_matrix(args, solve_square_columns(args.a, args.b, args.kmax))


def cmd_scan(args) -> int:
    from .gaussdecomp import NormPolicy, scan_box

    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    policy = NormPolicy.STRICT_LESS if args.strict_norm else NormPolicy.NONE
    report = scan_box(
        Region(args.targets),
        parse_range(args.re),
        parse_range(args.im),
        Region(args.primes),
        args.max_terms,
        policy,
        min_max_component=args.min_max_component,
    )
    _emit(args, report)
    missing = countOf(map(itemgetter(3), report.int_rows), None)
    _summary(f"targets: {len(report.int_rows)}, exceptions: {missing}")
    return 1 if missing else 0


def cmd_obstruction(args) -> int:
    from .gaussdecomp import verify_diagonal_obstruction

    report = verify_diagonal_obstruction(args.bound, args.max_terms)
    _emit(args, report)
    _summary(
        f"bound {report.bound}: "
        + ("inequality holds" if report.holds else f"{len(report.violations)} violations")
    )
    return 0 if report.holds else 1


def cmd_hypotheses(args) -> int:
    from .ratdecomp import HypothesisReports, hypothesis_scans

    indices = [args.index] if args.index is not None else HYPOTHESIS_INDICES
    reports = hypothesis_scans(indices, 1, args.upper)
    _emit(args, HypothesisReports(tuple(reports)))
    _summary(
        "; ".join(
            f"hypothesis {r.spec.index}: c0 candidate {r.c0_candidate}" for r in reports
        )
    )
    return 1 if any(r.exceptions for r in reports) else 0


def cmd_thm130(args) -> int:
    if args.c0 < 9:  # n - 9, after three 3s, must stay at least 9
        raise ValueError(f"c0 must be at least 9, got {args.c0}")
    from .ratdecomp import residue34_chain

    result = residue34_chain(args.n, args.c0 + 9)
    _emit(args, result)
    _summary(f"{result.n}: {result.m} primes of the form 4t+3")
    return 0


def cmd_tables(args) -> int:
    from . import golden as golden_mod

    rows = golden_mod.load_golden()
    if args.regenerate:
        report = golden_mod.regenerate_tables(rows)
        _emit(args, report)
        _summary(
            f"rows: {report.total}, regenerated: {report.total - len(report.failures)}, "
            f"failures: {len(report.failures)}"
        )
        return 0 if report.ok else 1
    validation = golden_mod.validate_golden(rows)
    typos = sum(1 for row in rows if row.note)
    _emit(args, validation)
    _summary(
        f"rows: {validation.total - len(validation.failures)} passed, "
        f"{len(validation.failures)} failed, {typos} annotated typos"
    )
    return 0 if validation.ok else 1


def _sieve_options(sub) -> None:
    sub.add_argument("--limit", type=int, required=True)
    sub.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV),
        help=f"prime cache file (default from ${CACHE_ENV})",
    )
    sub.add_argument("--mod4", type=int, choices=(1, 3), default=None)
    sub.add_argument("--list", action="store_true", help="print the primes themselves")


def _decompose_options(sub) -> None:
    sub.add_argument("--z", required=True, help="Gaussian integer as RE,IM or a bare integer")
    sub.add_argument("--primes", choices=PRIME_REGIONS, default=Region.PRIME_SECTOR.value)
    sub.add_argument("--max-terms", type=int, default=3)
    sub.add_argument(
        "--strict-norm",
        action="store_true",
        help="every summand norm must stay below the target norm",
    )
    sub.add_argument(
        "--no-single",
        action="store_true",
        help="do not report a prime target as its own one-term sum",
    )
    sub.add_argument(
        "--chain",
        action="store_true",
        help="use the shift-by-an-inert-prime route for even targets",
    )


def _row_sum_options(kmax: int | None):
    """The solvers' options: row sums a and b, and --kmax unless None."""

    def options(sub) -> None:
        sub.add_argument("--a", type=int, required=True)
        sub.add_argument("--b", type=int, required=True)
        if kmax is not None:
            sub.add_argument("--kmax", type=int, default=kmax)

    return options


def _scan_options(sub) -> None:
    sub.add_argument("--targets", choices=[r.value for r in Region], required=True)
    sub.add_argument("--re", required=True, help="real part range as LO..HI")
    sub.add_argument("--im", required=True, help="imaginary part range as LO..HI")
    sub.add_argument("--primes", choices=PRIME_REGIONS, required=True)
    sub.add_argument("--max-terms", type=int, default=3)
    sub.add_argument("--strict-norm", action="store_true")
    sub.add_argument(
        "--min-max-component",
        type=int,
        default=0,
        help="skip targets whose larger component is below this",
    )
    sub.add_argument(
        "--jobs", type=int, default=1, help="at least 1; unused, scans run in one process"
    )


def _obstruction_options(sub) -> None:
    sub.add_argument(
        "--bound", type=int, required=True, help="largest real part to sweep, at most 500"
    )
    sub.add_argument("--max-terms", type=int, default=6)


def _hypotheses_options(sub) -> None:
    sub.add_argument("--index", type=int, choices=HYPOTHESIS_INDICES, default=None)
    sub.add_argument("--upper", type=int, required=True, help="scan n from 1 to this bound")


def _thm130_options(sub) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--c0", type=int, default=9, help="empirical threshold, at least 9; n must reach c0+9"
    )


def _tables_options(sub) -> None:
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--validate", action="store_true", help="check every stored row")
    mode.add_argument("--regenerate", action="store_true", help="re-derive every row")


def _commands() -> dict:
    """name -> (help, handler, options adder) of each subcommand, in the
    order the help lists them. Made per call, so that the handlers are
    looked up when a parser is built."""
    return {
        "sieve": ("build or refresh the rational prime table", cmd_sieve, _sieve_options),
        "decompose": (
            "decompose a Gaussian integer into region primes", cmd_decompose, _decompose_options,
        ),
        "solve-thm1": (
            "four prime columns with row sums a, b", cmd_solve_thm1, _row_sum_options(None),
        ),
        "solve-thm2": (
            "fewest prime columns with row sums a, b", cmd_solve_thm2, _row_sum_options(8),
        ),
        "solve-conj1": (
            "Gaussian prime columns with square targets and row sums a, b",
            cmd_solve_conj1,
            _row_sum_options(6),
        ),
        "scan": ("decompose every target in a component box", cmd_scan, _scan_options),
        "obstruction": (
            "exhaustively confirm the diagonal gap of sector prime sums",
            cmd_obstruction,
            _obstruction_options,
        ),
        "hypotheses": (
            "scan the residue-class splits into primes of the form 4t+3",
            cmd_hypotheses,
            _hypotheses_options,
        ),
        "thm130": (
            "write n as three to six primes of the form 4t+3", cmd_thm130, _thm130_options,
        ),
        "tables": (
            "validate or regenerate the reference tables", cmd_tables, _tables_options,
        ),
    }


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command's alone when it names
    one: a run parses with only the subparser it invokes. Either way each
    subparser's prog is "shnirel NAME", and the top-level usage lists every
    name, so help, usage and error text come out the same."""
    parser = argparse.ArgumentParser(
        prog="shnirel",
        description="Additive prime decompositions over the rational and Gaussian integers",
    )
    table = _commands()
    names = [command] if command in table else list(table)
    # a lone subparser's usage still lists every name. The full parser
    # leaves metavar unset: argparse would name a missing command by it
    metavar = "{" + ",".join(table) + "}" if len(names) == 1 else None
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, options = table[name]
        sub = commands.add_parser(name, help=help_text)
        options(sub)
        sub.add_argument("--format", choices=FORMATS, default="md")
        sub.add_argument("--out", help="write to this file instead of stdout")
        sub.set_defaults(func=handler)
    return parser


def entry(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (SearchExhausted, HypothesisViolation) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        # OSError: an --out or --cache path that cannot be opened
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
