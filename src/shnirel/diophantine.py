"""Constructive solvers for two-row matrix systems: nonnegative integer
matrices whose columns sum to primes and whose rows sum to a prescribed
pair (a, b).

Three flavors are covered, named after their command-line tokens: thm1
fixes four columns with odd prime targets, thm2 uses the fewest odd
prime targets, and conj1 replaces the column-sum constraint with a
square-sum one, so each column is a Gaussian prime in the closed first
quadrant and its target is the norm. Every solver runs
SolutionMatrix.validate before it returns, so a wrong matrix raises
ValueError instead of leaving the library.
"""

from __future__ import annotations

from enum import Enum

from .primes import is_gaussian_prime, is_rational_prime
from .ratdecomp import SearchExhausted, four_odd_primes, min_odd_prime_terms
from .report import Report
from .zcore import GaussianInt, Region, in_region

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator


class SystemKind(Enum):
    FOUR_COLUMNS = "thm1"
    MIN_COLUMNS = "thm2"
    SQUARE_COLUMNS = "conj1"


class SolutionMatrix(Report):
    """A solved system: column j satisfies row_a[j] + row_b[j] = targets[j]
    (or a square sum for the conj1 kind), rows sum to a and b.

    Columns are kept in descending (target, x1, x2) order.
    """

    kind: SystemKind
    targets: tuple[int, ...]
    row_a: tuple[int, ...]
    row_b: tuple[int, ...]
    case: int | None = None

    @classmethod
    def from_columns(
        cls,
        kind: SystemKind,
        columns: list[tuple[int, int, int]],
        case: int | None,
    ) -> "SolutionMatrix":
        cols = sorted(columns, reverse=True)
        return cls(
            kind,
            tuple(c[0] for c in cols),
            tuple(c[1] for c in cols),
            tuple(c[2] for c in cols),
            case,
        )

    @property
    def a(self) -> int:
        return sum(self.row_a)

    @property
    def b(self) -> int:
        return sum(self.row_b)

    @property
    def k(self) -> int:
        return len(self.targets)

    def columns(self) -> list[tuple[int, int, int]]:
        return list(zip(self.targets, self.row_a, self.row_b))

    def validate(self) -> None:
        """Raise ValueError unless the matrix solves its system."""
        if not (len(self.targets) == len(self.row_a) == len(self.row_b)):
            raise ValueError("ragged matrix")
        if not self.targets:
            raise ValueError("empty matrix")
        if self.kind is SystemKind.FOUR_COLUMNS and self.k != 4:
            raise ValueError(f"thm1 needs exactly 4 columns, got {self.k}")
        for t, x1, x2 in self.columns():
            if x1 < 0 or x2 < 0:
                raise ValueError(f"negative entry in column with target {t}")
            if self.kind is SystemKind.SQUARE_COLUMNS:
                z = GaussianInt(x1, x2)
                if x1 * x1 + x2 * x2 != t:
                    raise ValueError(f"column ({x1},{x2}) misses square target {t}")
                if not is_gaussian_prime(z):
                    raise ValueError(f"column entry {z} is not a Gaussian prime")
                if (x1 + x2) % 2 == 0:
                    raise ValueError(f"column entry {z} is even")
                if not in_region(z, Region.PRIME_QUADRANT):
                    raise ValueError(f"column entry {z} is outside the first quadrant")
            else:
                if x1 + x2 != t:
                    raise ValueError(f"column ({x1},{x2}) misses target {t}")
                if t % 2 == 0 or not is_rational_prime(t):
                    raise ValueError(f"target {t} is not an odd prime")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "case": self.case,
            "a": self.a,
            "b": self.b,
            "k": self.k,
            "columns": [
                {"target": t, "x1": x1, "x2": x2} for t, x1, x2 in self.columns()
            ],
        }

    def md_lines(self) -> Iterator[str]:
        case = "" if self.case is None else f", case {self.case}"
        yield f"kind {self.kind.value}{case}: a={self.a}, b={self.b}, k={self.k}\n"
        yield "\n| target | x1 | x2 |\n|---|---|---|\n"
        for t, x1, x2 in self.columns():
            yield f"| {t} | {x1} | {x2} |\n"

    def csv_lines(self) -> Iterator[str]:
        yield "target,x1,x2\n"
        for t, x1, x2 in self.columns():
            yield f"{t},{x1},{x2}\n"


def solve_four_columns(a: int, b: int) -> SolutionMatrix:
    """Four odd prime targets with row sums (a, b), a >= b >= 1, a+b even.

    The targets are the canonical four-odd-prime split p >= q >= r >= l
    of a + b. Which suffix of the split b fits under picks one of four
    closed fill patterns; every pattern keeps entries nonnegative.
    """
    if b < 1 or a < b:
        raise ValueError("need a >= b >= 1")
    n = a + b
    if n % 2 or n < 12:
        raise ValueError("a + b must be an even integer of at least 12")
    p, q, r, l = four_odd_primes(n)
    if b <= l:
        case = 1
        cols = [(p, p, 0), (q, q, 0), (r, r, 0), (l, l - b, b)]
    elif b <= r + l:
        case = 2
        cols = [(p, p, 0), (q, q, 0), (r, r + l - b, b - l), (l, 0, l)]
    elif b <= q + r + l:
        case = 3
        cols = [(p, p, 0), (q, q + r + l - b, b - r - l), (r, 0, r), (l, 0, l)]
    else:
        case = 4
        cols = [(p, a, b - q - r - l), (q, 0, q), (r, 0, r), (l, 0, l)]
    matrix = SolutionMatrix.from_columns(SystemKind.FOUR_COLUMNS, cols, case)
    matrix.validate()
    return matrix


def _fill_second_row(
    targets_desc: tuple[int, ...], b: int
) -> list[tuple[int, int, int]]:
    """Distribute b over the columns, smallest target first."""
    cols: list[tuple[int, int, int]] = []
    rest = b
    for t in reversed(targets_desc):
        x2 = min(rest, t)
        rest -= x2
        cols.append((t, t - x2, x2))
    if rest:
        raise AssertionError("second row exceeds the column capacity")
    return cols


def solve_min_columns(a: int, b: int, max_terms: int = 8) -> SolutionMatrix:
    """Fewest odd prime targets with row sums (a, b), a >= 1, b >= 1."""
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    _, targets = min_odd_prime_terms(a + b, max_terms)
    cols = _fill_second_row(targets, b)
    matrix = SolutionMatrix.from_columns(SystemKind.MIN_COLUMNS, cols, None)
    matrix.validate()
    return matrix


def solve_square_columns(a: int, b: int, max_terms: int = 6) -> SolutionMatrix:
    """Columns are odd Gaussian primes x1 + x2*i in the closed first
    quadrant whose norms are the targets; rows sum to (a, b); as few
    columns as possible."""
    z = GaussianInt(a, b)
    if a < 0 or b < 0 or z.is_zero():
        raise ValueError("need a nonzero target with a >= 0 and b >= 0")
    # imported here, so the rational solvers load no Gaussian search layer
    from .gaussdecomp import NormPolicy, find_decomposition

    dec = find_decomposition(z, Region.PRIME_QUADRANT, max_terms, NormPolicy.NONE)
    if dec is None:
        raise SearchExhausted(
            f"{z} is not a sum of up to {max_terms} first-quadrant Gaussian primes"
        )
    cols = [(s.norm(), s.re, s.im) for s in dec.summands()]
    matrix = SolutionMatrix.from_columns(SystemKind.SQUARE_COLUMNS, cols, None)
    matrix.validate()
    return matrix


__all__ = [
    "SolutionMatrix",
    "SystemKind",
    "solve_four_columns",
    "solve_min_columns",
    "solve_square_columns",
]
