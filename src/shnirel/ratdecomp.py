"""Additive splits of rational integers into odd primes and into primes
congruent to 3 mod 4.

Covers fixed-length splits with canonical witnesses, minimal-length
search, residue-class exception scans over a range, and the chain
construction that reaches every large integer with three to six terms
from the 3 mod 4 class.
"""

from __future__ import annotations

from itertools import chain

from .primes import PrimeTable
from .report import HypothesisViolation, Report, SearchExhausted
from .zcore import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

_shared_table: PrimeTable | None = None
_odd_pool: list[int] = []
_r34_pool: list[int] = []


def _grow(limit: int) -> None:
    global _shared_table, _odd_pool, _r34_pool
    if _shared_table is not None and _shared_table.limit >= limit:
        return
    _shared_table = PrimeTable.sieve(max(limit, 1 << 16))
    _odd_pool = _shared_table.primes[1:]
    _r34_pool = _shared_table.residue_class(3)


def _first_split(n: int, k: int, pool: list[int], levels: list[dict]) -> tuple | None:
    """The lexicographically first non-decreasing k-term sum of n from the
    ascending pool, repeats allowed, largest term first, or None.

    First-term lemma: it is the first pool prime p that leaves n - p a
    (k-1)-term sum (any term q of a sum leaves n - q one), plus the first
    such sum of n - p (a term q < p there would have come first). So nothing
    backtracks, and p * k > n ends the scan. levels[k - 1] memoizes k-term
    results. Level 1 reads the sieve flags, exactly: callers fix n = k mod 2
    (odd pool) or n = 3k mod 4 (3 mod 4 pool), which taking off pool primes
    keeps, so the last term is in the pool's class.

    Both levels below are read inline, without a call: at k = 2 the flags,
    above it the memo of level k - 1, which a scan has mostly filled at
    n - 3 already. Only a memo miss recurses.
    """
    if k == 1:
        return (n,) if _shared_table._flags[n] else None
    memo = levels[k - 1]
    if n in memo:
        return memo[n]
    wit = None
    if k == 2:
        flags = _shared_table._flags
        for p in pool:
            if p * 2 > n:
                break
            if flags[n - p]:
                wit = (n - p, p)
                break
    else:
        below = levels[k - 2]
        for p in pool:
            if p * k > n:
                break
            m = n - p
            rest = below[m] if m in below else _first_split(m, k - 1, pool, levels)
            if rest is not None:
                wit = rest + (p,)
                break
    memo[n] = wit
    return wit


def split_into_odd_primes(n: int, k: int) -> tuple[int, ...] | None:
    """n as a sum of k odd primes, largest term first, or None.

    The witness is the lexicographically smallest non-decreasing
    solution, reported in descending order. A sum of k odd terms shares
    the parity of k, so mismatched inputs fail without search.
    """
    if k < 1 or n < 3 * k or n % 2 != k % 2:
        return None
    _grow(n)
    return _first_split(n, k, _odd_pool, [{} for _ in range(k)])


def split_into_residue34_primes(n: int, k: int) -> tuple[int, ...] | None:
    """n as a sum of k primes all congruent to 3 mod 4, largest first.

    Such a sum is 3k mod 4, so anything off that residue fails fast.
    """
    if k < 1 or n < 3 * k or (n - 3 * k) % 4 != 0:
        return None
    _grow(n)
    return _first_split(n, k, _r34_pool, [{} for _ in range(k)])


def four_odd_primes(n: int) -> tuple[int, int, int, int]:
    """Even n of at least 12 as a sum of four odd primes."""
    if n % 2 or n < 12:
        raise ValueError("four_odd_primes needs an even integer of at least 12")
    got = split_into_odd_primes(n, 4)
    if got is None:
        raise SearchExhausted(f"no four-odd-prime split of {n}")
    return (got[0], got[1], got[2], got[3])


def min_odd_prime_terms(n: int, max_terms: int = 8) -> tuple[int, tuple[int, ...]]:
    """Fewest odd primes summing to n, with the canonical witness."""
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    for k in range(1, max_terms + 1):
        got = split_into_odd_primes(n, k)
        if got is not None:
            return (k, got)
    raise SearchExhausted(f"{n} is not a sum of up to {max_terms} odd primes")


class HypothesisSpec(Record):
    """One residue-class claim: every large n matching residue mod 4 is a
    sum of k primes congruent to 3 mod 4."""

    index: int
    residue: int
    k: int


# H_i takes k = i + 1 terms, so it covers n = 3k (mod 4).
HYPOTHESES = {i: HypothesisSpec(i, 3 * (i + 1) % 4, i + 1) for i in range(1, 5)}


_HYPOTHESIS_CSV_HEAD = "n,residue,k,witness\n"


class HypothesisReport(Report):
    """Scan outcome for one residue-class claim over [lo, hi]."""

    spec: HypothesisSpec
    lo: int
    hi: int
    rows: tuple[tuple[int, tuple[int, ...] | None], ...]
    exceptions: tuple[int, ...]

    @property
    def max_exception(self) -> int | None:
        return self.exceptions[-1] if self.exceptions else None

    @property
    def c0_candidate(self) -> int | None:
        """Smallest threshold consistent with the scan: one residue step
        past the largest failure."""
        if not self.exceptions:
            return None
        return self.exceptions[-1] + 4

    def to_json_dict(self) -> dict:
        return {
            "hypothesis": self.spec.index,
            "residue": self.spec.residue,
            "k": self.spec.k,
            "lo": self.lo,
            "hi": self.hi,
            "rows": [
                {"n": n, "witness": None if w is None else list(w)}
                for n, w in self.rows
            ],
            "exceptions": list(self.exceptions),
            "max_exception": self.max_exception,
            "c0_candidate": self.c0_candidate,
        }

    def md_lines(self) -> list[str]:
        spec = self.spec
        exc = ", ".join(str(n) for n in self.exceptions) or "none"
        return [
            f"hypothesis {spec.index} (n = {spec.residue} mod 4, k = {spec.k}) "
            f"over [{self.lo}, {self.hi}]: {len(self.rows)} targets, "
            f"exceptions: {exc}, max exception: {self.max_exception}, "
            f"c0 candidate: {self.c0_candidate}\n"
        ]

    def csv_lines(self) -> Iterable[str]:
        return chain([_HYPOTHESIS_CSV_HEAD], self._csv_rows())

    def _csv_rows(self) -> Iterator[str]:
        # no header: HypothesisReports chains the rows of several scans under one
        prefix = f"%d,{self.spec.residue},{self.spec.k},"
        row = prefix + "+".join(["%d"] * self.spec.k) + "\n"
        empty = prefix + "EMPTY\n"
        return (empty % n if w is None else row % (n, *w) for n, w in self.rows)


class HypothesisReports(Report):
    """Several scans as one payload: a JSON list, one md line per scan,
    and one CSV header over the rows of every scan in order."""

    reports: tuple[HypothesisReport, ...]

    def to_json_dict(self) -> list[dict]:
        return [r.to_json_dict() for r in self.reports]

    def md_lines(self) -> Iterable[str]:
        return chain.from_iterable(r.md_lines() for r in self.reports)

    def csv_lines(self) -> Iterable[str]:
        return chain([_HYPOTHESIS_CSV_HEAD], *(r._csv_rows() for r in self.reports))


# The largest hi a hypothesis scan takes. Every row keeps its witness: all
# four scans to 10^6 peak near 230 MiB in CSV (CPython 3.11, x86-64).
_HYPOTHESIS_CAP = 10**6


def hypothesis_scans(indices: Sequence[int], lo: int, hi: int) -> list[HypothesisReport]:
    """One HypothesisReport per listed index, in order, over [lo, hi].

    H_k covers n = 3k mod 4 and a 3 mod 4 prime off n lands in H_(k-1)'s
    class, so the scans share one memo: a row is read off the level below,
    mostly at n - 3. A finished scan drops the levels below it; a miss refills.
    """
    if any(index not in HYPOTHESES for index in indices):
        raise ValueError(f"hypothesis index must be one of {sorted(HYPOTHESES)}")
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if hi > _HYPOTHESIS_CAP:
        raise ValueError(f"scan bound {hi} is above the cap of {_HYPOTHESIS_CAP}")
    _grow(hi)
    levels: list[dict] = [{} for _ in range(max(h.k for h in HYPOTHESES.values()))]
    reports = {}
    for index in sorted(set(indices)):  # k ascends with the index
        spec = HYPOTHESES[index]
        ns = range(lo + (spec.residue - lo) % 4, hi + 1, 4)
        # a list first: tuple() over a generator is about a tenth slower here
        rows = tuple([(n, _first_split(n, spec.k, _r34_pool, levels)) for n in ns])
        exceptions = tuple(n for n, wit in rows if wit is None)
        reports[index] = HypothesisReport(spec, lo, hi, rows, exceptions)
        for level in levels[: spec.k - 1]:
            level.clear()
    return [reports[index] for index in indices]


# How many copies of 3 shift n down to the residue the three-term split
# covers, keyed by n mod 4.
_EXTRA_THREES = {1: 0, 0: 1, 3: 2, 2: 3}

CHAIN_THRESHOLD = 18


class ChainResult(Report):
    """n written as three to six primes congruent to 3 mod 4: a three-term
    core plus up to three copies of 3."""

    n: int
    extras: tuple[int, ...]
    base: tuple[int, ...]

    @property
    def terms(self) -> tuple[int, ...]:
        return self.base + self.extras

    @property
    def m(self) -> int:
        return len(self.base) + len(self.extras)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "base": list(self.base),
            "extras": list(self.extras),
            "terms": list(self.terms),
            "m": self.m,
        }

    def md_lines(self) -> list[str]:
        return [f"{self.n} = {' + '.join(map(str, self.terms))} (m={self.m})\n"]

    def csv_lines(self) -> list[str]:
        return ["n,m,witness\n", f"{self.n},{self.m},{'+'.join(map(str, self.terms))}\n"]


def residue34_chain(n: int, threshold: int = CHAIN_THRESHOLD) -> ChainResult:
    """Write n at or above the threshold as a sum of three to six primes
    congruent to 3 mod 4.

    Stripping 0 to 3 copies of 3 moves any residue onto 1 mod 4 while
    keeping the remainder at or above 9, where the three-term split is
    available. A failing remainder would refute the scanned claim, so it
    raises rather than returning None.
    """
    if n < threshold:
        raise ValueError(f"chain construction starts at {threshold}")
    count = _EXTRA_THREES[n % 4]
    rest = n - 3 * count
    base = split_into_residue34_primes(rest, 3)
    if base is None:
        raise HypothesisViolation(
            f"{rest} has no three-term split into primes congruent to 3 mod 4"
        )
    return ChainResult(n, (3,) * count, base)


__all__ = [
    "CHAIN_THRESHOLD",
    "ChainResult",
    "HYPOTHESES",
    "HypothesisReport",
    "HypothesisReports",
    "HypothesisSpec",
    "HypothesisViolation",
    "SearchExhausted",
    "four_odd_primes",
    "hypothesis_scans",
    "min_odd_prime_terms",
    "residue34_chain",
    "split_into_odd_primes",
    "split_into_residue34_primes",
]
