"""Additive splits of rational integers into odd primes and into primes
congruent to 3 mod 4.

Covers fixed-length splits with canonical witnesses, minimal-length
search, residue-class exception scans over a range, and the chain
construction that reaches every large integer with three to six terms
from the 3 mod 4 class.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain, compress, count, groupby, islice, repeat
from operator import add, sub

from . import primes
from .primes import is_rational_prime
from .report import HypothesisViolation, Report, SearchExhausted
from .zcore import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

_flags = bytearray()  # the sieve flags over 0..n, n the largest split or scan bound yet
_FIRST_LISTING = 1 << 10  # where the pools' first listing ends
_LANE_STOP = 1 << 16  # the first pool prime a scan's 16-bit lane cannot hold


def _sieve(limit: int) -> None:
    """Sieve the flags over 0..limit or further, unless they reach limit."""
    global _flags
    if len(_flags) <= limit:
        _flags = primes._sieve_flags(max(limit, 1 << 16))


class _Pool(list):
    """The primes congruent to r mod m below listed, ascending, read off
    the flags. It starts empty and grows only by appending, so a loop
    iterating it sees every later prime and no entry moves under it."""

    def __init__(self, r: int, m: int) -> None:
        self.r, self.m, self.listed = r, m, 0

    def grow(self, stop: int) -> bool:
        """If a prime up to stop (below the flags' end) may be missing, list
        on to twice as far or to _FIRST_LISTING; say if it did."""
        if self.listed > stop:
            return False
        hi = min(max(2 * self.listed, _FIRST_LISTING), len(_flags))
        start = self.listed + (self.r - self.listed) % self.m
        self += compress(range(start, hi, self.m), _flags[start : hi : self.m])
        self.listed = hi
        return True


_odd_pool = _Pool(1, 2)
_r34_pool = _Pool(3, 4)


def _first_term(below, k: int, pool: _Pool, n: int) -> int:
    """The first term of n's canonical k-term sum from the ascending pool
    (the lexicographically first non-decreasing one, repeats allowed), or 0
    when n has none. below is level k - 1; level 1 is the sieve flags.

    First-term lemma: that sum starts with the first pool prime p leaving
    n - p a (k-1)-term sum (any term q of a sum leaves n - q one) and goes
    on with the canonical sum of n - p (a term q < p of any sum of n - p
    would have come first, so p * k <= n). So nothing backtracks, and
    p * k > n ends the scan, as k terms of at least p exceed n. The pool's
    end does not: a prime past it may be the first term, so the pool lists
    on and n is read again. Level 1 is exact: callers fix n = k mod 2 (odd
    pool) or n = 3k mod 4 (3 mod 4 pool), which taking off pool primes keeps.
    """
    for p in pool:
        if p * k > n:
            return 0
        if below[n - p]:
            return p
    return _first_term(below, k, pool, n) if pool.grow(n // k) else 0


def _fill_class(level: array, below: array, lanes: int, k: int, pool: _Pool, hi: int) -> int:
    """Fill level k over its class n = r + 4i up to hi, r = 3k mod 4, in one
    pass over the pool; lanes holds level k - 1's members, a 16-bit lane per i,
    1 for a member, and the return level k's. Each p in pool order is the first
    term of the n left in need with n - p a member (so p * k <= n, see
    _first_term) until p * k passes them all; _first_term takes any left at _LANE_STOP.
    The first terms' lanes are written into the level's bytes by two strided
    C slice copies, each lane's two bytes the low two of n's 4-byte entry (the
    entries are native, little-endian on x86 and ARM), with no int per n."""
    ns, shift, firsts = range(r := 3 * k % 4, hi + 1, 4), 3 * (k - 1) % 4 - r, 0
    need = start = int.from_bytes(b"\1\0" * len(ns), "little")
    pool.grow(0)  # a fresh pool lists its first primes
    for p in pool:
        if not need or p * k > r + 4 * (need.bit_length() - 1 >> 4) or p >= _LANE_STOP:
            break
        hit = need & lanes << 4 * (p + shift)  # lane n meets lane n - p
        need ^= hit
        firsts |= hit * p
        while p == pool[-1] and pool.grow(hi // k):
            pass
    raw, wide = firsts.to_bytes(2 * len(ns), "little"), memoryview(level).cast("B")
    wide[4 * r :: 16], wide[4 * r + 1 :: 16] = raw[0::2], raw[1::2]  # lane i's 2 bytes to n's low 2
    if need and p >= _LANE_STOP:
        for n in compress(ns, need.to_bytes(2 * len(ns), "little")[::2]):
            level[n] = first = _first_term(below, k, pool, n)
            need ^= (first > 0) << 4 * (n - r)
    return start ^ need


class _Level(dict):
    """Level k of one split's memo, filled one n at a time as reads miss,
    so a split of n reads no level up to n."""

    def __init__(self, k: int, pool: _Pool, below) -> None:
        self.k, self.pool, self.below = k, pool, below

    def __missing__(self, n: int) -> int:
        self[n] = first = _first_term(self.below, self.k, self.pool, n)
        return first


def _chase(levels: Sequence, ns: Sequence[int]) -> list[list[int]]:
    """The witness columns of the targets ns, largest term first. levels
    runs from level 2 up to the targets' own: each target's first term,
    read off its level, leaves the next target one level down, and what
    is left below level 2 is the last term. A target with no sum reads 0
    as its first term."""
    cols = []
    for level in reversed(levels):
        col = list(map(level.__getitem__, ns))
        ns = list(map(sub, ns, col))
        cols.append(col)
    cols.append(ns)
    return cols[::-1]


# The most terms a single split takes. Each term nests one _Level read in
# the last, two Python frames deep, so under the default recursion limit of
# 1000 a split of 300 terms ran and one of 400 raised RecursionError.
_SPLIT_TERMS_CAP = 100


def _split(n: int, k: int, pool: _Pool) -> tuple[int, ...] | None:
    """n's canonical k-term sum from the pool, largest term first, or None."""
    if k > _SPLIT_TERMS_CAP:
        raise ValueError(f"{k} terms are above the split cap of {_SPLIT_TERMS_CAP}")
    _sieve(n)
    levels = [_flags]
    for j in range(2, k + 1):
        levels.append(_Level(j, pool, levels[-1]))
    if not levels[-1][n]:
        return None
    return next(zip(*_chase(levels[1:], [n])))


def split_into_odd_primes(n: int, k: int) -> tuple[int, ...] | None:
    """n as a sum of k odd primes, largest term first, or None.

    The witness is the lexicographically smallest non-decreasing
    solution, reported in descending order. A sum of k odd terms shares
    the parity of k, so mismatched inputs fail without search.
    """
    if k < 1 or n < 3 * k or n % 2 != k % 2:
        return None
    return _split(n, k, _odd_pool)


def split_into_residue34_primes(n: int, k: int) -> tuple[int, ...] | None:
    """n as a sum of k primes all congruent to 3 mod 4, largest first.

    Such a sum is 3k mod 4, so anything off that residue fails fast.
    """
    if k < 1 or n < 3 * k or (n - 3 * k) % 4 != 0:
        return None
    return _split(n, k, _r34_pool)


def four_odd_primes(n: int) -> tuple[int, int, int, int]:
    """Even n of at least 12 as a sum of four odd primes."""
    if n % 2 or n < 12:
        raise ValueError("four_odd_primes needs an even integer of at least 12")
    got = split_into_odd_primes(n, 4)
    if got is None:
        raise SearchExhausted(f"no four-odd-prime split of {n}")
    return (got[0], got[1], got[2], got[3])


def min_odd_prime_terms(n: int, max_terms: int = 8) -> tuple[int, tuple[int, ...]]:
    """Fewest odd primes summing to n, with the canonical witness. Odd
    primes are at least 3, so no k past n // 3 is tried."""
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    for k in range(1, min(max_terms, n // 3) + 1):
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


def _heads(ns: range, mid: str) -> Iterator[tuple[str, list[str]]]:
    """The texts str(n) + mid of the n of ns, a range of step 4, cut at the
    blocks of 1000 it meets: for each, str(n // 1000) ("" in block 0) and the
    entries there of a class table of 250 texts, that of n % 1000 ("%03d" past
    block 0) followed by mid, so joining the two in C makes no numeral per n."""
    r, first, last = ns.start % 4, ns.start // 1000, ns[-1] // 1000 if ns else -1
    low, pad = ([f % j + mid for j in range(r, 1000, 4)] for f in ("%d", "%03d"))
    for b in range(first, last + 1):
        i = ns.start % 1000 // 4 if b == first else 0
        j = ns[-1] % 1000 // 4 + 1 if b == last else 250
        yield (str(b) if b else ""), (pad if b else low)[i:j]


def _csv_blocks(reports: Sequence[HypothesisReport]) -> Iterator[Iterable[str]]:
    """The CSV lines of the reports, in blocks that chain.from_iterable
    joins with no bytecode per row: the header, then each report's rows.

    Level k's witness text at n is level k - 1's at n - p plus "+p", p the
    first term of n (level 1's is n). A level's texts are a triple (list,
    start, suffix), the text of n being list[(n - start) // 4] + suffix, over
    a window of its class: its reports' targets and what the level above
    reads, from the least n there less the largest first term, clamped at 0.
    Level 1 lists the numerals, as level 2's source. A level's top first term
    and whether its first terms there are one prime p, or 0, are read off the
    set of its column; such a level reads through the level below with
    start + p and suffix + "+p": levels 3 to 5 do, as every n = 2 mod 4 from
    6 up is a two-term sum. Any other level lists its texts by C-level
    gathers off the level below. Reports sharing level 2 share every level:
    up to 10^6 only levels 1 and 2 make lists. A row joins str(n // 1000),
    the class table's text of n % 1000 and ",residue,k," (_heads), its top
    level's text and the suffix, so no row makes a numeral; an n with no sum
    would read a neighbour's, so the rows between exceptions go out as one
    run, a block of rows per block of 1000, and each exception as an EMPTY
    line.
    """
    yield [_HYPOTHESIS_CSV_HEAD]
    for _, run in groupby(reports, lambda r: id(r.levels[0])):
        run = list(run)
        levels = (None, None, *max((r.levels for r in run), key=len))  # level k at k
        bounds: list[list[tuple[int, int]]] = [[] for _ in levels]
        stops = [(*r.exceptions, r.hi + 1) for r in run]  # their column slices precede the lists
        for r in run:
            if t := r._targets:
                bounds[r.spec.k].append((t[0], t[-1]))
        windows, cols = {}, {}
        for k in range(len(levels) - 1, 0, -1):
            lo = max(0, min((a for a, _ in bounds[k]), default=0))
            hi = max((b for _, b in bounds[k]), default=-1)
            windows[k] = ns = range(lo + (3 * k - lo) % 4, hi + 1, 4)
            if ns and k > 1:  # a level of one first term keeps no column
                col = levels[k][ns.start : ns.stop : 4]
                bounds[k - 1].append((ns[0] - (top := max(firsts := set(col))), ns[-1]))
                cols[k] = top, None if firsts <= {0, top} else col
        numerals = chain.from_iterable(map(add, repeat(b), heads) for b, heads in _heads(windows[1], ""))
        texts = [None, (list(numerals), windows[1].start, "")]  # level k at k
        for q in range(2, len(levels)):
            (top, col), (below, start, suffix) = cols.pop(q, (0, None)), texts[-1]
            if col is None:
                texts.append((below, start + top, f"{suffix}+{top}"))
            else:
                off = [(windows[q].start - start - p) // 4 for p in range(top + 1)]
                plus = [f"{suffix}+{p}" for p in range(top + 1)]
                offs = map(add, count(), map(off.__getitem__, col))
                made = map(add, map(below.__getitem__, offs), map(plus.__getitem__, col))
                texts.append((list(made), windows[q].start, ""))
        for r, stop in zip(run, stops):
            k, (wits, start, suffix) = r.spec.k, texts[r.spec.k]
            mid, end, at = f",{r.spec.residue},{k},", suffix + "\n", r._targets.start
            for n in stop:
                if ns := range(at, n, 4):
                    got = islice(wits, (at - start) // 4, None)  # zip ends at heads before reading it
                    for b, heads in _heads(ns, mid):
                        yield map("".join, zip(repeat(b), heads, got, repeat(end)))
                if n <= r.hi:
                    yield (f"{n}{mid}EMPTY\n",)
                at = n + 4


class HypothesisReport(Report):
    """Scan outcome for one residue-class claim over [lo, hi]. levels holds
    levels 2 to k, arrays of first terms indexed by n up to hi, 0 for no sum
    (see _first_term). rows are chased off them when read and the CSV is
    written off each level's texts, listed or read through the level below
    (_csv_blocks), so the rows, not the levels, fix a report."""

    spec: HypothesisSpec
    lo: int
    hi: int
    levels: tuple

    def _values(self) -> tuple:
        return (self.spec, self.lo, self.hi, self.rows)

    def __hash__(self) -> int:
        # the levels do not hash, and these fields fix the rows
        return hash((self.spec, self.lo, self.hi, self.exceptions))

    @property
    def _targets(self) -> range:
        return range(self.lo + (self.spec.residue - self.lo) % 4, self.hi + 1, 4)

    @property
    def rows(self) -> tuple[tuple[int, tuple[int, ...] | None], ...]:
        """(n, witness) for every target n, the witness largest term first
        and None when n has no sum."""
        ns = self._targets
        wits = zip(*_chase(self.levels, ns))
        return tuple((n, wit if wit[-1] else None) for n, wit in zip(ns, wits))

    @cached_property  # read by the summary, the exit code and every format
    def exceptions(self) -> tuple[int, ...]:
        ns, at = self._targets, -1
        firsts = self.levels[-1][ns.start : ns.stop : 4]  # the few zeros, found in C, not per n
        return tuple(ns[(at := firsts.index(0, at + 1))] for _ in range(firsts.count(0)))

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
            f"over [{self.lo}, {self.hi}]: {len(self._targets)} targets, "
            f"exceptions: {exc}, max exception: {self.max_exception}, "
            f"c0 candidate: {self.c0_candidate}\n"
        ]

    def csv_lines(self) -> Iterable[str]:
        return chain.from_iterable(_csv_blocks([self]))


class HypothesisReports(Report):
    """Several scans as one payload: a JSON list, one md line per scan,
    and one CSV header over the rows of every scan in order."""

    reports: tuple[HypothesisReport, ...]

    def to_json_dict(self) -> list[dict]:
        return [r.to_json_dict() for r in self.reports]

    def md_lines(self) -> Iterable[str]:
        return chain.from_iterable(r.md_lines() for r in self.reports)

    def csv_lines(self) -> Iterable[str]:
        return chain.from_iterable(_csv_blocks(self.reports))


# The largest hi a hypothesis scan takes. The scans keep a 4-byte first term
# per integer and level (built through 2-byte lanes); the CSV writer lists the
# texts of levels 1 and 2 alone, a list entry and a str per n of a class each,
# as levels 3 to 5 read through level 2's, and its rows add two class tables
# of 250 heads per run. The op's peak in CSV is near 67 MiB at 10^6, all four
# scans or H_4 alone, and near 30 MiB at 300 064; in JSON, whose payload holds
# every row, near 414 MiB at 10^6 (CPython 3.11, x86-64).
_HYPOTHESIS_CAP = 10**6


def hypothesis_scans(indices: Sequence[int], lo: int, hi: int) -> list[HypothesisReport]:
    """One HypothesisReport per listed index, in order, over [lo, hi].

    H_k covers n = 3k mod 4 and a 3 mod 4 prime off n lands in H_(k-1)'s
    class, so the scans share one array per level, each filled over its
    whole class up to hi by one bulk pass off the level below (_fill_class),
    whatever lo is.
    """
    if any(index not in HYPOTHESES for index in indices):
        raise ValueError(f"hypothesis index must be one of {sorted(HYPOTHESES)}")
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if hi > _HYPOTHESIS_CAP:
        raise ValueError(f"scan bound {hi} is above the cap of {_HYPOTHESIS_CAP}")
    _sieve(hi)
    top = max((HYPOTHESES[index].k for index in indices), default=1)
    # level 1's members over n = 3 + 4i, one 16-bit lane per i
    lanes = _flags[3 : hi + 1 : 4].replace(b"\0", b"\0\0").replace(b"\1", b"\1\0")
    levels, lanes = [_flags], int.from_bytes(lanes, "little")
    for k in range(2, top + 1):
        levels.append(array("I", [0]) * (hi + 1))
        lanes = _fill_class(levels[-1], levels[-2], lanes, k, _r34_pool, hi)
    return [
        HypothesisReport(HYPOTHESES[index], lo, hi, tuple(levels[1 : HYPOTHESES[index].k]))
        for index in indices
    ]


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
    raises rather than returning None. The result is checked before it is
    returned, by Miller-Rabin rather than the sieve flags that split it:
    3 to 6 terms summing to n, each a prime congruent to 3 mod 4; a wrong
    one raises ValueError.
    """
    if n < threshold:
        raise ValueError(f"chain construction starts at {threshold}")
    count = (1 - n) % 4  # the copies of 3 that move n onto 1 mod 4
    rest = n - 3 * count
    base = split_into_residue34_primes(rest, 3)
    if base is None:
        raise HypothesisViolation(
            f"{rest} has no three-term split into primes congruent to 3 mod 4"
        )
    result = ChainResult(n, (3,) * count, base)
    terms = result.terms
    if not 3 <= len(terms) <= 6 or sum(terms) != n or not all(
        p % 4 == 3 and is_rational_prime(p) for p in terms
    ):
        raise ValueError(f"{n} = {'+'.join(map(str, terms))} fails the chain check")
    return result


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
