"""Sums of Gaussian primes drawn from a planar region.

The searcher finds the canonical minimal decomposition of a target into
region primes, scans whole norm ranges, confirms the diagonal-gap
obstruction for sector sums exhaustively, and builds the bounded chains
that shed one inert prime to reach an odd remainder.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from itertools import accumulate, compress, count, repeat
from math import log
from operator import add, countOf, is_, itemgetter, sub

from .primes import _Pool, _pool_for, gaussian_prime_pool, is_gaussian_prime
from .report import Report, _quote
from .zcore import (
    ZERO,
    GaussianInt,
    Parity,
    Region,
    Unit,
    _check_component,
    _text,
    in_region,
    sector_form,
)
from .zcore import parity as parity_of

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence


class NormPolicy(Enum):
    """Constraint on summand norms relative to the target."""

    STRICT_LESS = "strict"
    NONE = "none"


class Decomposition(Report):
    """A target written as a sum of odd Gaussian primes from one region.

    Each term is stored as (sector prime, unit); the actual summand is
    unit * prime. Summands sit in descending (norm, re, im) order except
    where a chain constructor documents otherwise.
    """

    target: GaussianInt
    terms: tuple[tuple[GaussianInt, Unit], ...]
    region: Region
    policy: NormPolicy

    @property
    def k(self) -> int:
        return len(self.terms)

    def summands(self) -> list[GaussianInt]:
        return [u.apply(g) for g, u in self.terms]

    def __str__(self) -> str:
        return " + ".join(f"({s})" for s in self.summands())

    def to_json_dict(self) -> dict:
        return {
            "target": str(self.target),
            "re": self.target.re,
            "im": self.target.im,
            "norm": self.target.norm(),
            "k": self.k,
            "region": self.region.value,
            "policy": self.policy.value,
            "parity": "ODD",
            "terms": [
                {
                    "summand": str(s),
                    "re": s.re,
                    "im": s.im,
                    "norm": g.norm(),
                    "unit": u.label,
                    "sector": str(g),
                }
                for s, (g, u) in zip(self.summands(), self.terms)
            ],
        }

    def md_lines(self) -> Iterator[str]:
        summands = self.summands()
        yield f"{self.target} = {' + '.join(f'({s})' for s in summands)}\n"
        yield f"k={self.k} region={self.region.value} policy={self.policy.value}\n"
        yield "\n| summand | norm | unit | sector |\n|---|---|---|---|\n"
        for s, (g, u) in zip(summands, self.terms):
            yield f"| {s} | {g.norm()} | {u.label} | {g} |\n"

    def csv_lines(self) -> Iterator[str]:
        yield "summand,re,im,norm,unit,sector\n"
        for s, (g, u) in zip(self.summands(), self.terms):
            yield f"{s},{s.re},{s.im},{g.norm()},{u.label},{g}\n"


def verify_decomposition(dec: Decomposition) -> None:
    """Raise ValueError unless every stored fact about dec checks out."""
    if not dec.terms:
        raise ValueError("empty decomposition")
    total = ZERO
    target_norm = dec.target.norm()
    for g, u in dec.terms:
        if not in_region(g, Region.SECTOR):
            raise ValueError(f"stored prime {g} is not the sector associate")
        if not is_gaussian_prime(g):
            raise ValueError(f"{g} is not a Gaussian prime")
        s = u.apply(g)
        if not in_region(s, dec.region):
            raise ValueError(f"summand {s} lies outside {dec.region.value}")
        if parity_of(s) is not Parity.ODD:
            raise ValueError(f"summand {s} is not odd")
        if dec.policy is NormPolicy.STRICT_LESS and s.norm() >= target_norm:
            raise ValueError(f"summand {s} is not below the target norm")
        total = total + s
    if total != dec.target:
        raise ValueError(f"terms sum to {total}, not {dec.target}")


def _term_cap(cone, re: int, im: int, terms: int) -> tuple[int, int, int] | None:
    """Bounds on one of `terms` cone members summing to re + im*i.

    With rows n1.p >= c1 and n2.p >= c2, the other members take at least
    (terms - 1) * c from each row, so every candidate p satisfies
    c1 <= n1.p <= u and c2 <= n2.p <= v. Returns (u, v, cap), cap being
    the largest norm over the corners of that parallelogram, or None when
    it is empty. A corner n1.p = s, n2.p = t is p = (b2 s - b1 t,
    a1 t - a2 s) / det, so norm * det^2 is exact in integers.
    """
    (a1, b1, c1), (a2, b2, c2) = cone
    u = a1 * re + b1 * im - (terms - 1) * c1
    v = a2 * re + b2 * im - (terms - 1) * c2
    if u < c1 or v < c2:
        return None
    best = 0
    for s, t in ((c1, c2), (c1, v), (u, c2), (u, v)):
        x, y = b2 * s - b1 * t, a1 * t - a2 * s
        if x * x + y * y > best:
            best = x * x + y * y
    return u, v, best // (a1 * b2 - a2 * b1) ** 2


def _cap(cone, re: int, im: int, n: int, strict: bool) -> int:
    """The norm below which lies every term of a sum of two or more cone
    members equal to re + im*i, of norm n: one past _term_cap's two-term
    cap (each c is 0 at least, so more terms only shrink it), n if less
    under the strict policy, 0 for none."""
    got = _term_cap(cone, re, im, 2)
    if got is None:
        return 0
    return min(got[2] + 1, n) if strict else got[2] + 1


def _extent(runs: list[tuple], region: Region, strict: bool) -> tuple:
    """(live, extent) for the targets of the runs (re, lo, hi), the points
    re + im*i with lo <= im <= hi: live the runs cut to the two-term cone,
    where the rows reach 2c, as every sum of two or more members does;
    extent (re_lo, re_hi, im_lo, im_hi, reach, top), or None: the least box
    holding each live target and the four corners n1.s in {c1, u}, n2.s in
    {c2, v} of its parallelogram (as in _term_cap), the largest (n1 + n2).z
    and the largest cap (see _cap), cut under the strict policy to the
    largest norm, which leaves it at least each target's min(cap, norm),
    the bound on its strict terms. Along a row u, v and the corners move
    linearly, and the norms of the corners and of the target are convex,
    so all of these are read off the ends of each live run."""
    (a1, b1, c1), (a2, b2, c2) = region.cone
    det, live, xs, ys, reach, best, most = a1 * b2 - a2 * b1, [], [], [], 0, 0, 0
    for re, lo, hi in runs:
        lo, hi = region.im_span(re, lo, hi, 2)
        if lo > hi:
            continue
        live.append((re, lo, hi))
        for im in (lo, hi):
            u, v = a1 * re + b1 * im - c1, a2 * re + b2 * im - c2
            reach = max(reach, u + v + c1 + c2)
            most = max(most, re * re + im * im)
            xs.append(re * det)  # the target itself, then its corners, each det times
            ys.append(im * det)
            for s, t in ((c1, c2), (c1, v), (u, c2), (u, v)):
                xs.append(b2 * s - b1 * t)
                ys.append(a1 * t - a2 * s)
                best = max(best, xs[-1] ** 2 + ys[-1] ** 2)
    if not live:
        return live, None
    top = best // det**2 + 1
    if det < 0:
        det, xs, ys = -det, [-x for x in xs], [-y for y in ys]
    return live, (-(-min(xs) // det), max(xs) // det, -(-min(ys) // det), max(ys) // det, reach,
                  min(top, most) if strict else top)


def _dfs(
    t_re: int,
    t_im: int,
    k: int,
    pool: _Pool,
    cap: int,
) -> list[tuple[int, int, int]] | None:
    """The lexicographically first non-decreasing k-tuple (k >= 2) of
    pool entries summing to the target, all norms below cap, ascending.
    Any level may grow the list, so each loop reads on past its end."""
    (a1, b1, _), (a2, b2, _) = cone = pool.region.cone
    entries, grow, member = pool.entries, pool.grow, pool.member
    acc: list[tuple[int, int, int]] = []

    def rec(re: int, im: int, terms: int, lo: int) -> bool:
        got = _term_cap(cone, re, im, terms)
        if got is None:
            return False
        u, v, stop = got
        if stop > cap - 1:
            stop = cap - 1
        while lo < len(entries) or grow(stop):
            end = len(entries)
            for i in range(lo, end):
                p = entries[i]
                pre, pim, pn = p
                if pn > stop:
                    return False
                if a1 * pre + b1 * pim > u or a2 * pre + b2 * pim > v:
                    continue
                if terms == 2:  # the residual is the last term, no earlier than p
                    last = member(re - pre, im - pim, p, cap)
                    if last is not None:
                        acc.extend((p, last))
                        return True
                    continue
                acc.append(p)
                if rec(re - pre, im - pim, terms - 1, i):
                    return True
                acc.pop()
            lo = end
        return False

    return acc if rec(t_re, t_im, k, 0) else None


def _search(
    re: int, im: int, k_lo: int, max_terms: int, cap: int, pool: _Pool,
) -> list[tuple[int, int, int]] | None:
    """The canonical decomposition of re + im*i with the fewest terms k,
    k_lo <= k <= max_terms (k_lo >= 2), into entries of the pool with
    norm below cap: its pool entries (re, im, norm), largest first, or
    None.

    Only term counts some sum can reach are searched: k odd terms sum to
    the class of k modulo 1+i, and as every nonzero point p of each cone
    (rows n1, n2) has (n1 + n2).p >= 1, k terms sum to a z with (n1 +
    n2).z >= k. Reversing the ascending _dfs entries lists them largest first.
    """
    (a1, b1, _), (a2, b2, _) = pool.region.cone
    k_hi = min(max_terms, (a1 + a2) * re + (b1 + b2) * im)
    k_lo += (re + im - k_lo) % 2
    for k in range(k_lo, k_hi + 1, 2):
        got = _dfs(re, im, k, pool, cap)
        if got is not None:
            return got[::-1]
    return None


def _halves(n: int) -> list[int]:
    """n's bits at even and at odd positions, each at half its position."""
    s = bin(n)[:1:-1]
    return [int(s[q::2][::-1] or "0", 2) for q in (0, 1)]


def _bitset(positions: list[int]) -> int:
    """The int with these bits set, parsed from a byte per bit in C."""
    text = bytearray(b"0") * (max(positions, default=0) + 1)
    list(map(text.__setitem__, positions, repeat(49)))  # "1"
    return int(text[::-1], 2)


def _sumsets(
    points,
    region: Region,
    re_lo: int,
    re_hi: int,
    im_lo: int,
    im_hi: int,
    max_terms: int,
) -> tuple[int, list[int]]:
    """The k-fold sumsets, k = 1, 2, ..., max_terms, of the points
    (re, im, ...), which callers cut to a window: rows re_lo..re_hi,
    each cut to region.im_span(re, im_lo, im_hi).

    Sums that leave the window are dropped, so a sum is kept exactly when
    some order of its terms keeps every partial sum inside; callers pick
    windows that hold every partial sum they ask about. re + im*i has
    position L = (re - re_lo) * width + im - im_lo, width odd, so a sum of
    k odd points has L = k + base (mod 2), base = re_lo * width + im_lo:
    level k is one int holding each sum at bit h of L = 2h + (k + base) %
    2, on its own coset. Level k + 1 ORs level k, of parity q, shifted by
    (re * width + im + q) >> 1 for every point. Each row carries pad spare
    positions past im_hi (or one more), pad being the largest |im| of a
    point: a shift by a point with im >= 0 lands in the row's own spare
    positions at worst, one with im < 0 in those of the row below, and the
    coset's mask clears both. Returns (width, levels); the levels stop at
    the first empty one.
    """
    width = (im_hi - im_lo + 1 + max((abs(p[1]) for p in points), default=0)) | 1
    base, mask = re_lo * width + im_lo, 0
    for re in range(re_lo, re_hi + 1):
        lo, hi = region.im_span(re, im_lo, im_hi)
        if lo <= hi:
            mask |= ((1 << (hi - lo + 1)) - 1) << ((re - re_lo) * width + lo - im_lo)
    masks = _halves(mask)
    shifts = [re * width + im for re, im, *_ in points]
    if not all(map((1).__and__, shifts)):  # width is odd: s has the parity of re + im
        raise ValueError("every point must be odd")
    level, q = _bitset([(s - base) >> 1 for s in shifts]), (1 + base) & 1
    levels: list[int] = []
    while level:
        levels.append(level)
        if len(levels) == max_terms:
            break
        nxt = 0
        for s in shifts:
            sh = (s + q) >> 1
            nxt |= level << sh if sh >= 0 else level >> -sh
        q ^= 1
        level = nxt & masks[q]
    return width, levels


def find_decomposition(
    z: GaussianInt,
    region: Region,
    max_terms: int,
    policy: NormPolicy = NormPolicy.STRICT_LESS,
    include_single: bool = True,
) -> Decomposition | None:
    """Minimal canonical decomposition of z into at most max_terms odd
    Gaussian primes lying in the region, or None.

    Among decompositions of the minimal length the witness is the
    lexicographically smallest non-decreasing sequence in (norm, re, im)
    order, reported largest term first. The strict policy demands every
    summand norm be below the target norm, which rules out the
    single-term split, else taken when z is an odd region prime.
    verify_decomposition checks the witness before it is returned, so a
    wrong one raises ValueError instead.
    """
    if z.is_zero():
        raise ValueError("target must be nonzero")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if include_single and policy is NormPolicy.NONE and _pool_for(region).member(z.re, z.im):
        terms = (sector_form(z),)
    else:
        cap = _cap(region.cone, z.re, z.im, z.norm(), policy is NormPolicy.STRICT_LESS)
        found = max_terms > 1 and cap > 2 and _search(
            z.re, z.im, 2, max_terms, cap, _pool_for(region, cap)
        )
        if not found:
            return None
        terms = tuple(sector_form(GaussianInt(re, im)) for re, im, _ in found)
    dec = Decomposition(z, terms, region, policy)
    verify_decomposition(dec)
    return dec


def _box_keys(region: Region, re_range: tuple, im_range: tuple, floor: int) -> tuple[list, list]:
    """(keys, runs): the region's nonzero points in a box with max(re, im) >=
    floor as ascending keys (norm, re, im), and each row's run (re, lo, hi)
    of them. The range ends get GaussianInt's component check, so every key's do."""
    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    if re_lo > re_hi or im_lo > im_hi:
        raise ValueError("empty component range")
    for v in (re_lo, re_hi, im_lo, im_hi):
        _check_component(v)
    out: list[tuple[int, int, int]] = []
    runs = []
    for re in range(re_lo, re_hi + 1):
        lo, hi = region.im_span(re, im_lo, im_hi)
        if re < floor:
            lo = max(lo, floor)
        elif not re and not lo:  # zero starts row 0 where a region holds it (kpi, octant)
            lo = 1
        runs.append((re, lo, hi))
        rr = re * re
        out += [(rr + im * im, re, im) for im in range(lo, hi + 1)]
    out.sort()
    return out, runs


class _Chased(dict):
    """One level of _chased: a bit it lacks lost its first term."""

    def __missing__(self, at: int):
        raise ValueError(f"a chased witness reads bit {at}, which no first term explains")


def _chased(chase: tuple, one, more=None) -> list[dict]:
    """Per level k (at index k) of a chase from _minimal_terms, a dict from
    each bit read there to a value made bottom-up: one(p) at level 1's
    pool points p, and at level k the value at the bit less shift one level
    down, plus more(p) of the first term p unless more is None. A hit's
    bits are the running sums of its zero runs' lengths, made in C. A
    target of a level that none of its hits covers raises ValueError,
    naming it, so a writer fails before its first line."""
    points, firsts, least, name = chase
    made = [None, _Chased((h, one(p)) for h, p in points)]
    for k, records in enumerate(firsts, 2):
        below, level, covered = made[-1], _Chased(), 0
        for sh, p, hit in records:
            covered |= hit
            ats = list(map(add, accumulate(map(len, bin(hit)[:1:-1].split("1")[:-1])), count()))
            got = map(below.__getitem__, map(sub, ats, repeat(sh)))
            level.update(zip(ats, got if more is None else map(add, got, repeat(more(p)))))
        if lost := least[k] & ~covered:
            at = (lost & -lost).bit_length() - 1
            raise ValueError(f"the chase of {name(k, at)} reads bit {at}, which no first term explains")
        made.append(level)
    return made


class ScanReport(Report):
    """Representability of every target in some enumerated set as a sum
    of odd primes.

    term_region constrains the primes used as summands; target_desc records
    how the target set was enumerated so reports from different runs
    compare apples to apples. int_rows holds a row (norm, re, im, k,
    witness) per target re + im*i, witness being None, the pool entries
    (re, im, norm) of its k terms, largest first, or the target's window
    position (an int) at level k of chase (see _minimal_terms), whose texts
    the writers make once per level. rows and exceptions build
    GaussianInts, and the rows, not the chase, fix a report.
    """

    term_region: Region
    target_desc: str
    max_terms: int
    policy: NormPolicy
    int_rows: tuple[tuple[int, int, int, int | None, tuple | int | None], ...]
    chase: tuple | None = None

    def _values(self) -> tuple:
        return (self.term_region, self.target_desc, self.max_terms, self.policy, self.rows)

    def _level_texts(self, template: str, sep: str) -> tuple:
        """(levels, whole): per level the chased witness texts, from _chased,
        and the text of an entry tuple: terms in template, joined by sep. A
        writer makes each row in one f-string, the target's text inline for
        re != 0 and |im| >= 2."""

        def one(p: tuple) -> str:
            return template % _text(p[0], p[1])

        levels = self.chase and _chased(self.chase, one, lambda p: sep + one(p))
        made = cache(one)  # searched rows repeat their terms: one text per distinct entry
        return levels, lambda w: sep.join(map(made, w))

    @property
    def rows(self) -> tuple[tuple[GaussianInt, int | None, tuple[GaussianInt, ...] | None], ...]:
        """(z, k, witness) per target, one GaussianInt per distinct term:
        a one-term row's witness is (z,)."""
        made: dict[tuple, GaussianInt] = {}

        def gauss(re: int, im: int, *_) -> GaussianInt:
            return made.get((re, im)) or made.setdefault((re, im), GaussianInt(re, im))

        def one(p: tuple) -> tuple:
            return (gauss(*p),)

        levels = self.chase and _chased(self.chase, one, one)
        return tuple((gauss(re, im), k, None if w is None else levels[k][w >> 1] if w.__class__ is int
                      else tuple(gauss(*p) for p in w)) for _, re, im, k, w in self.int_rows)

    @property
    def exceptions(self) -> tuple[GaussianInt, ...]:
        return tuple(GaussianInt(re, im) for _, re, im, k, _ in self.int_rows if k is None)

    @property
    def term_counts(self) -> dict[int, int]:
        """How many targets resolved at each term count."""
        return {k: c for k, c in Counter(map(itemgetter(3), self.int_rows)).items() if k is not None}

    def to_json_dict(self) -> dict:
        return {
            "primes": self.term_region.value,
            "targets": self.target_desc,
            "term_counts": {str(k): c for k, c in sorted(self.term_counts.items())},
            "max_terms": self.max_terms,
            "policy": self.policy.value,
            "parity": "ODD",
            "rows": [
                {
                    "z": str(z),
                    "re": z.re,
                    "im": z.im,
                    "norm": z.norm(),
                    "k": k,
                    "witness": None if wit is None else [str(s) for s in wit],
                }
                for z, k, wit in self.rows
            ],
            "exceptions": [str(z) for z in self.exceptions],
        }

    def json_lines(self) -> Iterator[str]:
        """The bytes json.dump(to_json_dict(), sort_keys=True, indent=2)
        writes, plus a newline, yielded row by row from a template.
        json.dump's indented encoder is pure Python; to_json_dict stays
        the oracle the tests compare these bytes to. The text of a
        Gaussian integer needs no escaping. An exception's text is made
        once, for the list and its row."""
        levels, whole = self._level_texts('"%s"', ",\n        ")
        rows = self.int_rows
        gone = compress(rows, map(is_, map(itemgetter(3), rows), repeat(None)))
        exceptions = [f'"{re}+{im}i"' if im > 1 and re else f'"{re}{im}i"' if im < -1 and re
                      else f'"{_text(re, im)}"' for _, re, im, _, _ in gone]
        listed = "[\n    " + ",\n    ".join(exceptions) + "\n  ]" if exceptions else "[]"
        yield (
            f'{{\n  "exceptions": {listed},\n'
            f'  "max_terms": {self.max_terms},\n  "parity": "ODD",\n'
            f'  "policy": {_quote(self.policy.value)},\n'
            f'  "primes": {_quote(self.term_region.value)},\n  "rows": ['
        )
        sep, texts = "\n", iter(exceptions)
        for n, re, im, k, w in rows:
            if w is None:
                yield (f'{sep}    {{\n      "im": {im},\n      "k": null,\n      "norm": {n},\n'
                       f'      "re": {re},\n      "witness": null,\n      "z": {next(texts)}\n    }}')
            else:
                z = f"{re}+{im}i" if im > 1 and re else f"{re}{im}i" if im < -1 and re else _text(re, im)
                yield (f'{sep}    {{\n      "im": {im},\n      "k": {k},\n      "norm": {n},\n'
                       f'      "re": {re},\n      "witness": [\n        '
                       f'{levels[k][w >> 1] if w.__class__ is int else whole(w)}\n      ],\n'
                       f'      "z": "{z}"\n    }}')
            sep = ",\n"
        # json sorts the keys as strings: "10" before "2"
        tally = sorted((str(k), c) for k, c in self.term_counts.items())
        counts = "{\n    " + ",\n    ".join(f'"{k}": {c}' for k, c in tally) + "\n  }" if tally else "{}"
        close = "\n  ]" if rows else "]"
        yield (
            f'{close},\n  "targets": {_quote(self.target_desc)},\n'
            f'  "term_counts": {counts}\n}}\n'
        )

    def _table(self, head: str, pre: str, mid: str, end: str, sep: str) -> Iterator[str]:
        """The md and csv lines: head, then a row pre z mid norm mid k mid
        witness end per target, its terms in parentheses joined by sep, k
        and witness empty and EMPTY for an exception."""
        levels, whole = self._level_texts("(%s)", sep)
        yield head
        for n, re, im, k, w in self.int_rows:
            z = f"{re}+{im}i" if im > 1 and re else f"{re}{im}i" if im < -1 and re else _text(re, im)
            yield (f"{pre}{z}{mid}{n}{mid}{mid}EMPTY{end}" if w is None else
                   f"{pre}{z}{mid}{n}{mid}{k}{mid}{levels[k][w >> 1] if w.__class__ is int else whole(w)}{end}")

    def md_lines(self) -> Iterator[str]:
        return self._table(
            f"targets {self.target_desc}, primes {self.term_region.value}, "
            f"max terms {self.max_terms}, policy {self.policy.value}: {len(self.int_rows)} "
            f"targets, {countOf(map(itemgetter(3), self.int_rows), None)} unrepresentable\n"
            "\n| z | norm | k | witness |\n|---|---|---|---|\n",
            "| ", " | ", " |\n", " + ",
        )

    def csv_lines(self) -> Iterator[str]:
        return self._table("z,norm,k,witness\n", "", ",", "\n", "+")


# Bit-ops the sumsets may spend per target, estimated as window bits x
# pool points x (k - 1), k the fewer of max_terms and the most terms any
# target's sum can have, with no sieve: the points are top / ln(top)
# for the largest cap top, 0.89-0.93 of the prime norms below it for top
# from 2.9 * 10^4 to 10^7, about the pool's size in a quarter plane and
# 2/3 of it in spi's cone. A shift-OR costs about 3-4 ns per 64-bit word
# (2-core x86, Python 3.11), and a level holds half the window's bits, one
# coset, so this is about 4 us a target, below the 6-15 us a target's
# _search takes on a warm pool (a strict spi box at the origin, gammapi
# boxes at re 200 and 2000). The property the sumsets need
# is targets that fill the window, which reaches from the cone's corner to
# the targets: gammapi and kpi boxes of side 120-150 at the origin come in
# at 0.06 of this, a 10 x 10 gammapi box at re 200 at 28 times and a 2 x 2
# box at re 2000 at 4 * 10^6 times, so those search target by target;
# denser boxes chase their witnesses through the levels, and strict ones
# search only where the chased witness reaches the target's norm.
_SUMSET_OPS_PER_TARGET = 1 << 17


def _minimal_terms(live: list, extent: tuple, region: Region, max_terms: int, one_term=False):
    """(width, base, ks, chase) for the targets of these live runs, one or
    more, and their extent (re_lo, re_hi, im_lo, im_hi, reach, top), both
    from _extent; None, leaving the pool list as it is, when top is below 3
    (no odd prime has a norm below it, so no target is a sum: the caller
    searches, and finds none), or the sumsets would cost more than
    _SUMSET_OPS_PER_TARGET a target or reach past 255 terms.

    With cone rows n1.p >= c1 and n2.p >= c2, each partial sum s of a sum
    of two or more region primes equal to z has n1.s >= c1 and n1.(z - s)
    >= c1 (so n1.s <= u, as in _term_cap), and the same for n2: every term
    and partial sum lies in the target's two-term parallelogram. So the
    sumsets of the pool cut at the largest cap, over one window holding
    each target and its parallelogram, put each target at the fewest terms
    k of any sum with no norm cap of its own. Under NormPolicy.NONE every
    term of such a sum has norm below the target's cap already, so k is
    exact. Under STRICT_LESS the cut may be lower, at the largest norm, but
    every strict sum's terms lie below it too, so k is a lower bound, and a
    target in no level has no strict sum.

    First-term lemma: let p be the first pool entry leaving z - p in level
    k - 1. Each term q of a k-term sum of z leaves z - q there, so no such
    sum has a term before p; p and a sum of z - p make one, so no term of
    z - p comes before p either, and the lexicographically first
    non-decreasing k-tuple summing to z is p and then that of z - p. So
    one pass in pool order gives a level the first terms of the positions
    the chase reads there, from the top level down: the targets at their
    least k and the residuals the level above leaves. hit = need & (level
    k - 1 shifted by p) leaves need and, shifted back, joins the need of
    level k - 1; level 1 explains only its pool points. Any position left
    raises ValueError, naming the target whose walk reads it.

    Position re * width + im - base holds re + im*i, at bit position >> 1
    of each level (see _sumsets). ks holds each live target's least k at
    its position, 0 for none, or with one_term 1 for a pool point, then not
    chased. chase is (points, firsts, least, name): each pool point's (bit
    on level 1, entry), entry the pool's own (re, im, norm); per level from
    2 up its first terms (shift, entry, hit), hit the bits they explain,
    less shift one level down; least, the bits of the targets whose least
    term count is k, by k; and the text name(k, bit) of a target. A
    target's chase, reversed, sums to it, so its terms lie in its
    parallelogram, below its cap with no strict cut: the canonical witness
    under NONE, and under STRICT_LESS when its level-1 term, the largest,
    has norm below the target's.
    """
    re_lo, re_hi, im_lo, im_hi, reach, top = extent
    if top < 3:
        return None
    # each level shift-ORs the whole window once per point, and no target
    # z is a sum of more than (n1 + n2).z terms (see _search)
    k_top = max(2, min(max_terms, reach))
    ops = (re_hi - re_lo + 1) * (im_hi - im_lo + 1) * top / log(top) * (k_top - 1)
    if k_top > 255 or ops > _SUMSET_OPS_PER_TARGET * sum(hi - lo + 1 for _, lo, hi in live):
        return None
    entries = [p for p in gaussian_prime_pool(region, top)
               if re_lo <= p[0] <= re_hi and im_lo <= p[1] <= im_hi]
    width, levels = _sumsets(entries, region, re_lo, re_hi, im_lo, im_hi, k_top)
    base = re_lo * width + im_lo
    points = [(p[0] * width + p[1], p) for p in entries]
    rest, least = 0, {}  # least[k]: the targets whose least k is k
    for re, lo, hi in live:
        rest |= ((1 << (hi - lo + 1)) - 1) << (re * width + lo - base)
    rest = _halves(rest)  # on each coset
    for k, level in enumerate(levels[1 - one_term :], 2 - one_term):
        least[k] = rest[(k + base) & 1] & level
        rest[(k + base) & 1] ^= least[k]

    def name(k: int, at: int) -> str:  # the target at bit `at` of level k
        re, im = divmod(2 * at + ((k + base) & 1), width)
        return _text(re + re_lo, im + im_lo)

    def fail(k: int, bits: int):
        at = (bits & -bits).bit_length() - 1
        while not least.get(k, 0) >> at & 1:  # a residual: up to the target it came from
            k += 1
            at += next(sh for sh, _, hit in firsts[k] if hit >> (at + sh) & 1)
        raise ValueError(f"the walk for {name(k, at)} fails at {k} terms")

    firsts, carried = {}, 0
    for k in range(len(levels), 1, -1):
        below, q = levels[k - 2], (k - 1 + base) & 1
        need, carried, firsts[k] = least[k] | carried, 0, []
        for s, p in points:
            if not need:
                break
            sh = (s + q) >> 1
            hit = need & (below << sh if sh >= 0 else below >> -sh)
            if hit:
                need ^= hit
                carried |= hit >> sh if sh >= 0 else hit << -sh
                firsts[k].append((sh, p, hit))
        if need:
            fail(k, need)
    points = [((s - base) >> 1, p) for s, p in points]
    if carried := carried & ~_bitset([h for h, _ in points]):
        fail(1, carried)
    lanes, ks = bytes.maketrans(b"01", b"\0\1"), 0
    for k, bits in least.items():  # to every other position, then a byte each
        spread = int(bin(bits)[2:], 4) << ((k + base) & 1)
        ks += k * int.from_bytes(bin(spread)[:1:-1].encode().translate(lanes), "little")
    ks = ks.to_bytes((re_hi - re_lo + 1) * width, "little")
    return width, base, ks, (points, [firsts[k] for k in range(2, len(levels) + 1)], least, name)


# The most targets one scan takes: a full box at scan_box's side cap.
_TARGET_CAP = 500 * 500


def scan_targets(
    targets: Sequence[GaussianInt],
    term_region: Region,
    max_terms: int,
    policy: NormPolicy = NormPolicy.STRICT_LESS,
    target_desc: str = "explicit",
) -> ScanReport:
    """Attempt a decomposition for every listed target.

    The sumsets of the pool give each target its least possible term
    count k, and its witness is chased from level k down through the first
    terms of each level, found off them. Under NormPolicy.NONE that k and
    witness are exact. Under STRICT_LESS k is a lower bound; the chased
    witness is the canonical strict one when its largest norm is below the
    target's, and otherwise the search starts at k. A scan whose sumsets
    would cost more than searching from two terms (a narrow box far from
    the cone's corner) searches from two, and its pool list and the shared
    flags grow only as far as those searches read them. More than 250 000
    targets raise ValueError before anything is built.
    """
    if len(targets) > _TARGET_CAP:
        raise ValueError(f"target count {len(targets)} is above the cap of {_TARGET_CAP}")
    if any(z.is_zero() for z in targets):
        raise ValueError("target must be nonzero")
    keys = [z.key() for z in targets]
    runs: list[tuple] = []  # a row's consecutive targets make one run, a repeat its own
    for re, im in sorted(key[1:] for key in keys):
        if runs and runs[-1][0] == re and runs[-1][2] == im - 1:
            runs[-1] = (re, runs[-1][1], im)
        else:
            runs.append((re, im, im))
    return _scan(keys, runs, term_region, max_terms, policy, target_desc)


def _scan(
    targets: list, runs: list, term_region: Region, max_terms: int, policy: NormPolicy, desc: str
) -> ScanReport:
    """scan_targets for nonzero targets given as (norm, re, im), which
    scan_box hands over as it lists them, and as _extent's runs: rows and
    witnesses stay ints. The row loop keeps a chased witness as the
    target's window position."""
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    (a1, b1, c1), (a2, b2, c2) = cone = term_region.cone
    strict, u0, v0 = policy is NormPolicy.STRICT_LESS, 2 * c1, 2 * c2
    live, extent = _extent(runs, term_region, strict) if max_terms >= 2 else ([], None)
    pool = _pool_for(term_region, extent[5] if live else 2)
    got = _minimal_terms(live, extent, term_region, max_terms, not strict) if live else None
    member, top, chase = pool.member, 0, None  # member decides a one-term row from norm top up
    if got is not None:
        # under NONE ks marks 1 the live targets that are pool points, below top
        (width, base, ks, chase), top = got, extent[5]
        largest = strict and _chased(chase, itemgetter(2))  # its level-1 term's norm
    rows: list = []
    for n, re, im in targets:
        if not live or a1 * re + b1 * im < u0 or a2 * re + b2 * im < v0:
            # off the two-term cone: no sum of two or more terms, and one only in the cone
            p = not strict and a1 * re + b1 * im >= c1 and a2 * re + b2 * im >= c2 and member(re, im)
            rows.append((n, re, im, 1, (p,)) if p else (n, re, im, None, None))
            continue
        k = ks[at := re * width + im - base] if chase is not None else 2  # else search from 2
        if not strict and n >= top and (re + im) % 2 and (p := member(re, im)):
            rows.append((n, re, im, 1, (p,)))
        elif chase is not None and (not k or not strict or largest[k][at >> 1] < n):
            rows.append((n, re, im, k, at) if k else (n, re, im, None, None))
        else:
            found = _search(re, im, k, max_terms, _cap(cone, re, im, n, strict), pool)
            rows.append((n, re, im, len(found), tuple(found)) if found else (n, re, im, None, None))
    return ScanReport(term_region, desc, max_terms, policy, tuple(rows), chase)


def scan_box(
    target_region: Region,
    re_range: tuple[int, int],
    im_range: tuple[int, int],
    term_region: Region,
    max_terms: int,
    policy: NormPolicy = NormPolicy.STRICT_LESS,
    min_max_component: int = 0,
) -> ScanReport:
    """Scan a component box of one region for decompositions into
    primes of another. This is the shape every conjecture scan takes:
    target grid on one side, summand pool on the other. Box sides are
    capped at 500 to keep scans at desk scale.
    """
    if re_range[1] - re_range[0] >= 500 or im_range[1] - im_range[0] >= 500:
        raise ValueError("box sides are capped at 500")
    targets, runs = _box_keys(target_region, re_range, im_range, min_max_component)
    desc = (
        f"{target_region.value} re {re_range[0]}..{re_range[1]}"
        f" im {im_range[0]}..{im_range[1]} maxc>={min_max_component}"
    )
    return _scan(targets, runs, term_region, max_terms, policy, desc)


class ObstructionReport(Report):
    """Exhaustive evidence that k-term sums of odd sector primes keep
    re - im at or above k. Violations would refute the obstruction, so
    unlike a scan report, an empty exception list is the good outcome."""

    bound: int
    max_terms: int
    levels: tuple[tuple[int, int, int], ...]
    violations: tuple[tuple[int, GaussianInt], ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "max_terms": self.max_terms,
            "levels": [
                {"k": k, "count": c, "min_gap": g} for k, c, g in self.levels
            ],
            "violations": [{"k": k, "z": str(z)} for k, z in self.violations],
            "holds": self.holds,
        }

    def md_lines(self) -> Iterator[str]:
        verdict = "inequality holds" if self.holds else "VIOLATED"
        yield f"bound {self.bound}, up to {self.max_terms} terms: {verdict}\n"
        yield "\n| k | count | min re-im |\n|---|---|---|\n"
        for k, c, g in self.levels:
            yield f"| {k} | {c} | {g} |\n"
        for k, z in self.violations:
            yield f"violation at k={k}: {z}\n"

    def csv_lines(self) -> Iterator[str]:
        yield "k,count,min_gap\n"
        for k, c, g in self.levels:
            yield f"{k},{c},{g}\n"


def verify_diagonal_obstruction(bound: int, max_terms: int = 6) -> ObstructionReport:
    """Enumerate every sum of up to max_terms odd sector primes with real
    part at most bound and record the smallest re - im per term count.

    The pool is every odd sector prime with real part at most bound (so
    norm at most 2 * bound^2), read off the sieve. The sums of k primes
    are the k-fold sumset over the window 1 <= re <= bound of the sector
    cone, which holds every sum and partial sum with re <= bound, since
    real parts only grow. Each level is read off its bit rows: the
    popcount is the number of sums, and a row's highest set bit is its
    largest im, so its smallest re - im. The sweep never assumes the
    inequality it is checking. The bound is capped at 500, the box scans'
    side cap, which keeps the sieve and the bit rows small.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > 500:
        raise ValueError("bound is capped at 500")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    # a sector prime with re <= bound has 1 - bound <= im <= bound
    pool = gaussian_prime_pool(Region.PRIME_SECTOR, 2 * bound * bound + 1)
    pool = [p for p in pool if p[0] <= bound]
    im_lo = 1 - bound
    width, sums = _sumsets(pool, Region.PRIME_SECTOR, 1, bound, im_lo, bound, max_terms)
    levels: list[tuple[int, int, int]] = []
    violations: list[tuple[int, GaussianInt]] = []
    for k, level in enumerate(sums, 1):
        bits = format(int(format(level, "b"), 4) << ((k + width + im_lo) & 1), "b")[::-1]
        gap = None
        for re in range(1, bound + 1):
            start = (re - 1) * width
            top = bits.rfind("1", start, start + width)
            if top < 0:
                continue
            if gap is None or re - (top - start + im_lo) < gap:
                gap = re - (top - start + im_lo)
            # bits from im = re - k + 1 up break the inequality
            at = bits.find("1", start + max(0, re - k + 1 - im_lo), start + width)
            while at >= 0:
                violations.append((k, GaussianInt(re, at - start + im_lo)))
                at = bits.find("1", at + 1, start + width)
        levels.append((k, level.bit_count(), gap))
    violations.sort(key=lambda t: (t[0], t[1].key()))
    return ObstructionReport(bound, max_terms, tuple(levels), tuple(violations))


def obstruction_line_report(bound: int, max_terms: int = 6) -> ScanReport:
    """Scan the two blocked diagonals im = re and im = re - 1 for sums
    of odd sector primes, no norm bound. Rows with k = 1 are targets
    that happen to be primes themselves; every other row must come back
    empty, which is the searching counterpart of the re - im >= k
    invariant that verify_diagonal_obstruction checks by exhaustion. Each
    target is searched, so the bound is capped at 150 (about 0.5 s).
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > 150:
        raise ValueError("bound is capped at 150")
    targets = [GaussianInt(re, re - d) for re in range(1, bound + 1) for d in (0, 1)]
    targets.sort(key=GaussianInt.key)
    desc = f"gammapi lines im=re and im=re-1, re 1..{bound}"
    return scan_targets(targets, Region.PRIME_SECTOR, max_terms, NormPolicy.NONE, desc)


def four_term_decompose(
    z: GaussianInt,
    region: Region = Region.PRIME_QUADRANT,
    policy: NormPolicy = NormPolicy.NONE,
) -> tuple[Decomposition, str] | None:
    """Write z as at most four odd region primes and say which route won.

    Odd targets get one three-term search, as four odd primes never sum
    to an odd target. Even targets shed one inert prime, 3i when the
    imaginary part is at least 4 and 3i lies in the region and otherwise
    3 when it does, to reach an odd remainder needing at most three
    terms; if that structured path fails, the flagged fallback is a
    direct four-term search. Routes: direct, shift-3i, shift-3,
    fallback. Returns None when no route finds a split; such a target is
    a counterexample candidate worth keeping.
    """
    if not in_region(z, Region.OPEN_QUADRANT):
        raise ValueError(f"{z} must have positive real and imaginary parts")
    if max(z.re, z.im) <= 4:
        raise ValueError("chain construction needs a component above 4")
    if parity_of(z) is Parity.ODD:
        dec = find_decomposition(z, region, 3, policy)
        return None if dec is None else (dec, "direct")
    shift = GaussianInt(0, 3)
    if z.im < 4 or not in_region(shift, region):
        shift = GaussianInt(3, 0)
    if in_region(shift, region):
        base = find_decomposition(z - shift, region, 3, policy)
        if base is not None:
            summands = base.summands() + [shift]
            summands.sort(key=GaussianInt.key, reverse=True)
            terms = tuple(sector_form(s) for s in summands)
            chain = Decomposition(z, terms, region, policy)
            verify_decomposition(chain)
            return chain, "shift-3i" if shift.im else "shift-3"
    dec = find_decomposition(z, region, 4, policy)
    return None if dec is None else (dec, "fallback")


__all__ = [
    "Decomposition",
    "NormPolicy",
    "ObstructionReport",
    "ScanReport",
    "find_decomposition",
    "four_term_decompose",
    "obstruction_line_report",
    "scan_box",
    "scan_targets",
    "verify_decomposition",
    "verify_diagonal_obstruction",
]
