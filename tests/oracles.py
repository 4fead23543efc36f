"""Reference implementations the tests trust instead of the library.

Everything here is deliberately naive: trial division, full divisor
sweeps, tuple enumeration. Slow but obviously correct, so library
outputs can be judged against them. Only the matrix type the solvers
return, and GaussianInt to hand targets to the scans, are taken from
the library.
"""

from math import isqrt

from shnirel.diophantine import SolutionMatrix, SystemKind
from shnirel.zcore import GaussianInt


def trial_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def odd_primes_upto(limit: int) -> list[int]:
    return [n for n in range(3, limit + 1, 2) if trial_prime(n)]


def congruent_mod_one_plus_i(z, k: int) -> bool:
    """True when z (anything with re and im) and the rational integer k
    agree modulo 1+i: (z - k)(1 - i) / 2 has integer parts."""
    re, im = z.re - k, z.im
    return (re + im) % 2 == 0 and (im - re) % 2 == 0


def _gaussian_divides(d_re: int, d_im: int, z_re: int, z_im: int) -> bool:
    n = d_re * d_re + d_im * d_im
    a = z_re * d_re + z_im * d_im
    b = z_im * d_re - z_re * d_im
    return a % n == 0 and b % n == 0


def gaussian_prime_by_division(re: int, im: int) -> bool:
    """Sweep every candidate divisor with norm in [2, sqrt(norm(z))].

    Any proper factorization z = d * e has a factor of norm at most
    sqrt(norm(z)), and every divisor has an associate in the closed
    first quadrant, so scanning d_re, d_im >= 0 is exhaustive.
    """
    n = re * re + im * im
    if n < 2:
        return False
    top = isqrt(n)
    for d_re in range(0, isqrt(top) + 1):
        rest = top - d_re * d_re
        if rest < 0:
            break
        for d_im in range(0, isqrt(rest) + 1):
            dn = d_re * d_re + d_im * d_im
            if dn < 2:
                continue
            if _gaussian_divides(d_re, d_im, re, im):
                return False
    return True


def min_split_into(n: int, k: int, pool: list[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest non-decreasing k-tuple from pool
    summing to n, found by plain enumeration."""
    members = set(pool)

    def rec(rest: int, terms: int, lo: int, acc: tuple[int, ...]):
        if terms == 1:
            if rest in members and (not acc or rest >= acc[-1]):
                return acc + (rest,)
            return None
        for i in range(lo, len(pool)):
            p = pool[i]
            if p * terms > rest:
                break
            got = rec(rest - p, terms - 1, i, acc + (p,))
            if got is not None:
                return got
        return None

    return rec(n, k, 0, ())


# The predicates of the Region docstring, written out literally and keyed
# by CLI token, so region tests never lean on the library's cone rows.
REGION_PREDICATES = {
    "sector": lambda re, im: re > 0 and -re < im <= re,
    "quadrant": lambda re, im: re > 0 and im >= 0,
    "a": lambda re, im: re > 0 and im > 0,
    "octant": lambda re, im: 0 <= im <= re,
    "gammapi": lambda re, im: re > 0 and -re < im <= re,
    "kpi": lambda re, im: re >= 0 and im >= 0,
    "spi": lambda re, im: re >= 0 and im > -re,
}


def box_targets(region, re_range, im_range, min_max_component: int = 0) -> list:
    """The nonzero points of the region in a closed component box with
    max(re, im) at or above min_max_component, as GaussianInts in (norm,
    re, im) order: every point of the box tested by the predicate."""
    inside = REGION_PREDICATES[region.value]
    keys = sorted(
        (re * re + im * im, re, im)
        for re in range(re_range[0], re_range[1] + 1)
        for im in range(im_range[0], im_range[1] + 1)
        if (re or im) and inside(re, im) and max(re, im) >= min_max_component
    )
    return [GaussianInt(re, im) for _, re, im in keys]


def associates(re: int, im: int) -> list[tuple[int, int]]:
    """The four unit multiples of re + im*i: times 1, i, -1 and -i."""
    return [(re, im), (-im, re), (-re, -im), (im, -re)]


def obstruction_sweep(points, bound: int, max_terms: int):
    """The nested-set sweep over sums of up to max_terms of the points
    (re, im) with real part at most bound: (levels, violations), levels
    as (k, count, smallest re - im) and violations as (k, (re, im)) with
    re - im < k, sorted by (k, norm, re, im).

    Sums are dropped only when their real part passes the bound; with
    positive real parts these grow monotonically, so none is lost.
    """
    pool = sorted((re, im) for re, im in points if re <= bound)
    levels = []
    violations = []
    current = set(pool)
    k = 1
    while current:
        gap = min(r - i for r, i in current)
        levels.append((k, len(current), gap))
        if gap < k:
            for r, i in current:
                if r - i < k:
                    violations.append((k, (r, i)))
        if k == max_terms:
            break
        nxt = set()
        for r, i in current:
            room = bound - r
            for pr, pi in pool:
                if pr > room:
                    break
                nxt.add((r + pr, i + pi))
        current = nxt
        k += 1
    violations.sort(key=lambda t: (t[0], t[1][0] ** 2 + t[1][1] ** 2, t[1]))
    return levels, violations


# The exhaustive matrix search the diophantine solvers are judged against.
BRUTE_FORCE_LIMIT = 200


class BoundExceeded(Exception):
    """Inputs past the exhaustive-search guard."""


def brute_force_matrix(a: int, b: int, kind: SystemKind, max_columns: int = 6):
    """The first matrix brute_force_matrices yields, or None."""
    return next(brute_force_matrices(a, b, kind, max_columns), None)


def _prime_target_tuples(n: int, k: int, pool: list[int], members: set[int]):
    """All non-decreasing k-tuples of pool primes summing to n,
    ascending lexicographic order."""

    def rec(rest: int, terms: int, lo: int, acc: tuple[int, ...]):
        if terms == 1:
            if rest in members and (not acc or rest >= acc[-1]):
                yield acc + (rest,)
            return
        for i in range(lo, len(pool)):
            p = pool[i]
            if p * terms > rest:
                break
            yield from rec(rest - p, terms - 1, i, acc + (p,))

    yield from rec(n, k, 0, ())


def _second_row_fills(targets_desc: tuple[int, ...], b: int):
    """All ways to spread b over the columns with 0 <= x2_j <= t_j.

    Columns run in descending target order; within a run of equal
    targets x2 must not decrease, so each column multiset shows up
    exactly once.
    """
    width = len(targets_desc)
    suffix = [0] * (width + 1)
    for j in range(width - 1, -1, -1):
        suffix[j] = suffix[j + 1] + targets_desc[j]

    def rec(j: int, brem: int, acc: tuple[int, ...]):
        t = targets_desc[j]
        lo = max(0, brem - suffix[j + 1])
        if j > 0 and t == targets_desc[j - 1]:
            lo = max(lo, acc[-1])
        if j == width - 1:
            if lo <= brem <= t:
                yield acc + (brem,)
            return
        for x in range(lo, min(t, brem) + 1):
            yield from rec(j + 1, brem - x, acc + (x,))

    yield from rec(0, b, ())


def _gaussian_all(a: int, b: int, max_columns: int):
    """Every matrix of odd Gaussian prime columns in the closed first
    quadrant (kpi) at the fewest columns that admit one; the pool is
    sorted by (norm, re, im), primality by divisor sweep."""
    pool = sorted(
        (re * re + im * im, re, im)
        for re in range(a + 1)
        for im in range(b + 1)
        if (re + im) % 2 and gaussian_prime_by_division(re, im)
    )
    index = {(re, im): i for i, (_, re, im) in enumerate(pool)}

    def rec(ra: int, rb: int, terms: int, lo: int, acc: tuple):
        if terms == 1:
            i = index.get((ra, rb))
            if i is not None and i >= lo:
                yield acc + (pool[i],)
            return
        if 3 * terms > ra + rb:
            return
        cap = ra * ra + rb * rb
        for i in range(lo, len(pool)):
            norm, re, im = pool[i]
            if norm > cap:
                break
            if re > ra or im > rb:
                continue
            yield from rec(ra - re, rb - im, terms - 1, i, acc + (pool[i],))

    for k in range(1, max_columns + 1):
        if k % 2 != (a + b) % 2:
            continue
        found = False
        for terms in rec(a, b, k, 0, ()):
            found = True
            yield SolutionMatrix.from_columns(SystemKind.SQUARE_COLUMNS, list(terms), None)
        if found:
            return


def brute_force_matrices(a: int, b: int, kind: SystemKind, max_columns: int = 6):
    """Yield every solution matrix the brute-force search admits.

    Four-column systems enumerate all width-4 matrices; the other
    kinds enumerate every matrix at the smallest feasible width.
    Order is deterministic, so membership checks against solver
    output terminate early in the common case.
    """
    if a + b > BRUTE_FORCE_LIMIT:
        raise BoundExceeded(f"exhaustive search is guarded at a + b <= {BRUTE_FORCE_LIMIT}")
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need nonnegative a, b, not both zero")
    if kind is SystemKind.SQUARE_COLUMNS:
        yield from _gaussian_all(a, b, max_columns)
        return
    n = a + b
    pool = odd_primes_upto(n)
    members = set(pool)
    widths = [4] if kind is SystemKind.FOUR_COLUMNS else range(1, max_columns + 1)
    for k in widths:
        if n % 2 != k % 2 or n < 3 * k:
            continue
        found = False
        for targets in _prime_target_tuples(n, k, pool, members):
            desc = tuple(reversed(targets))
            for x2 in _second_row_fills(desc, b):
                found = True
                cols = [(t, t - x, x) for t, x in zip(desc, x2)]
                yield SolutionMatrix.from_columns(kind, cols, None)
        if found and kind is not SystemKind.FOUR_COLUMNS:
            return
