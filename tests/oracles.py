"""Reference implementations the tests trust instead of the library.

Everything here is deliberately naive: trial division, full divisor
sweeps, tuple enumeration. Slow but obviously correct, so library
outputs can be judged against them.
"""

from math import isqrt


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
