"""Rational prime sieving and testing plus Gaussian primality and
region-filtered enumeration."""

from __future__ import annotations

import os
import struct
from bisect import bisect_left
from itertools import compress
from math import inf, isqrt
from operator import itemgetter, lt

from .zcore import GaussianInt, Region

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

# Witness set is deterministic for every n below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

CACHE_MAGIC = b"SHNPRIM2"
CACHE_ENV = "SHNIREL_CACHE"


def is_rational_prime(n: int) -> bool:
    """Deterministic primality of |n| for anything the desk scale needs."""
    n = abs(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The largest sieve limit: a byte of flags per integer, and a listed table
# several more per prime, keep a sieve within a few hundred MB.
_SIEVE_CAP = 10**8


def _sieve_flags(limit: int) -> bytearray:
    """Eratosthenes over 0..limit (2 <= limit <= _SIEVE_CAP): flags[n] is
    1 exactly when n is prime."""
    if limit > _SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} is above the cap of {_SIEVE_CAP}")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    flags[4::2] = bytes(len(range(4, limit + 1, 2)))
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p]:
            start = p * p
            flags[start :: 2 * p] = bytes(len(range(start, limit + 1, 2 * p)))
    return flags


class PrimeTable:
    """Sieved primes up to a limit, with mod-4 residue views."""

    __slots__ = ("limit", "primes")

    def __init__(self, limit: int, primes: list[int] | None = None):
        """The primes up to limit, listed off the sieve flags. A given list
        is kept only if it is exactly that list: distinct flagged entries
        in 2..limit, as many as the flags hold, are every prime up to
        limit, and ascending they are in order."""
        if limit < 2:
            raise ValueError("limit must be at least 2")
        flags = _sieve_flags(limit)
        if primes is None:
            primes = list(compress(range(limit + 1), flags))
        elif not (
            primes[:1] == [2]
            and primes[-1] <= limit
            and len(primes) == flags.count(1)
            and all(map(lt, primes, primes[1:]))
            and all(map(flags.__getitem__, primes))
        ):
            raise ValueError(f"the list is not the primes up to {limit} in ascending order")
        self.limit = limit
        self.primes = primes

    @classmethod
    def sieve(cls, limit: int) -> "PrimeTable":
        return cls(limit)

    def residue_class(self, r: int) -> list[int]:
        """Primes congruent to r mod 4, ascending."""
        return [p for p in self.primes if p % 4 == r]

    def save(self, path: str) -> None:
        # the sieve limit, then the primes up to it
        payload = struct.pack(f"<{len(self.primes) + 1}Q", self.limit, *self.primes)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(payload)
        try:
            os.replace(tmp, path)
        except OSError:
            os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "PrimeTable":
        with open(path, "rb") as fh:
            magic = fh.read(len(CACHE_MAGIC))
            if magic != CACHE_MAGIC:
                raise ValueError(f"{path}: bad prime-cache header")
            body = fh.read()
        if len(body) % 8 or len(body) < 16:
            raise ValueError(f"{path}: truncated prime cache")
        limit, *primes = struct.unpack(f"<{len(body) // 8}Q", body)
        if limit < primes[-1]:
            raise ValueError(f"{path}: stored limit {limit} is below the last prime")
        if limit > _SIEVE_CAP:
            raise ValueError(f"{path}: sieve limit {limit} is above the cap of {_SIEVE_CAP}")
        return cls(limit, primes)


def ensure_table(limit: int, cache_path: str | None = None) -> PrimeTable:
    """Return a table covering limit, reusing or refreshing the cache file."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if cache_path and os.path.exists(cache_path):
        try:
            table = PrimeTable.load(cache_path)
        except (OSError, ValueError):
            table = None
        if table is not None and table.limit >= limit:
            return table
    table = PrimeTable.sieve(limit)
    if cache_path:
        table.save(cache_path)
    return table


def is_gaussian_prime(z: GaussianInt) -> bool:
    return _is_gaussian_prime(z.re, z.im)


def _is_gaussian_prime(re: int, im: int) -> bool:
    n = re * re + im * im
    if n <= 1:
        return False
    if is_rational_prime(n):
        return True
    if re == 0 or im == 0:
        m = abs(re) + abs(im)
        return m % 4 == 3 and is_rational_prime(m)
    return False


def _prime_norm_flags(norm_bound: int) -> bytearray:
    """flags[n], 0 <= n < norm_bound, is 1 exactly when n is an odd prime
    or the square of a prime q = 3 mod 4. So an odd z is a Gaussian prime
    exactly when flags[norm(z)] is set (only the associates of q have norm
    q^2), and with flags[2] clear a set flag means an odd prime at any
    point: the only even primes, the associates of 1+i, have norm 2."""
    if norm_bound < 3:  # no norm to sieve past 2
        return bytearray(norm_bound)
    flags = _sieve_flags(norm_bound - 1)
    flags[2] = 0
    for q in range(3, isqrt(norm_bound - 1) + 1, 4):
        if flags[q]:
            flags[q * q] = 1
    return flags


# The largest pool norm bound. At 10^7 the spi pool, the widest, holds
# about 1.0 M entries and peaks near 230 MiB while built (CPython 3.11,
# x86-64); the sieve cap of 10^8 would allow ten times that.
_POOL_CAP = 10**7

_shared_flags = bytearray()  # every pool's prime-norm flags, grown in place as lists sweep


def _member(region: Region, flags) -> Callable:
    """The region's pool membership test: member(re, im, first, cap) is the
    entry (re, im, norm) when re + im*i is an odd Gaussian prime (read off
    these prime-norm flags, or past their current end by _is_gaussian_prime),
    meets both cone rows, has norm below cap, and comes no earlier than the
    entry first in (norm, re, im) order; else None. So member(re, im) says
    whether re + im*i is an odd region prime: its own one-term sum."""
    (a1, b1, c1), (a2, b2, c2) = region.cone

    def member(re: int, im: int, first: tuple = (0, 0, 0), cap: float = inf) -> tuple | None:
        n = re * re + im * im
        if (
            n < cap
            and (flags[n] if n < len(flags) else (re + im) % 2 and _is_gaussian_prime(re, im))
            and a1 * re + b1 * im >= c1
            and a2 * re + b2 * im >= c2
            and (n, re, im) >= (first[2], first[0], first[1])
        ):
            return re, im, n
        return None

    return member


def _pool_annulus(region: Region, flags, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The odd primes of the region with lo <= norm < hi <= len(flags), as
    gaussian_prime_pool's triples, read off the flags in one sweep over the
    odd lattice points. The inner circle cuts a row into two im pieces."""
    found: list[tuple[int, int, int]] = []
    top = isqrt(hi - 1)
    for re in range(-top, top + 1):
        rr = re * re
        reach = isqrt(hi - 1 - rr)
        a, b = region.im_span(re, -reach, reach)
        a += (re + a + 1) % 2
        if a > b:  # the cone leaves the row no odd point
            continue
        pieces = [(a, b)]
        if lo > rr:  # the inner circle cuts |im| < inner out of the row
            inner = isqrt(lo - rr - 1) + 1
            pieces = [(a, min(b, -inner)), (max(a, inner + (re + inner + 1) % 2), b)]
        for a, b in pieces:
            found += [(rr + im * im, re, im) for im in range(a, b + 1, 2) if flags[rr + im * im]]
    found.sort()
    return [(re, im, n) for n, re, im in found]


class _Pool:
    """A region's pool list of odd primes of norm below swept, in (norm,
    re, im) order, and its membership test, both over the shared flags.
    Whoever reads the list grows it on demand, one annulus of norm at a
    time, and it is only appended to: a reader holding the list sees every
    later annulus. The flags grow in place, so the test reads their end."""

    def __init__(self, region: Region):
        self.region, self.entries, self.swept, self.flags = region, [], 0, _shared_flags
        self.member = _member(region, self.flags)

    def grow(self, stop: int, reach: int = 0) -> bool:
        """If the list may lack a norm <= stop, sweep out to twice the radius,
        or to norm reach if that is further, but not past stop + 1, first
        sieving the flags to that end if they fall short of it; say if it
        did. A reader that needs the whole list gives reach: one sweep."""
        if self.swept > stop:
            return False
        hi = min(max(4 * self.swept, 512, reach), stop + 1)
        if len(self.flags) < hi:  # in place: every membership test reads the new end
            self.flags += _prime_norm_flags(hi)[len(self.flags) :]
        self.entries += _pool_annulus(self.region, self.flags, self.swept, hi)
        self.swept = hi
        return True


_POOL_CACHE: dict[Region, _Pool] = {}  # one per region; each list only grows


def _pool_for(region: Region, bound: int = 0) -> _Pool:
    """The region's cached _Pool, for a reader whose norms stay below bound.
    A bound above _POOL_CAP raises ValueError before anything is swept or
    sieved; the list and the flags grow only as the pool is read."""
    if bound > _POOL_CAP:
        raise ValueError(f"pool norm bound {bound} is above the cap of {_POOL_CAP}")
    pool = _POOL_CACHE.get(region)
    if pool is None:
        pool = _POOL_CACHE[region] = _Pool(region)
    return pool


def gaussian_prime_pool(region: Region, norm_bound: int) -> list[tuple[int, int, int]]:
    """All odd Gaussian primes in the region with norm below norm_bound
    (at most _POOL_CAP), as (re, im, norm) triples sorted by (norm, re,
    im): the region's cached pool list, grown to norm_bound and cut there."""
    if norm_bound < 2:
        raise ValueError("norm_bound must be at least 2")
    pool = _pool_for(region, norm_bound)
    pool.grow(norm_bound - 1, norm_bound)
    return pool.entries[: bisect_left(pool.entries, norm_bound, key=itemgetter(2))]


def sector_gap_stats(norm_bound: int) -> tuple[int, int]:
    """(count, min re-im) over odd sector primes with norm below norm_bound."""
    pool = gaussian_prime_pool(Region.PRIME_SECTOR, norm_bound)
    if not pool:
        raise ValueError("no odd sector primes below bound")
    return (len(pool), min(re - im for re, im, _ in pool))


__all__ = [
    "CACHE_ENV",
    "CACHE_MAGIC",
    "PrimeTable",
    "ensure_table",
    "gaussian_prime_pool",
    "is_gaussian_prime",
    "is_rational_prime",
    "sector_gap_stats",
]
