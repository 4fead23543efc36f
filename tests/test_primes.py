"""Rational and Gaussian primality against independent oracles, plus
sieve caching."""

import gc
import os
import random
import struct
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import REGION_PREDICATES, gaussian_prime_by_division, trial_prime
from shnirel import (
    GaussianInt,
    PrimeTable,
    Region,
    ensure_table,
    gaussian_prime_pool,
    is_gaussian_prime,
    is_rational_prime,
    sector_gap_stats,
)
from shnirel import primes
from shnirel.primes import CACHE_MAGIC


class TestIsRationalPrime:
    def test_small_sweep_matches_trial_division(self):
        for n in range(0, 2000):
            assert is_rational_prime(n) == trial_prime(n), n

    def test_sign_and_degenerate_cases(self):
        assert is_rational_prime(-7)
        assert not is_rational_prime(-4)
        assert not is_rational_prime(0)
        assert not is_rational_prime(1)
        assert not is_rational_prime(-1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_agrees_with_trial_division(self, n):
        assert is_rational_prime(n) == trial_prime(n)

    def test_witness_base_composites(self):
        # strong-pseudoprime bait around the fixed witness set
        for n in (561, 1105, 3215031751, 25326001):
            assert not is_rational_prime(n), n


class TestPrimeTable:
    def test_sieve_matches_trial_division(self):
        table = PrimeTable.sieve(10**4)
        want = [n for n in range(2, 10**4 + 1) if trial_prime(n)]
        assert table.primes == want
        assert len(table.primes) == 1229

    def test_residue_classes_partition_odd_primes(self):
        table = PrimeTable.sieve(5000)
        ones = table.residue_class(1)
        threes = table.residue_class(3)
        assert all(p % 4 == 1 for p in ones)
        assert all(q % 4 == 3 for q in threes)
        assert sorted(ones + threes) == [p for p in table.primes if p > 2]

    def test_given_list_must_be_exactly_the_primes(self):
        want = PrimeTable.sieve(100).primes
        assert PrimeTable(100, list(want)).primes == want
        # the first three have the true length, every entry prime and at most 100
        duplicate = [2, 3, 3] + want[2:-1]
        moved = want[:2] + [want[3], want[2]] + want[4:]
        for stored in (duplicate, moved, [want[-1]] + want[:-1], want[:-1], want[1:]):
            with pytest.raises(ValueError, match="not the primes up to 100"):
                PrimeTable(100, stored)

    @pytest.mark.parametrize("limit", [3, 4, 9, 25, 48, 49, 50, 97, 120, 121, 169])
    def test_sieve_edges_match_trial_division(self, limit):
        """Limits at and beside prime squares, where the crossing-off loop
        starts or stops, and at a prime itself."""
        assert PrimeTable.sieve(limit).primes == [
            n for n in range(2, limit + 1) if trial_prime(n)
        ]

    def test_tiny_limits(self):
        assert PrimeTable.sieve(2).primes == [2]
        with pytest.raises(ValueError):
            PrimeTable.sieve(1)
        with pytest.raises(ValueError):
            PrimeTable(1, [])

    def test_table_keeps_no_flags(self):
        """A table lists its primes off the sieve flags and lets them go:
        they take limit + 1 bytes, and nothing reads them after the listing."""
        for table in (PrimeTable.sieve(1000), PrimeTable(100, PrimeTable.sieve(100).primes)):
            assert not any(isinstance(o, bytearray) for o in gc.get_referents(table))

    def test_sieve_cap_refuses_before_allocating(self, monkeypatch):
        with pytest.raises(ValueError, match="above the cap"):
            primes._sieve_flags(primes._SIEVE_CAP + 1)
        monkeypatch.setattr(primes, "_SIEVE_CAP", 1000)
        assert PrimeTable.sieve(1000).primes[-1] == 997
        with pytest.raises(ValueError, match="sieve limit 1001 is above the cap of 1000"):
            PrimeTable.sieve(1001)
        # each pool starts from no list and no shared flags, so it sieves its own bound
        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        assert gaussian_prime_pool(Region.PRIME_QUADRANT, 1001)[-1][2] == 997
        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        with pytest.raises(ValueError, match="sieve limit 1001 is above the cap"):
            gaussian_prime_pool(Region.PRIME_QUADRANT, 1002)


class TestCacheFile:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "primes.bin")
        table = PrimeTable.sieve(500)
        table.save(path)
        loaded = PrimeTable.load(path)
        assert loaded.primes == table.primes
        # the file stores the sieve limit, past the largest prime 499
        assert loaded.limit == 500

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTPRIME" + b"\x00" * 16)
        with pytest.raises(ValueError, match="header"):
            PrimeTable.load(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.bin")
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC + b"\x00" * 4)
        with pytest.raises(ValueError, match="truncated"):
            PrimeTable.load(path)

    def test_empty_body_rejected(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
        with pytest.raises(ValueError):
            PrimeTable.load(path)

    def test_ensure_table_creates_and_reuses(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        first = ensure_table(100, path)
        assert os.path.exists(path)
        assert first.limit == 100
        # the stored limit 100 covers any request up to it
        again = ensure_table(97, path)
        assert again.limit == 100
        assert again.primes == first.primes

    def test_rerun_at_a_composite_limit_reuses_the_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.bin")
        ensure_table(100, path)
        with open(path, "rb") as fh:
            stored = fh.read()

        def sieving(*args):
            raise AssertionError("the cache was re-sieved")

        monkeypatch.setattr(PrimeTable, "sieve", sieving)
        assert ensure_table(100, path).limit == 100
        with open(path, "rb") as fh:
            assert fh.read() == stored

    def test_ensure_table_resieves_past_coverage(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        ensure_table(100, path)
        bigger = ensure_table(200, path)
        assert bigger.limit == 200
        assert bigger.primes[-1] == 199
        # the refreshed file now covers the larger request
        assert PrimeTable.load(path).primes == bigger.primes

    def test_ensure_table_survives_corrupt_cache(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        table = ensure_table(50, path)
        assert table.primes[0] == 2
        assert PrimeTable.load(path).primes == table.primes

    def write_primes(self, path, primes, limit=None):
        """A cache file by hand: the limit (by default the last prime),
        then the primes."""
        limit = primes[-1] if limit is None else limit
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC + struct.pack(f"<{len(primes) + 1}Q", limit, *primes))

    def test_composite_rejected(self, tmp_path):
        path = str(tmp_path / "composite.bin")
        primes = PrimeTable.sieve(100).primes
        # 51 = 3 * 17 keeps the list ascending between 47 and 53
        self.write_primes(path, [51 if p == 53 else p for p in primes])
        with pytest.raises(ValueError, match="not the primes up to 97"):
            PrimeTable.load(path)

    def test_swapped_order_rejected(self, tmp_path):
        path = str(tmp_path / "swapped.bin")
        primes = PrimeTable.sieve(100).primes
        primes[5], primes[6] = primes[6], primes[5]
        self.write_primes(path, primes)
        with pytest.raises(ValueError, match="ascend"):
            PrimeTable.load(path)

    def test_must_start_at_two(self, tmp_path):
        path = str(tmp_path / "late.bin")
        self.write_primes(path, PrimeTable.sieve(100).primes[1:])
        with pytest.raises(ValueError, match="ascend"):
            PrimeTable.load(path)

    def test_large_cache_spot_check_catches_sampled_composite(self, tmp_path):
        path = str(tmp_path / "big.bin")
        primes = PrimeTable.sieve(20000).primes
        primes[-1] += 2  # 19997 + 2 = 19999 = 7 * 2857, still ascending
        self.write_primes(path, primes)
        with pytest.raises(ValueError, match="not the primes up to 19999"):
            PrimeTable.load(path)

    def test_ensure_table_recovers_from_bad_caches(self, tmp_path):
        want = PrimeTable.sieve(100).primes
        composite = [51 if p == 53 else p for p in want]
        swapped = list(want)
        swapped[5], swapped[6] = swapped[6], swapped[5]
        for name, stored in (("composite", composite), ("swapped", swapped)):
            path = str(tmp_path / f"{name}.bin")
            self.write_primes(path, stored)
            table = ensure_table(97, path)
            assert table.primes == want, name
            assert PrimeTable.load(path).primes == want, name

    def test_cache_that_skips_primes_rejected(self, tmp_path):
        path = str(tmp_path / "gappy.bin")
        self.write_primes(path, [2, 3, 1000003])
        with pytest.raises(ValueError, match="not the primes up to 1000003"):
            PrimeTable.load(path)
        assert ensure_table(100, path).primes == PrimeTable.sieve(100).primes
        assert PrimeTable.load(path).limit == 100

    def test_limit_below_the_last_prime_is_resieved(self, tmp_path):
        path = str(tmp_path / "short.bin")
        self.write_primes(path, PrimeTable.sieve(100).primes, limit=90)
        with pytest.raises(ValueError, match="stored limit 90 is below the last prime"):
            PrimeTable.load(path)
        assert ensure_table(100, path).primes == PrimeTable.sieve(100).primes
        assert PrimeTable.load(path).limit == 100

    def test_prime_missing_past_the_last_stored_one_is_resieved(self, tmp_path):
        path = str(tmp_path / "tail.bin")
        want = PrimeTable.sieve(20000).primes
        assert want[-2:] == [19993, 19997]
        # only the tail window, which ends at the limit, reaches 19997
        self.write_primes(path, want[:-1], limit=20000)
        with pytest.raises(ValueError, match="not the primes up to 20000"):
            PrimeTable.load(path)
        assert ensure_table(20000, path).primes == want
        assert PrimeTable.load(path).primes == want

    def test_cache_missing_a_middle_prime_rejected(self, tmp_path):
        path = str(tmp_path / "middle.bin")
        want = PrimeTable.sieve(20000).primes
        # 10007 is the first prime of the window starting at 19997 // 2
        assert min(p for p in want if p >= want[-1] // 2) == 10007
        self.write_primes(path, [p for p in want if p != 10007])
        with pytest.raises(ValueError, match="not the primes up to 19997"):
            PrimeTable.load(path)
        assert ensure_table(19997, path).primes == want
        assert PrimeTable.load(path).primes == want

    def test_cache_missing_a_prime_between_old_windows_is_resieved(self, tmp_path):
        path = str(tmp_path / "between.bin")
        want = PrimeTable.sieve(20000).primes
        # 2053 is past [0, 2048] and before 2500, where no window looked
        self.write_primes(path, [p for p in want if p != 2053], limit=20000)
        with pytest.raises(ValueError, match="not the primes up to 20000"):
            PrimeTable.load(path)
        assert ensure_table(20000, path).primes == want
        assert PrimeTable.load(path).primes == want

    def test_table_limit_is_capped(self, tmp_path, monkeypatch):
        path = str(tmp_path / "past.bin")
        self.write_primes(path, PrimeTable.sieve(1100).primes)
        monkeypatch.setattr(primes, "_SIEVE_CAP", 1000)
        assert PrimeTable(1000).limit == 1000
        with pytest.raises(ValueError, match="sieve limit 1001 is above the cap"):
            PrimeTable(1001, [2])
        # a cache past the cap would size its flags past it: re-sieve instead
        with pytest.raises(ValueError, match="sieve limit 1097 is above the cap of 1000"):
            PrimeTable.load(path)
        assert ensure_table(100, path).primes == PrimeTable.sieve(100).primes

    def test_ensure_table_without_cache_path(self):
        assert ensure_table(30).primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestGaussianPrimality:
    def test_sweep_matches_divisor_search(self):
        # every lattice point with norm at most 2000, all four quadrants
        for re in range(-45, 46):
            for im in range(-45, 46):
                if re * re + im * im > 2000:
                    continue
                got = is_gaussian_prime(GaussianInt(re, im))
                assert got == gaussian_prime_by_division(re, im), (re, im)

    def test_classes_match_norm_structure(self):
        for re in range(-20, 21):
            for im in range(-20, 21):
                z = GaussianInt(re, im)
                if not is_gaussian_prime(z):
                    continue
                n = z.norm()
                if n != 2 and trial_prime(n):
                    assert n % 4 == 1
                elif n != 2:
                    # inert: an associate of a rational prime q = 3 mod 4
                    assert min(abs(re), abs(im)) == 0
                    assert (abs(re) + abs(im)) % 4 == 3


def lattice_primes(region, norm_bound):
    """Independent route: walk the lattice and keep the odd divisor-checked
    primes."""
    out = []
    edge = 1
    while edge * edge < norm_bound:
        edge += 1
    for re in range(-edge, edge + 1):
        for im in range(-edge, edge + 1):
            if re * re + im * im >= norm_bound:
                continue
            if (
                (re + im) % 2
                and REGION_PREDICATES[region.value](re, im)
                and gaussian_prime_by_division(re, im)
            ):
                out.append(GaussianInt(re, im))
    out.sort(key=GaussianInt.key)
    return out


def pool_points(region, norm_bound):
    """gaussian_prime_pool's triples as GaussianInt values, same order."""
    pool = gaussian_prime_pool(region, norm_bound)
    return [GaussianInt(re, im) for re, im, _ in pool]


class TestGaussianPrimesIn:
    @pytest.mark.parametrize("region", list(Region))
    def test_matches_lattice_walk(self, region):
        got = pool_points(region, 500)
        assert got == lattice_primes(region, 500)

    def test_sorted_and_distinct(self):
        got = pool_points(Region.PRIME_HALF, 800)
        keys = [z.key() for z in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_norm_bound_is_strict(self):
        # 3+2i has norm 13, so a bound of 13 must exclude it
        below = pool_points(Region.PRIME_QUADRANT, 13)
        at = pool_points(Region.PRIME_QUADRANT, 14)
        assert GaussianInt(3, 2) not in below
        assert GaussianInt(3, 2) in at

    def test_small_quadrant_listing(self):
        got = pool_points(Region.PRIME_QUADRANT, 20)
        assert [str(z) for z in got] == [
            "1+2i", "2+i", "3i", "3", "2+3i", "3+2i", "1+4i", "4+i",
        ]

    def test_parity_filters(self):
        odd = pool_points(Region.PRIME_QUADRANT, 50)
        assert all((z.re + z.im) % 2 for z in odd)
        assert GaussianInt(1, 1) not in odd

    def test_sector_holds_one_ramified_associate(self):
        """1+i, the sector's one ramified associate, is even: it is in no
        pool, and no pool's membership test accepts any associate of it."""
        assert pool_points(Region.SECTOR, 3) == []
        assert pool_points(Region.SECTOR, 2) == []
        for region in Region:
            pool, flags = gaussian_prime_pool(region, 20), primes._prime_norm_flags(20)
            assert all(n != 2 for _, _, n in pool)
            member = primes._member(region, flags)
            for re, im in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert member(re, im, (0, 0, 0), 20) is None, (region, re, im)

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            pool_points(Region.SECTOR, 1)


BOUNDS = (2, 3, 4, 10, 50, 1000, 2000)


@pytest.fixture(scope="module")
def divisor_checked_lattice():
    """Every lattice point of norm below the largest bound that the
    divisor sweep calls prime, sorted by (norm, re, im)."""
    top = max(BOUNDS)
    edge = isqrt(top)
    out = [
        (re * re + im * im, re, im)
        for re in range(-edge, edge + 1)
        for im in range(-edge, edge + 1)
        if re * re + im * im < top and gaussian_prime_by_division(re, im)
    ]
    out.sort()
    return out


class TestGaussianPrimePool:
    @pytest.mark.parametrize("region", list(Region))
    def test_matches_divisor_oracle(self, region, divisor_checked_lattice):
        for bound in BOUNDS:
            want = [
                (re, im, n)
                for n, re, im in divisor_checked_lattice
                if n < bound and (re + im) % 2 and REGION_PREDICATES[region.value](re, im)
            ]
            assert gaussian_prime_pool(region, bound) == want, bound

    @pytest.mark.parametrize("region", list(Region))
    def test_flags_mark_exactly_the_odd_prime_norms(self, region):
        """The flags the pool is read off: n is flagged exactly when it is
        an odd prime or the square of a prime q = 3 mod 4, so flags[2],
        the norm of the even prime, is clear in every region."""
        for bound in BOUNDS:
            pool, flags = gaussian_prime_pool(region, bound), primes._prime_norm_flags(bound)
            assert len(flags) == bound
            inert_squares = {q * q for q in range(3, bound, 4) if trial_prime(q)}
            assert [n for n in range(bound) if flags[n]] == [
                n for n in range(3, bound, 2) if trial_prime(n) or n in inert_squares
            ], bound
            assert all(flags[n] for _, _, n in pool), bound

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            gaussian_prime_pool(Region.SECTOR, 1)

    @pytest.mark.parametrize(
        "region", [Region.PRIME_QUADRANT, Region.PRIME_SECTOR, Region.PRIME_HALF]
    )
    def test_annuli_concatenate_to_one_sweep(self, region):
        """Annuli split anywhere list what one sweep lists, in order. The
        splits include perfect squares, where the inner circle passes
        through a row's im = 0 point, and points re^2 + im^2 of the
        lattice, where it passes through two points of row re."""
        rng = random.Random(region.value)
        hi = 3000
        flags = primes._prime_norm_flags(hi)
        whole = gaussian_prime_pool(region, hi)
        on_rows = [s * s + d for s in range(1, 55) for d in (-1, 0, 1)]
        on_rows += [re * re + im * im for re in range(1, 40) for im in (1, 2, 17)]
        on_rows = [n for n in on_rows if 0 < n < hi]
        for _ in range(40):
            cuts = {0, hi, *rng.sample(range(1, hi), 3), *rng.sample(on_rows, 4)}
            cuts = sorted(cuts)
            got = []
            for lo, top in zip(cuts, cuts[1:]):
                part = primes._pool_annulus(region, flags, lo, top)
                assert all(lo <= n < top for _, _, n in part), (lo, top)
                got += part
            assert got == whole, cuts
        assert primes._pool_annulus(region, flags, 0, 2) == []
        assert primes._pool_annulus(region, flags, 1000, 1000) == []


class TestRegionRows:
    @pytest.mark.parametrize("region", list(Region))
    def test_rows_agree_with_in_region(self, region):
        """Each lattice row derived from the cone holds exactly the
        members the docstring predicate admits, inside any window."""
        member = REGION_PREDICATES[region.value]
        for lo, hi in ((-30, 30), (3, 7), (-9, -2)):
            for re in range(-30, 31):
                want = [im for im in range(lo, hi + 1) if member(re, im)]
                first, last = region.im_span(re, lo, hi)
                assert list(range(first, last + 1)) == want, (re, lo, hi)


class TestSectorGapStats:
    def test_counts_below_thousand(self):
        assert sector_gap_stats(1000) == (166, 1)

    def test_gap_one_is_attained_by_ramified_neighbour(self):
        count, gap = sector_gap_stats(100)
        assert gap == 1
        primes = pool_points(Region.PRIME_SECTOR, 100)
        assert len(primes) == count
        assert any(p.re - p.im == 1 for p in primes)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sector_gap_stats(2)

    @pytest.mark.parametrize("bound", [6, 50, 1000, 2000])
    def test_matches_the_lattice_oracle(self, bound):
        points = lattice_primes(Region.PRIME_SECTOR, bound)
        assert sector_gap_stats(bound) == (len(points), min(p.re - p.im for p in points))
