"""The region-prime decomposition engine: canonical witnesses, scan
reports, the diagonal obstruction, and the shift-by-inert chains."""

import inspect
import io
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, floor, isqrt
from operator import add

import pytest

from oracles import (
    REGION_PREDICATES,
    box_targets,
    congruent_mod_one_plus_i,
    gaussian_prime_by_division,
    obstruction_sweep,
    trial_prime,
)

from shnirel import (
    Decomposition,
    GaussianInt,
    NormPolicy,
    Region,
    Unit,
    find_decomposition,
    four_term_decompose,
    gaussian_prime_pool,
    is_gaussian_prime,
    obstruction_line_report,
    scan_box,
    scan_targets,
    sector_form,
    verify_decomposition,
    verify_diagonal_obstruction,
)
from shnirel import gaussdecomp, primes
from shnirel.primes import _pool_annulus, _pool_for, _prime_norm_flags

KPI = Region.PRIME_QUADRANT
GPI = Region.PRIME_SECTOR
SPI = Region.PRIME_HALF


def summand_strs(dec):
    return [str(s) for s in dec.summands()]


class TestFindDecomposition:
    def test_two_terms_for_eight(self):
        dec = find_decomposition(GaussianInt(8, 0), GPI, 2)
        assert summand_strs(dec) == ["6+i", "2-i"]
        assert dec.k == 2

    def test_three_terms_strict(self):
        dec = find_decomposition(GaussianInt(19, 16), KPI, 3)
        assert summand_strs(dec) == ["17+12i", "1+2i", "1+2i"]

    def test_half_plane_pairs(self):
        dec = find_decomposition(GaussianInt(6, 6), SPI, 2)
        assert summand_strs(dec) == ["5+4i", "1+2i"]
        dec = find_decomposition(GaussianInt(51, 51), SPI, 2)
        assert summand_strs(dec) == ["48+53i", "3-2i"]

    def test_rational_target_in_half_plane(self):
        dec = find_decomposition(GaussianInt(9, 0), SPI, 3)
        assert summand_strs(dec) == ["6-i", "2-i", "1+2i"]

    def test_single_term_when_target_is_prime(self):
        dec = find_decomposition(GaussianInt(5, 4), KPI, 3, NormPolicy.NONE)
        assert dec.k == 1
        assert summand_strs(dec) == ["5+4i"]

    def test_include_single_off_forces_search(self):
        dec = find_decomposition(
            GaussianInt(5, 4), KPI, 3, NormPolicy.NONE, include_single=False
        )
        assert dec.k == 3
        assert summand_strs(dec) == ["3", "1+2i", "1+2i"]

    def test_strict_policy_rules_out_single(self):
        # the prime target itself never beats a strict norm bound
        dec = find_decomposition(GaussianInt(5, 4), KPI, 3)
        assert dec is not None
        assert dec.k == 3
        assert all(s.norm() < 41 for s in dec.summands())

    def test_unreachable_targets(self):
        assert find_decomposition(GaussianInt(1, 0), KPI, 3) is None
        assert find_decomposition(GaussianInt(2, 0), KPI, 3) is None

    def test_term_count_obeys_parity(self):
        # odd target, k=2 is skipped outright; 3 works
        dec = find_decomposition(GaussianInt(7, 2), KPI, 3, NormPolicy.NONE)
        assert dec.k in (1, 3)
        assert congruent_mod_one_plus_i(GaussianInt(7, 2), dec.k)

    def test_summands_descend(self):
        dec = find_decomposition(GaussianInt(25, 20), KPI, 3, NormPolicy.NONE)
        keys = [s.key() for s in dec.summands()]
        assert keys == sorted(keys, reverse=True)

    def test_checks_the_witness_before_returning(self, monkeypatch):
        """A search that returns a wrong witness, here one whose terms sum
        to 19+18i, makes find_decomposition raise instead of return."""
        real = gaussdecomp._search

        def wrong(*args):
            got = real(*args)
            return [got[0], got[1], (1, 4, 17)]

        monkeypatch.setattr(gaussdecomp, "_search", wrong)
        with pytest.raises(ValueError, match=r"terms sum to 19\+18i, not 19\+16i"):
            find_decomposition(GaussianInt(19, 16), KPI, 3)

    @pytest.mark.parametrize("region", list(Region))
    def test_every_cone_point_has_a_positive_row_sum(self, region):
        """With cone rows n1.p >= c1 and n2.p >= c2, (n1 + n2).p >= 1 at
        every nonzero point of the region, so k terms sum to a z with
        (n1 + n2).z >= k: the bound on _search's term counts."""
        (a1, b1, _), (a2, b2, _) = region.cone
        inside = REGION_PREDICATES[region.value]
        points = [(re, im) for re in range(-30, 31) for im in range(-30, 31) if re or im]
        assert any(inside(re, im) for re, im in points)
        for re, im in points:
            if inside(re, im):
                assert (a1 + a2) * re + (b1 + b2) * im >= 1, (re, im)

    def test_a_huge_max_terms_searches_only_reachable_counts(self, monkeypatch):
        """No search goes past (n1 + n2).z terms, whatever max_terms says:
        2 in spi, where (n1 + n2).z = 2 re + im = 4, tries 2 and 4 terms,
        and a kpi box scan with max_terms 10^6 gives the rows of max_terms
        40, as re + im <= 40 there. The cost gate counts no more levels
        than that either, so it would walk this box: it is closed here to
        reach the search."""
        searched = []
        real = gaussdecomp._dfs
        monkeypatch.setattr(gaussdecomp, "_SUMSET_OPS_PER_TARGET", 0)

        def spying(re, im, k, *args):
            searched.append((re, im, k))
            if k > 40:
                raise AssertionError(f"searched {re}+{im}i at {k} terms")
            return real(re, im, k, *args)

        monkeypatch.setattr(gaussdecomp, "_dfs", spying)
        assert find_decomposition(GaussianInt(2, 0), SPI, 10**6) is None
        assert searched == [(2, 0, 2), (2, 0, 4)]
        searched.clear()
        targets = box_targets(Region.OPEN_QUADRANT, (1, 20), (1, 20))
        report = scan_targets(targets, KPI, 10**6, NormPolicy.NONE)
        assert searched and all(k <= re + im for re, im, k in searched)
        assert report.rows == scan_targets(targets, KPI, 40, NormPolicy.NONE).rows

    def test_rejects_zero_and_bad_width(self):
        with pytest.raises(ValueError):
            find_decomposition(GaussianInt(0, 0), KPI, 3)
        with pytest.raises(ValueError):
            find_decomposition(GaussianInt(5, 0), KPI, 0)


def enumerate_minimal(policy, pool, targets):
    """(re, im) -> (k, terms) for the targets that at most three pool
    primes sum to: the fewest terms k, and the lexicographically smallest
    non-decreasing k-tuple in (norm, re, im) order.

    The oracle walks combinations of the ascending prime pool, so the
    first admissible tuple it files for a sum is that tuple at the
    smallest k. The strict policy admits a tuple only when its largest
    norm, the last, is below the norm of the sum."""
    pool = sorted(pool, key=GaussianInt.key)
    targets = set(targets)
    best = {}
    for k in (1, 2, 3):
        for combo in combinations_with_replacement(pool, k):
            z = (sum(c.re for c in combo), sum(c.im for c in combo))
            if z not in targets or z in best:
                continue
            if policy is NormPolicy.STRICT_LESS and combo[-1].norm() >= z[0] ** 2 + z[1] ** 2:
                continue
            best[z] = (k, combo)
    return best


def check_against_enumeration(region, policy, pool, targets):
    """Exhaustive check of both minimality and witness choice."""
    best = enumerate_minimal(policy, pool, targets)
    for re, im in targets:
        dec = find_decomposition(GaussianInt(re, im), region, 3, policy)
        want = best.get((re, im))
        if dec is None:
            assert want is None, (re, im)
            continue
        assert want is not None, (re, im)
        assert dec.k == want[0], (re, im)
        assert sorted(dec.summands(), key=GaussianInt.key) == list(want[1]), (re, im)


def scan_rows_by_search(targets, region, max_terms, policy=NormPolicy.NONE):
    """Scan rows built from find_decomposition, target by target."""
    rows = []
    for z in targets:
        dec = find_decomposition(z, region, max_terms, policy)
        if dec is None:
            rows.append((z, None, None))
        else:
            rows.append((z, dec.k, tuple(dec.summands())))
    return tuple(rows)


class TestCanonicalMinimality:
    def test_first_quadrant_box_matches_enumeration(self):
        pool = [
            GaussianInt(re, im)
            for re, im, _ in gaussian_prime_pool(KPI, 1801)
            if re <= 30 and im <= 30
        ]
        targets = [(re, im) for re in range(31) for im in range(31) if re or im]
        check_against_enumeration(KPI, NormPolicy.NONE, pool, targets)

    @pytest.mark.parametrize("policy", list(NormPolicy))
    @pytest.mark.parametrize("region", list(Region))
    def test_every_region_matches_enumeration(self, region, policy):
        """Targets re in [-2, 12], im in [-12, 12]. Every region lies in
        re >= 0 and holds the sums of its members, so a term p of a sum
        equal to z has 0 <= p.re <= z.re, and each docstring predicate
        then keeps p.im within [-12, 24]; the pool is every odd prime
        there, proved by trial division."""
        member = REGION_PREDICATES[region.value]
        pool = [
            GaussianInt(re, im)
            for re in range(0, 13)
            for im in range(-12, 25)
            if (re + im) % 2 and member(re, im) and gaussian_prime_by_division(re, im)
        ]
        targets = [
            (re, im) for re in range(-2, 13) for im in range(-12, 13) if re or im
        ]
        check_against_enumeration(region, policy, pool, targets)


class TestSoundnessSweep:
    @pytest.mark.parametrize("region", list(Region))
    def test_every_found_decomposition_verifies(self, region):
        for re in range(0, 61):
            for im in range(0, 61):
                if re == 0 and im == 0:
                    continue
                z = GaussianInt(re, im)
                dec = find_decomposition(z, region, 3, NormPolicy.NONE)
                if dec is None:
                    continue
                verify_decomposition(dec)
                assert dec.target == z
                # parity bookkeeping: k odd summands land in class k
                assert congruent_mod_one_plus_i(z, dec.k)


class TestVerifyDecomposition:
    def test_mixed_unit_triple(self):
        dec = Decomposition(
            GaussianInt(50, 49),
            (
                (GaussianInt(25, 24), Unit.ONE),
                (GaussianInt(20, 19), Unit.ONE),
                (GaussianInt(6, -5), Unit.I),
            ),
            KPI,
            NormPolicy.STRICT_LESS,
        )
        verify_decomposition(dec)
        assert summand_strs(dec) == ["25+24i", "20+19i", "5+6i"]

    def test_sector_triple_for_fifteen(self):
        dec = Decomposition(
            GaussianInt(15, 0),
            (
                (GaussianInt(8, 3), Unit.ONE),
                (GaussianInt(5, -2), Unit.ONE),
                (GaussianInt(2, -1), Unit.ONE),
            ),
            GPI,
            NormPolicy.STRICT_LESS,
        )
        verify_decomposition(dec)

    def test_rejects_composite_term(self):
        # 5 splits as (2+i)(2-i), and the claimed sum is off as well
        bad = Decomposition(
            GaussianInt(9, 0),
            (
                (GaussianInt(3, 0), Unit.ONE),
                (GaussianInt(3, 0), Unit.ONE),
                (GaussianInt(5, 0), Unit.ONE),
            ),
            KPI,
            NormPolicy.NONE,
        )
        with pytest.raises(ValueError, match="not a Gaussian prime"):
            verify_decomposition(bad)

    def test_rejects_empty(self):
        empty = Decomposition(GaussianInt(3, 0), (), KPI, NormPolicy.NONE)
        with pytest.raises(ValueError, match="empty"):
            verify_decomposition(empty)

    def test_rejects_non_sector_storage(self):
        bad = Decomposition(
            GaussianInt(-2, 1), ((GaussianInt(-2, 1), Unit.ONE),), SPI, NormPolicy.NONE
        )
        with pytest.raises(ValueError, match="sector associate"):
            verify_decomposition(bad)

    def test_rejects_summand_outside_region(self):
        bad = Decomposition(
            GaussianInt(2, -1), ((GaussianInt(2, -1), Unit.ONE),), KPI, NormPolicy.NONE
        )
        with pytest.raises(ValueError, match="outside kpi"):
            verify_decomposition(bad)

    def test_rejects_parity_break(self):
        """1+i is a kpi prime, but even: no decomposition may use it."""
        bad = Decomposition(
            GaussianInt(1, 1), ((GaussianInt(1, 1), Unit.ONE),), KPI, NormPolicy.NONE
        )
        with pytest.raises(ValueError, match="summand 1\\+i is not odd"):
            verify_decomposition(bad)
        # 5+3i = (2+i) + (1+i) + (2+i) sums right, but its middle term is even
        bad = Decomposition(
            GaussianInt(5, 3),
            ((GaussianInt(2, 1), Unit.ONE), (GaussianInt(1, 1), Unit.ONE),
             (GaussianInt(2, 1), Unit.ONE)),
            KPI,
            NormPolicy.NONE,
        )
        with pytest.raises(ValueError, match="summand 1\\+i is not odd"):
            verify_decomposition(bad)

    @pytest.mark.parametrize("region", list(Region))
    def test_rejects_an_even_summand_in_every_region(self, region):
        """1+i lies in every region and is prime; the parity check alone
        turns it away, whatever the region and however right the sum."""
        even = (GaussianInt(1, 1), Unit.ONE)
        alone = Decomposition(GaussianInt(1, 1), (even,), region, NormPolicy.NONE)
        with pytest.raises(ValueError, match="summand 1\\+i is not odd"):
            verify_decomposition(alone)
        re, im, _ = gaussian_prime_pool(region, 50)[0]
        p = sector_form(GaussianInt(re, im))
        target = GaussianInt(2 * re + 1, 2 * im + 1)
        mixed = Decomposition(target, (p, even, p), region, NormPolicy.NONE)
        with pytest.raises(ValueError, match="summand 1\\+i is not odd"):
            verify_decomposition(mixed)

    def test_rejects_norm_at_target(self):
        bad = Decomposition(
            GaussianInt(2, 1),
            ((GaussianInt(2, 1), Unit.ONE),),
            KPI,
            NormPolicy.STRICT_LESS,
        )
        with pytest.raises(ValueError, match="below the target norm"):
            verify_decomposition(bad)

    def test_rejects_wrong_sum(self):
        bad = Decomposition(
            GaussianInt(9, 0),
            ((GaussianInt(3, 0), Unit.ONE), (GaussianInt(3, 0), Unit.ONE)),
            KPI,
            NormPolicy.NONE,
        )
        with pytest.raises(ValueError, match="terms sum to"):
            verify_decomposition(bad)


def box_texts(*box):
    """_box_keys' targets as text, once its runs are checked to hold the
    same points, zero too where the box holds it, one run per row."""
    keys, runs = gaussdecomp._box_keys(*box)
    assert [run[0] for run in runs] == list(range(box[1][0], box[1][1] + 1))
    points = sorted((re * re + im * im, re, im) for re, lo, hi in runs for im in range(lo, hi + 1))
    assert [key for key in points if key[0]] == keys
    return [str(GaussianInt(re, im)) for _, re, im in keys]


class TestTargetEnumeration:
    @pytest.mark.parametrize("region", list(Region))
    def test_box_keys_match_the_predicate(self, region):
        """Every nonzero point of the region in the box, both parities, in
        (norm, re, im) order."""
        member = REGION_PREDICATES[region.value]
        want = sorted(
            (GaussianInt(re, im) for re in range(-15, 16) for im in range(-15, 16)
             if (re, im) != (0, 0) and member(re, im)),
            key=GaussianInt.key,
        )
        assert box_texts(region, (-15, 15), (-15, 15), 0) == [str(z) for z in want]

    def test_box_keys_with_component_floor(self):
        got = box_texts(Region.OPEN_QUADRANT, (1, 3), (1, 3), 3)
        assert got == ["1+3i", "3+i", "2+3i", "3+2i", "3+3i"]

    def test_box_keys_clip_to_region(self):
        got = box_texts(Region.SECTOR, (1, 3), (-3, 3), 0)
        assert got == [
            "1", "1+i", "2", "2-i", "2+i", "2+2i",
            "3", "3-i", "3+i", "3-2i", "3+2i", "3+3i",
        ]

    def test_box_keys_skip_zero(self):
        got = box_texts(Region.OCTANT, (0, 2), (0, 2), 0)
        assert "0" not in got
        assert len(got) == 5

    def test_box_keys_empty_range(self):
        with pytest.raises(ValueError):
            gaussdecomp._box_keys(KPI, (3, 1), (0, 5), 0)


class TestScans:
    def test_explicit_targets(self):
        report = scan_targets([GaussianInt(7, 0)], KPI, 3)
        assert report.exceptions == (GaussianInt(7, 0),)
        report = scan_targets([GaussianInt(7, 0)], KPI, 3, NormPolicy.NONE)
        assert report.exceptions == ()
        assert report.rows[0][1] == 1

    def test_box_scan_shape(self):
        report = scan_box(
            Region.OPEN_QUADRANT, (1, 6), (1, 6), KPI, 3,
            NormPolicy.NONE,
        )
        assert report.target_desc == "a re 1..6 im 1..6 maxc>=0"
        assert report.term_counts == {1: 14, 2: 14, 3: 2}
        assert [str(z) for z in report.exceptions] == [
            "1+i", "2+2i", "1+3i", "3+i", "3+4i", "4+3i",
        ]

    def test_box_scan_respects_component_floor(self):
        report = scan_box(
            Region.OPEN_QUADRANT, (1, 6), (1, 6), KPI, 3,
            NormPolicy.NONE, min_max_component=5,
        )
        assert all(max(z.re, z.im) >= 5 for z, _, _ in report.rows)

    @pytest.mark.parametrize(
        "re_range,im_range", [((2**31, 2**31 + 1), (1, 2)), ((1, 2), (-(2**31), 2 - 2**31))]
    )
    def test_box_ends_past_2_31_overflow(self, re_range, im_range):
        """Box ends get GaussianInt's component check, in scan_box and
        _box_keys alike."""
        with pytest.raises(OverflowError, match="outside"):
            scan_box(KPI, re_range, im_range, KPI, 1)
        with pytest.raises(OverflowError, match="outside"):
            gaussdecomp._box_keys(KPI, re_range, im_range, 0)

    def test_box_ends_inside_2_31_scan(self):
        edge = (2**31 - 2, 2**31 - 1)
        assert len(scan_box(KPI, (1, 2), edge, KPI, 1).rows) == 4
        assert len(box_texts(KPI, edge, edge, 0)) == 4

    def test_box_side_guard(self):
        with pytest.raises(ValueError, match="capped at 500"):
            scan_box(KPI, (1, 501), (1, 10), KPI, 3)
        with pytest.raises(ValueError, match="capped at 500"):
            scan_box(KPI, (1, 10), (0, 500), KPI, 3)

    @pytest.mark.parametrize("target_region", list(Region))
    @pytest.mark.parametrize("term_region", [GPI, KPI, SPI])
    def test_sumset_scan_matches_the_search(self, term_region, target_region):
        """The sumsets give each target its least k, exact under NONE and
        a lower bound under STRICT_LESS, and the search starts there;
        every row must equal find_decomposition's, exceptions too."""
        targets = box_targets(target_region, (0, 16), (-8, 16))
        for policy in NormPolicy:
            report = scan_targets(targets, term_region, 3, policy)
            expected = scan_rows_by_search(targets, term_region, 3, policy)
            assert report.rows == expected, policy

    def test_strict_sumset_k_is_a_lower_bound(self, monkeypatch):
        """2+2i = 3i + (2-i) in spi, but 3i has norm 9 against the target's
        8. Beside 7, whose strict cap is 49, the sumsets still put 2+2i at
        two terms under the strict policy. 7's walked witness stays below
        its norm and is taken as it is; 2+2i's uses 3i, so it searches from
        two terms, finds no strict sum, and the row is an exception."""
        z = GaussianInt(2, 2)
        targets = [z, GaussianInt(7, 0)]
        searches = []
        real = gaussdecomp._search

        def spying(re, im, k_lo, max_terms, cap, pool):
            searches.append((re, im, k_lo, cap))
            return real(re, im, k_lo, max_terms, cap, pool)

        monkeypatch.setattr(gaussdecomp, "_search", spying)
        strict = scan_targets(targets, SPI, 3, NormPolicy.STRICT_LESS)
        assert searches == [(2, 2, 2, 8)]
        assert strict.rows[0] == (z, None, None)
        assert strict.rows == scan_rows_by_search(targets, SPI, 3, NormPolicy.STRICT_LESS)
        none = scan_targets(targets, SPI, 3, NormPolicy.NONE)
        assert none.rows[0] == (z, 2, (GaussianInt(0, 3), GaussianInt(2, -1)))

    def test_strict_scan_matches_enumeration(self, monkeypatch):
        """A strict spi scan of a sector box walks most witnesses off the
        levels and searches where the walked one reaches the target's
        norm; both kinds of row must equal the brute-force oracle's. A
        term of a strict sum to z in the box has 0 <= re <= 16 and norm
        below N(z) <= 512, so the pool holds every odd spi prime there."""
        targets = box_targets(Region.SECTOR, (0, 16), (-8, 16))
        pool = [
            GaussianInt(re, im)
            for re in range(0, 17)
            for im in range(-16, 23)
            if re * re + im * im < 512
            and (re + im) % 2
            and REGION_PREDICATES["spi"](re, im)
            and gaussian_prime_by_division(re, im)
        ]
        best = enumerate_minimal(NormPolicy.STRICT_LESS, pool, [(z.re, z.im) for z in targets])
        expected = []
        for z in targets:
            want = best.get((z.re, z.im))
            expected.append((z, None, None) if want is None else (z, want[0], want[1][::-1]))
        searched = []
        real = gaussdecomp._search

        def spying(re, im, *args):
            searched.append(GaussianInt(re, im))
            return real(re, im, *args)

        monkeypatch.setattr(gaussdecomp, "_search", spying)
        report = scan_targets(targets, SPI, 3, NormPolicy.STRICT_LESS)
        assert report.rows == tuple(expected)
        walked = {z for z, k, _ in report.rows if k is not None} - set(searched)
        assert walked and searched

    @pytest.mark.parametrize("term_region", [GPI, KPI, SPI])
    def test_sumset_scan_matches_the_search_at_four_terms(self, term_region):
        targets = box_targets(Region.PRIME_HALF, (0, 16), (-8, 16))
        report = scan_targets(targets, term_region, 4, NormPolicy.NONE)
        assert report.rows == scan_rows_by_search(targets, term_region, 4)
        # 12i and 16i need four odd primes from kpi or spi
        if term_region is not GPI:
            assert report.term_counts[4] >= 2

    def test_sumset_scan_single_term_only(self):
        targets = box_targets(Region.OPEN_QUADRANT, (1, 10), (1, 10))
        report = scan_targets(targets, GPI, 1, NormPolicy.NONE)
        assert report.rows == scan_rows_by_search(targets, GPI, 1)
        assert set(report.term_counts) == {1}

    @pytest.mark.parametrize("policy", list(NormPolicy))
    def test_a_dead_target_off_the_window_reads_no_table(self, policy):
        """1 lies in kpi's two-term cone, but every point of its
        parallelogram has norm 1 or less, so its cap is 2 and it is not
        live; the window of 10i alone spans re = 0 only. The row loop
        tests the cap below norm 8, so 1 never reads a table position."""
        targets = [GaussianInt(1, 0), GaussianInt(0, 10)]
        assert gaussdecomp._cap(KPI.cone, 1, 0, 1, False) == 2
        report = scan_targets(targets, KPI, 3, policy)
        assert report.rows == scan_rows_by_search(targets, KPI, 3, policy)
        assert report.rows[0] == (GaussianInt(1, 0), None, None)

    def test_far_box_searches_each_target(self, monkeypatch):
        """The window reaches from the cone's corner to the targets, so a
        narrow box far out would fill little of it: the scan searches
        target by target, with the same rows. Dense boxes at the corner
        still build the sumsets, spi's too, though the gate's count of
        pool points off the flags reads only about 2/3 of spi's pool."""
        targets = box_targets(Region.OPEN_QUADRANT, (300, 303), (1, 2))
        dense = box_targets(Region.OPEN_QUADRANT, (1, 30), (1, 30))
        built = []
        real = gaussdecomp._sumsets

        def counting(*args):
            built.append(args[2:6])
            return real(*args)

        monkeypatch.setattr(gaussdecomp, "_sumsets", counting)
        scan_targets(dense, GPI, 3, NormPolicy.NONE)
        assert len(built) == 1
        sector = box_targets(Region.SECTOR, (1, 30), (-29, 30))
        for policy in NormPolicy:
            scan_targets(sector, SPI, 3, policy)
        assert len(built) == 3

        def no_sumsets(*args):
            raise AssertionError("sumsets built for a far box")

        monkeypatch.setattr(gaussdecomp, "_sumsets", no_sumsets)
        report = scan_targets(targets, GPI, 3, NormPolicy.NONE)
        assert report.rows == scan_rows_by_search(targets, GPI, 3)

    def test_a_huge_max_terms_keeps_the_sumsets(self):
        """No target z is a sum of more than (n1 + n2).z terms, so the cost
        gate counts at most that many levels, re + im <= 80 for this kpi
        box: under max_terms 10^6 it still builds the first-term tables, and
        its rows are those of max_terms 3."""
        targets = box_targets(Region.OPEN_QUADRANT, (1, 40), (1, 40))
        _, runs = gaussdecomp._box_keys(Region.OPEN_QUADRANT, (1, 40), (1, 40), 0)
        live, extent = gaussdecomp._extent(runs, KPI, False)
        pool = _pool_for(KPI, extent[7])
        assert gaussdecomp._minimal_terms(live, extent, pool, 10**6) is not None
        report = scan_targets(targets, KPI, 10**6, NormPolicy.NONE)
        assert report.rows == scan_targets(targets, KPI, 3, NormPolicy.NONE).rows

    def test_levels_that_disagree_with_the_pool_raise(self, monkeypatch):
        """9+9i sits on the blocked diagonal, so no two gammapi primes sum
        to it. A level 2 that claims otherwise leaves the walk no first
        term, and the scan raises instead of reporting k = 2."""
        z = GaussianInt(9, 9)
        assert scan_targets([z], GPI, 3, NormPolicy.NONE).rows == ((z, None, None),)
        real = gaussdecomp._sumsets

        def corrupted(points, region, re_lo, re_hi, im_lo, im_hi, max_terms):
            width, levels = real(points, region, re_lo, re_hi, im_lo, im_hi, max_terms)
            levels[1] |= 1 << ((z.re - re_lo) * width + z.im - im_lo)
            return width, levels

        monkeypatch.setattr(gaussdecomp, "_sumsets", corrupted)
        with pytest.raises(ValueError, match=r"the walk for 9\+9i fails at 2 terms"):
            scan_targets([z], GPI, 3, NormPolicy.NONE)

    def test_a_composite_residual_one_level_down_raises(self, monkeypatch):
        """5+5i = (5+2i) + 3i, and 5+5i - (1+2i) = 4+3i = (2+i)^2 is composite,
        though 1+2i is the first kpi pool entry. A level 1 that claims 4+3i
        gives 5+5i the first term 1+2i, and the chase down to level 1 finds
        no pool point at 4+3i: the scan raises, naming the target."""
        z = GaussianInt(5, 5)
        assert gaussian_prime_pool(KPI, 6)[0] == (1, 2, 5)
        want = ((z, 2, (GaussianInt(5, 2), GaussianInt(0, 3))),)
        assert scan_targets([z], KPI, 3, NormPolicy.NONE).rows == want
        real = gaussdecomp._sumsets

        def corrupted(points, region, re_lo, re_hi, im_lo, im_hi, max_terms):
            width, levels = real(points, region, re_lo, re_hi, im_lo, im_hi, max_terms)
            levels[0] |= 1 << ((4 - re_lo) * width + 3 - im_lo)
            return width, levels

        monkeypatch.setattr(gaussdecomp, "_sumsets", corrupted)
        with pytest.raises(ValueError, match=r"the walk for 5\+5i fails at 2 terms"):
            scan_targets([z], KPI, 3, NormPolicy.NONE)

    def test_a_first_term_past_pool_index_100(self, monkeypatch):
        """125+i = (94+i) + 31, and 31 is kpi pool entry 167: the level 2
        pass of this box reads that far down the pool (to the 80th of the
        246 pool points in its window) before every need has its first
        term. The box builds the sumsets, where 125+i alone would search,
        and its rows must be the search's with no search run."""
        targets = box_targets(Region.OPEN_QUADRANT, (120, 130), (1, 10))
        _, runs = gaussdecomp._box_keys(Region.OPEN_QUADRANT, (120, 130), (1, 10), 0)
        live = gaussdecomp._extent(runs, KPI, False)
        lone = gaussdecomp._extent([(125, 1, 1)], KPI, False)
        pool = _pool_for(KPI, live[1][7])
        assert gaussdecomp._minimal_terms(*live, pool, 3) is not None
        assert gaussdecomp._minimal_terms(*lone, pool, 3) is None
        assert gaussian_prime_pool(KPI, 962).index((31, 0, 961)) == 167
        searched = scan_rows_by_search(targets, KPI, 3)
        assert (GaussianInt(125, 1), 2, (GaussianInt(94, 1), GaussianInt(31, 0))) in searched

        def forbidden(*args, **kwargs):
            raise AssertionError("the box searched")

        monkeypatch.setattr(gaussdecomp, "_dfs", forbidden)
        assert scan_targets(targets, KPI, 3, NormPolicy.NONE).rows == searched

    def test_uncapped_scans_walk_the_levels_without_searching(self, monkeypatch):
        """Under NONE the witnesses come off the levels: no search."""
        targets = box_targets(Region.OPEN_QUADRANT, (1, 24), (1, 24))
        searched = scan_rows_by_search(targets, GPI, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("an uncapped scan searched")

        monkeypatch.setattr(gaussdecomp, "_dfs", forbidden)
        report = scan_targets(targets, GPI, 3, NormPolicy.NONE)
        assert report.rows == searched

    @pytest.mark.parametrize("policy", list(NormPolicy))
    def test_witness_terms_are_built_once_per_pool_entry(self, policy):
        """A scan builds one GaussianInt per pool entry it uses: equal
        witness terms in the report are the same object."""
        targets = box_targets(Region.OPEN_QUADRANT, (1, 24), (1, 24))
        report = scan_targets(targets, GPI, 3, policy)
        built = {}
        uses = 0
        for _, k, wit in report.rows:
            if k is None or k == 1:
                continue
            for term in wit:
                assert built.setdefault(term, term) is term
                uses += 1
        assert uses > len(built)

    def test_box_cap_fires_before_any_enumeration(self, monkeypatch):
        def enumerating(*args):
            raise AssertionError("scan_box started enumerating")

        monkeypatch.setattr(gaussdecomp, "_box_keys", enumerating)
        for re_range, im_range in (((0, 500), (0, 1)), ((0, 1), (-250, 250))):
            with pytest.raises(ValueError, match="box sides are capped at 500"):
                scan_box(KPI, re_range, im_range, KPI, 3)
        # a side of 499 steps goes ahead
        with pytest.raises(AssertionError, match="started enumerating"):
            scan_box(KPI, (0, 499), (0, 499), KPI, 3)

    @pytest.mark.parametrize("scan", [scan_targets, scan_box])
    def test_scans_take_no_jobs(self, scan):
        """Scans run in the calling process; no entry point takes a job count."""
        assert "jobs" not in inspect.signature(scan).parameters

    def test_scan_rejects_zero_and_bad_width(self):
        with pytest.raises(ValueError, match="nonzero"):
            scan_targets([GaussianInt(0, 0)], KPI, 3, NormPolicy.NONE)
        with pytest.raises(ValueError, match="max_terms"):
            scan_targets([GaussianInt(3, 0)], KPI, 0, NormPolicy.NONE)

    def test_scan_csv(self):
        report = scan_box(
            Region.OPEN_QUADRANT, (1, 6), (1, 6), KPI, 3,
            NormPolicy.NONE,
        )
        buf = io.StringIO()
        report.write(buf, "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "z,norm,k,witness"
        assert lines[1] == "1+i,2,,EMPTY"
        assert lines[2] == "1+2i,5,1,(1+2i)"

    def test_scan_json_shape(self):
        report = scan_box(
            Region.OPEN_QUADRANT, (1, 6), (1, 6), KPI, 3,
            NormPolicy.NONE,
        )
        data = report.to_json_dict()
        assert data["primes"] == "kpi"
        assert data["targets"] == "a re 1..6 im 1..6 maxc>=0"
        assert data["term_counts"] == {"1": 14, "2": 14, "3": 2}
        assert data["parity"] == "ODD"
        assert len(data["rows"]) == 36
        assert data["exceptions"][0] == "1+i"


def plain_extent(keys, region, policy):
    """(live, extent) one target at a time, by the plain definition: live
    the sorted (re, im) of the targets whose two-term _term_cap cap plus
    one, cut to the target's norm under the strict policy, is above 2;
    extent their least and largest re and im and their largest u, v,
    u + v and cap, or None."""
    want = []
    for n, re, im in keys:
        got = gaussdecomp._term_cap(region.cone, re, im, 2)
        if got is None:
            continue
        u, v, cap = got
        cap += 1
        if policy is NormPolicy.STRICT_LESS:
            cap = min(cap, n)
        if cap > 2:
            want.append((re, im, u, v, cap))
    if not want:
        return [], None
    res, ims, us, vs, caps = zip(*want)
    extent = (
        min(res), max(res), min(ims), max(ims),
        max(us), max(vs), max(map(add, us, vs)), max(caps),
    )
    return sorted(zip(res, ims)), extent


def run_points(runs):
    """The points (re, im) of runs (re, lo, hi), sorted, repeats kept."""
    return sorted((re, im) for re, lo, hi in runs for im in range(lo, hi + 1))


class TestSumsetWindow:
    """_extent reads the live targets, and the extremes _window and the
    cost gate read, off the ends of each run, checking targets one by one
    only below norm 8; all are pinned here to the plain per-target
    definition, and _window to the box of every corner."""

    @staticmethod
    def check(keys, runs, region, policy):
        live, extent = gaussdecomp._extent(runs, region, policy is NormPolicy.STRICT_LESS)
        want = plain_extent(keys, region, policy)
        assert (run_points(live), extent) == want
        assert all(lo <= hi for _, lo, hi in live)
        return want[0]

    @pytest.mark.parametrize("policy", list(NormPolicy))
    @pytest.mark.parametrize("region", list(Region))
    def test_extent_is_the_two_term_caps(self, region, policy):
        """Every point of a box about the origin, zero included."""
        runs = [(re, -15, 15) for re in range(-15, 16)]
        keys = [(re * re + im * im, re, im) for re, im in run_points(runs)]
        assert self.check(keys, runs, region, policy)

    @pytest.mark.parametrize("policy", list(NormPolicy))
    def test_box_runs_near_the_origin_and_under_floors(self, policy):
        """_box_keys' runs for boxes of every region that reach the targets
        below norm 8, some cut by a min_max_component floor, against every
        term region. Some targets that the two-term cone keeps have a cap
        of 2 or less, and the runs drop them."""
        rng = random.Random(f"extent {policy.value}")
        dropped = 0
        for target_region in Region:
            for term_region in Region:
                (a1, b1, c1), (a2, b2, c2) = term_region.cone
                for _ in range(6):
                    re0, im0 = rng.randint(-4, 2), rng.randint(-4, 2)
                    floor = rng.choice([0, 0, rng.randint(1, 4)])
                    box = ((re0, re0 + rng.randint(0, 7)), (im0, im0 + rng.randint(0, 7)))
                    keys, runs = gaussdecomp._box_keys(target_region, *box, floor)
                    live = self.check(keys, runs, term_region, policy)
                    cone = [(re, im) for _, re, im in keys
                            if a1 * re + b1 * im >= 2 * c1 and a2 * re + b2 * im >= 2 * c2]
                    dropped += len(cone) - len(live)
        assert dropped > 50

    @pytest.mark.parametrize("policy", list(NormPolicy))
    def test_explicit_targets_make_runs_of_their_rows(self, monkeypatch, policy):
        """scan_targets hands _extent runs that hold its targets, repeats
        included, whatever their order: parts of rows and single points,
        near the origin and away from it. The extent is the plain one."""
        seen = []
        real = gaussdecomp._extent

        def spying(runs, region, strict):
            seen.append(runs)
            return real(runs, region, strict)

        monkeypatch.setattr(gaussdecomp, "_extent", spying)
        rng = random.Random(f"explicit {policy.value}")
        for _ in range(80):
            re0, im0 = rng.randint(-6, 20), rng.randint(-10, 10)
            box = [(re, im) for re in range(re0, re0 + 5) for im in range(im0, im0 + 9)]
            points = rng.sample(box, rng.randint(1, 30))
            points += rng.choices(points, k=rng.randint(0, 3))
            targets = [GaussianInt(re, im) for re, im in points if re or im]
            if not targets:
                continue
            region = rng.choice(list(Region))
            seen.clear()
            scan_targets(targets, region, 2, policy)
            (runs,) = seen
            assert run_points(runs) == sorted(z.key()[1:] for z in targets)
            self.check([z.key() for z in targets], runs, region, policy)

    @pytest.mark.parametrize("region", list(Region))
    def test_window_is_the_box_of_every_corner(self, region):
        """The least integer box holding every live target and the four
        corners n1.s in {c1, u}, n2.s in {c2, v} of its parallelogram."""
        (a1, b1, c1), (a2, b2, c2) = region.cone
        det = Fraction(a1 * b2 - a2 * b1)
        rng = random.Random(f"window {region.value}")
        checked = 0
        for _ in range(300):
            targets = [
                GaussianInt(rng.randint(-60, 60), rng.randint(-60, 60))
                for _ in range(rng.randint(1, 6))
            ]
            runs = [(z.re, z.im, z.im) for z in targets]
            live, extent = gaussdecomp._extent(runs, region, rng.random() < 0.5)
            if not live:
                continue
            xs, ys, us, vs = [], [], [], []
            for re, im in run_points(live):
                u, v = a1 * re + b1 * im - c1, a2 * re + b2 * im - c2
                us.append(u)
                vs.append(v)
                xs.append(re)
                ys.append(im)
                for s in (c1, u):
                    for t in (c2, v):
                        xs.append((b2 * s - b1 * t) / det)
                        ys.append((a1 * t - a2 * s) / det)
            want = (ceil(min(xs)), floor(max(xs)), ceil(min(ys)), floor(max(ys)))
            res, ims = zip(*run_points(live))
            box = (min(res), max(res), min(ims), max(ims), max(us), max(vs))
            assert extent[:6] == box
            assert gaussdecomp._window(region.cone, *box) == want
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("region", list(Region))
    def test_every_fixed_corner_has_norm_at_most_2(self, region):
        """So |z - F|^2 >= 2 above norm 8, as _extent assumes: the corner
        n1.p = c1, n2.p = c2 is (b2 c1 - b1 c2, a1 c2 - a2 c1) / det."""
        (a1, b1, c1), (a2, b2, c2) = region.cone
        det = a1 * b2 - a2 * b1
        x, y = b2 * c1 - b1 * c2, a1 * c2 - a2 * c1
        assert x * x + y * y <= 2 * det * det


class TestChasedWitnesses:
    @pytest.mark.parametrize("policy", list(NormPolicy))
    def test_every_chased_term_is_below_the_two_term_cap(self, policy):
        """A chased witness sums to its target, so its terms lie in the
        target's two-term parallelogram, and its largest norm is below the
        parallelogram's cap: a NONE scan takes every chased witness as it
        is, and a strict one tests only the target's norm. Seeded boxes for
        each of the 7 x 7 region pairs, max_terms 3."""
        rng = random.Random(f"chased {policy.value}")
        strict = policy is NormPolicy.STRICT_LESS
        chased = 0
        for target_region in Region:
            for term_region in Region:
                re0, im0 = rng.randint(-3, 3), rng.randint(-8, 3)
                box = ((re0, re0 + rng.randint(8, 16)), (im0, im0 + rng.randint(8, 16)))
                keys, runs = gaussdecomp._box_keys(target_region, *box, 0)
                live, extent = gaussdecomp._extent(runs, term_region, strict)
                if not live:
                    continue
                chase = gaussdecomp._minimal_terms(live, extent, _pool_for(term_region), 3)
                width, base, tables = chase
                for re, im in run_points(live):
                    at = re * width + im - base
                    ks = [k for k in range(2, len(tables) + 1) if tables[k - 1][at] is not None]
                    if not ks:
                        continue
                    wit = []
                    for table in tables[ks[0] - 1 :: -1]:
                        p = table[at]
                        at -= p[0]
                        wit.append(p[1])
                    assert (sum(p[0] for p in wit), sum(p[1] for p in wit)) == (re, im)
                    cap = gaussdecomp._term_cap(term_region.cone, re, im, 2)[2] + 1
                    assert max(p[2] for p in wit) < cap, (re, im, wit)
                    chased += 1
        assert chased > 2000


class TestIntRows:
    """Scans carry targets, rows and witnesses as ints from the box to the
    writers; a GaussianInt is built only where the API hands one out."""

    @pytest.mark.parametrize(
        "side, term_region, policy",
        [(40, KPI, NormPolicy.NONE), (40, KPI, NormPolicy.STRICT_LESS), (30, GPI, NormPolicy.NONE)],
        ids=["kpi", "kpi_strict", "gammapi"],
    )
    def test_scan_and_write_build_no_gaussian_int(self, monkeypatch, side, term_region, policy):
        """On cold pool lists and flags, so the membership test's fallback
        past the flags runs too."""
        built = []
        real = GaussianInt.__init__

        def counting(self, re, im):
            built.append((re, im))
            real(self, re, im)

        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        monkeypatch.setattr(GaussianInt, "__init__", counting)
        report = scan_box(Region.OPEN_QUADRANT, (1, side), (1, side), term_region, 3, policy)
        for fmt in ("md", "csv", "json"):
            report.write(io.StringIO(), fmt)
        assert built == []
        # the counter counts: the API's exceptions are built on demand
        missing = [(re, im) for _, re, im, k, _ in report.int_rows if k is None]
        assert len(missing) > (term_region is GPI) * 100
        assert [z.key()[1:] for z in report.exceptions] == missing == built

    @pytest.mark.parametrize("policy", list(NormPolicy))
    @pytest.mark.parametrize("term_region", list(Region))
    def test_box_scan_is_the_scan_of_its_targets(self, term_region, policy):
        box = (Region.SECTOR, (0, 12), (-8, 12))
        report = scan_box(*box, term_region, 3, policy)
        assert report == scan_targets(box_targets(*box), term_region, 3, policy, report.target_desc)

    @pytest.mark.parametrize(
        "box",
        [
            (Region.OCTANT, (0, 9), (0, 9), 0),
            (Region.SECTOR, (-3, 14), (-14, 14), 0),
            (Region.PRIME_HALF, (-5, 5), (-9, 7), 4),
            (Region.OPEN_QUADRANT, (3, 3), (8, 8), 9),
        ],
    )
    def test_box_keys_are_the_oracles_targets(self, box):
        assert box_texts(*box) == [str(z) for z in box_targets(*box)]

    def test_rows_build_one_gaussian_int_per_distinct_term(self):
        """rows reads the int rows back as today's GaussianInt tuples, a
        one-term row's witness being its target; equal entries share one
        object, though the int rows hold distinct tuples."""
        norm = 5  # a name, not a constant, so each entry is a new tuple
        report = gaussdecomp.ScanReport(
            KPI, "hand", 3, NormPolicy.NONE,
            (
                (5, 1, 2, 1, ((1, 2, norm),)),
                (17, 4, 1, 2, ((2, 1, norm), (2, 0, 4))),
                (18, 3, 3, None, None),
                (37, 6, 1, 3, ((2, 1, norm), (2, 1, norm), (2, -1, norm))),
            ),
        )
        z12, z41, z33, z61 = report.rows
        assert z12 == (GaussianInt(1, 2), 1, (GaussianInt(1, 2),)) and z12[2][0] is z12[0]
        assert z33 == (GaussianInt(3, 3), None, None)
        assert z41[1:] == (2, (GaussianInt(2, 1), GaussianInt(2, 0)))
        assert z61[1:] == (3, (GaussianInt(2, 1),) * 2 + (GaussianInt(2, -1),))
        assert z41[2][0] is z61[2][0] is z61[2][1]
        assert report.exceptions == (GaussianInt(3, 3),)
        assert report.term_counts == {1: 1, 2: 1, 3: 1}


class TestDiagonalObstruction:
    def test_exhaustive_levels(self):
        report = verify_diagonal_obstruction(30, 4)
        assert report.levels == ((1, 189, 1), (2, 432, 2), (3, 400, 3), (4, 368, 4))
        assert report.holds
        assert report.violations == ()

    def test_gap_law_at_each_level(self):
        report = verify_diagonal_obstruction(20, 5)
        for k, count, gap in report.levels:
            assert gap >= k
            assert count > 0

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_diagonal_obstruction(1)
        with pytest.raises(ValueError):
            verify_diagonal_obstruction(10, 0)

    def test_bound_cap_comes_before_any_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("pool built for a rejected bound")

        monkeypatch.setattr(gaussdecomp, "gaussian_prime_pool", no_pool)
        with pytest.raises(ValueError, match="capped at 500"):
            verify_diagonal_obstruction(501)
        with pytest.raises(ValueError, match="capped at 500"):
            verify_diagonal_obstruction(100_000, 2)

    def test_levels_and_violations_match_the_oracle(self):
        """Every bound 2..60 and term count 1..6 against the nested-set
        sweep, over odd sector primes proved by trial division. The
        sweep's first m levels do not depend on its own max_terms, so it
        runs once per bound, at six terms, and is cut to m."""
        member = REGION_PREDICATES["gammapi"]
        points = [
            (re, im)
            for re in range(1, 61)
            for im in range(-60, 61)
            if (re + im) % 2 and member(re, im) and gaussian_prime_by_division(re, im)
        ]
        for bound in range(2, 61):
            levels, violations = obstruction_sweep(points, bound, 6)
            for m in range(1, 7):
                report = verify_diagonal_obstruction(bound, m)
                assert list(report.levels) == levels[:m], (bound, m)
                got = [(k, (z.re, z.im)) for k, z in report.violations]
                assert got == [v for v in violations if v[0] <= m], (bound, m)

    def test_violations_match_the_oracle(self, monkeypatch):
        """Primes never reach re - im < k, so feed the sweep diagonal
        points (re - im = 0) and one with re - im = 1 as well."""
        extra = [(1, 1, 2), (3, 3, 18), (7, 6, 85)]

        def with_diagonal(region, norm_bound):
            return gaussian_prime_pool(region, norm_bound) + extra

        monkeypatch.setattr(gaussdecomp, "gaussian_prime_pool", with_diagonal)
        for bound in (2, 7, 12, 20):
            points = [
                (re, im)
                for re, im, _ in with_diagonal(GPI, 2 * bound * bound + 1)
            ]
            for m in (1, 3, 5):
                report = verify_diagonal_obstruction(bound, m)
                levels, violations = obstruction_sweep(points, bound, m)
                assert list(report.levels) == levels, (bound, m)
                got = [(k, (z.re, z.im)) for k, z in report.violations]
                assert got == violations, (bound, m)
                assert got and not report.holds

    def test_writers(self):
        report = verify_diagonal_obstruction(20, 3)
        buf = io.StringIO()
        report.write(buf, "csv")
        assert buf.getvalue() == "k,count,min_gap\n1,102,1\n2,187,2\n3,165,3\n"
        buf = io.StringIO()
        report.write(buf, "json")
        data = json.loads(buf.getvalue())
        assert data["holds"] is True
        assert data["levels"][1] == {"k": 2, "count": 187, "min_gap": 2}

    def test_line_report(self):
        report = obstruction_line_report(20)
        assert report.target_desc == "gammapi lines im=re and im=re-1, re 1..20"
        assert len(report.rows) == 40
        ks = {k for _, k, _ in report.rows if k is not None}
        assert ks == {1}
        singles = [str(z) for z, k, _ in report.rows if k == 1]
        assert singles == [
            "2+i", "3+2i", "5+4i", "6+5i", "8+7i",
            "10+9i", "13+12i", "15+14i", "18+17i", "20+19i",
        ]
        assert len(report.exceptions) == 30

    def test_line_report_guard(self):
        with pytest.raises(ValueError):
            obstruction_line_report(0)

    def test_line_report_cap_fires_before_any_target(self, monkeypatch):
        def allocating(*args):
            raise AssertionError("obstruction_line_report started building")

        monkeypatch.setattr(gaussdecomp, "GaussianInt", allocating)
        for bound in (501, 10**30):
            with pytest.raises(ValueError, match="bound is capped at 500"):
                obstruction_line_report(bound)
        # at the cap itself the targets get built
        with pytest.raises(AssertionError, match="started building"):
            obstruction_line_report(500)

    def test_diagonal_targets_all_fail_strict_sector_sums(self):
        targets = [GaussianInt(t, t) for t in range(1, 21)]
        report = scan_targets(targets, GPI, 3, NormPolicy.STRICT_LESS)
        assert len(report.exceptions) == 20

    def test_negative_diagonal_blocks_half_plane_sums(self):
        # re + im = 1 needs either one term (strict-blocked) or at least
        # three odd half-plane primes, whose component sums reach 3
        for t in range(6, 13):
            z = GaussianInt(t, -(t - 1))
            assert find_decomposition(z, SPI, 3) is None, t
        assert find_decomposition(GaussianInt(6, -5), SPI, 3) is None


def swept_pool(region, bound):
    """_pool_for(region, bound), its list grown to norm bound."""
    got = _pool_for(region, bound)
    while got.grow(bound - 1):
        pass
    return got


def one_sweep(region, bound):
    """The region's pool list below norm bound, read in one sweep off flags
    sieved afresh: what every grown list must equal."""
    return _pool_annulus(region, _prime_norm_flags(bound), 0, bound)


class TestPoolCache:
    def counting(self, monkeypatch, cache):
        """Count the flag builds (by bound) and list sweeps (by annulus),
        starting from no pools and no shared flags."""
        flagged, swept = [], []

        def counting_flags(bound):
            flagged.append(bound)
            return _prime_norm_flags(bound)

        def counting_annulus(region, flags, lo, hi):
            swept.append((lo, hi))
            return _pool_annulus(region, flags, lo, hi)

        monkeypatch.setattr(primes, "_POOL_CACHE", cache)
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        monkeypatch.setattr(primes, "_prime_norm_flags", counting_flags)
        monkeypatch.setattr(primes, "_pool_annulus", counting_annulus)
        return flagged, swept

    def test_flags_grow_only_as_far_as_a_list_sweeps(self, monkeypatch):
        """A bound alone sieves nothing. A sweep sieves the shared flags to
        its annulus's end when they fall short of it, 512 at least, and the
        flags grow in place, so a pool built before keeps reading them and
        its list keeps its object and grows on."""
        cache = {}
        flagged, swept = self.counting(monkeypatch, cache)
        got = _pool_for(KPI, 100)
        assert (flagged, swept, got.entries, got.swept) == ([], [], [], 0)
        assert cache[KPI] is got
        flags, entries = primes._shared_flags, got.entries
        assert got.flags is flags
        assert got.grow(1000)
        assert (flagged, swept) == ([512], [(0, 512)])  # never fewer than 512
        # flags[2] is clear: the norm-2 primes are the even ones
        assert [n for n in range(512) if flags[n]] == [
            n for n in range(512) if n != 2 and (trial_prime(n) or prime_square_3mod4(n))
        ]
        assert _pool_for(KPI, 5000) is got
        assert flagged == [512]
        assert got.grow(600)
        assert (flagged, swept) == ([512, 601], [(0, 512), (512, 601)])
        assert primes._shared_flags is flags and len(flags) == 601
        assert got.entries is entries
        assert entries == one_sweep(KPI, 601)
        assert list(cache) == [KPI]

    def test_grow_doubles_the_radius_up_to_stop(self, monkeypatch):
        """A search grows the list one annulus at a time while it may lack
        an entry of norm at most stop. Each annulus reaches twice the
        radius, four times the norm, but never past stop + 1: fewer row
        passes than doubling the norm for a search that reads to the end,
        and flags no longer than the list. A reader of the whole list, as
        gaussian_prime_pool is, sweeps it at once."""
        flagged, swept = self.counting(monkeypatch, {})
        got = _pool_for(KPI, 5000)
        assert (flagged, swept, got.entries) == ([], [], [])
        entries = got.entries
        assert got.grow(4999)
        assert swept == [(0, 512)]  # never fewer than 512
        assert not got.grow(511)
        assert got.grow(4999)
        assert not got.grow(2047)
        assert got.grow(4999)  # the last annulus ends at stop + 1
        assert not got.grow(4999)
        assert swept == [(0, 512), (512, 2048), (2048, 5000)]
        assert flagged == [512, 2048, 5000]
        assert len(primes._shared_flags) == got.swept == 5000
        assert got.entries is entries
        assert entries == one_sweep(KPI, 5000)
        # a fully swept list is served as it is
        assert gaussian_prime_pool(KPI, 5000) == entries
        assert _pool_for(KPI, 5000) is got
        assert len(swept) == 3
        # a reader of a whole list sweeps it in one annulus
        assert gaussian_prime_pool(GPI, 4000) == one_sweep(GPI, 4000)
        assert swept[3:] == [(0, 4000)] and flagged == [512, 2048, 5000]

    def test_three_regions_share_one_sieve(self, monkeypatch):
        """Lists for kpi, gammapi and spi grown to one bound read one flag
        array: the first list's sweeps sieve it, the others read it as it
        is. Each list is what one sweep lists off flags sieved afresh."""
        cache = {}
        flagged, _ = self.counting(monkeypatch, cache)
        regions = (KPI, GPI, SPI)
        pools = [swept_pool(region, 3000) for region in regions]
        assert flagged == [512, 2048, 3000]
        assert list(cache) == list(regions)
        assert all(got.swept == 3000 and got.flags is primes._shared_flags for got in pools)
        for region, got in zip(regions, pools):
            assert got.entries == one_sweep(region, 3000), region

    def test_a_search_sweeps_only_what_it_reads(self, monkeypatch):
        """598+226i has a gammapi cap of 407857, but its witness comes off
        the first few entries, so neither the list nor the flags reach far.
        A later scan that the cost gate sends to search reads the same list
        and leaves both short too."""
        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        dec = find_decomposition(GaussianInt(598, 226), GPI, 3)
        assert summand_strs(dec) == ["592+227i", "6-i"]
        assert gaussdecomp._cap(GPI.cone, 598, 226, dec.target.norm(), True) == 407857
        got = primes._POOL_CACHE[GPI]
        entries, flags = got.entries, primes._shared_flags
        assert len(entries) < 1000
        assert len(flags) == got.swept < 10**4
        targets = [GaussianInt(61, 20), GaussianInt(598, 226)]
        report = scan_targets(targets, GPI, 3, NormPolicy.STRICT_LESS)
        assert report.rows[1] == (dec.target, 2, tuple(dec.summands()))
        assert primes._POOL_CACHE[GPI] is got
        assert got.entries is entries and primes._shared_flags is flags
        assert len(entries) < 1000
        assert len(flags) == got.swept < 10**4
        assert entries == one_sweep(GPI, got.swept)

    @pytest.mark.parametrize(
        "region, re_lo", [(GPI, 2000), (SPI, 2200)], ids=["gammapi", "spi"]
    )
    def test_a_far_box_scan_sweeps_only_what_it_reads(self, monkeypatch, region, re_lo):
        """A narrow box far from the cone's corner goes to the search
        target by target. Its caps reach a norm of millions (spi's near
        the pool cap), but its witnesses come off the first few entries, so
        its list and the shared flags stay short, after the scan and after
        find_decomposition's search of every target; the rows are
        find_decomposition's."""
        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        targets = box_targets(Region.OPEN_QUADRANT, (re_lo, re_lo + 1), (1, 2))
        _, runs = gaussdecomp._box_keys(Region.OPEN_QUADRANT, (re_lo, re_lo + 1), (1, 2), 0)
        _, extent = gaussdecomp._extent(runs, region, False)
        assert extent[7] > 4 * 10**6
        report = scan_targets(targets, region, 3, NormPolicy.NONE)
        got = primes._POOL_CACHE[region]
        assert len(primes._shared_flags) == got.swept < 10**5
        assert len(got.entries) < 1000
        assert got.entries == one_sweep(region, got.swept)
        assert report.rows == scan_rows_by_search(targets, region, 3)
        assert not report.exceptions
        assert primes._POOL_CACHE[region] is got
        assert len(primes._shared_flags) == got.swept < 10**5

    def test_a_test_built_before_the_flags_grew_reads_their_new_end(self, monkeypatch):
        """The flags grow in place, so a pool's membership test, built while
        they were empty, reads their new end: below it no point costs a
        Miller-Rabin call, and past it is_gaussian_prime still answers."""
        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        calls = []
        real = primes.is_rational_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(primes, "is_rational_prime", counting)
        got = _pool_for(KPI)
        member = got.member
        assert member(31, 10) == (31, 10, 1061)
        assert calls  # no flags yet
        calls.clear()
        while got.grow(1999):
            pass
        assert len(primes._shared_flags) == 2000
        inside = [(re, im) for re in range(45) for im in range(45) if 0 < re * re + im * im < 2000]
        members = sorted((p[2], *p[:2]) for p in map(lambda p: member(*p), inside) if p)
        assert [(re, im, n) for n, re, im in members] == one_sweep(KPI, 2000)
        assert calls == []
        assert member(44, 5) is None  # 1961 = 37 * 53
        assert calls == []
        assert member(45, 2) == (45, 2, 2029)
        assert calls == [2029]

    @pytest.mark.parametrize("seed", range(3))
    def test_cold_search_matches_a_fully_swept_pool(self, monkeypatch, seed):
        """find_decomposition on a cold cache, which sweeps the list as it
        reads it, gives the witness of one over a list swept to the cap,
        and reads less of the list on most targets. The fixed targets
        have no witness, so their searches read to the end."""
        rng = random.Random(seed)
        cases = [
            (GaussianInt(120, 0), KPI, 3, NormPolicy.STRICT_LESS, True),
            (GaussianInt(40, 40), GPI, 4, NormPolicy.STRICT_LESS, True),
            (GaussianInt(0, 60), SPI, 3, NormPolicy.STRICT_LESS, False),
            (GaussianInt(60, 60), GPI, 4, NormPolicy.NONE, False),
        ]
        for _ in range(60):
            z = GaussianInt(rng.randint(-100, 200), rng.randint(-100, 200) or 1)
            region = rng.choice([KPI, GPI, SPI])
            policy = rng.choice(list(NormPolicy))
            cases.append((z, region, rng.randint(2, 4), policy, rng.choice([True, False])))
        searched = shorter = 0
        for n, args in enumerate(cases):
            z, region, _, policy, _ = args
            monkeypatch.setattr(primes, "_POOL_CACHE", {})
            cold = find_decomposition(*args)
            assert n >= 4 or cold is None
            strict = policy is NormPolicy.STRICT_LESS
            cap = gaussdecomp._cap(region.cone, z.re, z.im, z.norm(), strict)
            if cap < 3:
                assert cold is None or cold.k == 1
                continue
            read = primes._POOL_CACHE.get(region)
            monkeypatch.setattr(primes, "_POOL_CACHE", {})
            full = swept_pool(region, cap)
            swept = full.swept
            assert find_decomposition(*args) == cold, args
            assert full.swept == swept  # a list swept past the cap never grew
            searched += 1
            shorter += read is None or len(read.entries) < len(full.entries)
        assert searched > 20
        assert 3 * shorter > 2 * searched

    def test_every_level_reads_what_an_inner_level_appended(self, monkeypatch):
        """_dfs grows the list wherever a loop runs off its end, so an outer
        loop must read on past the end it started with. A list that grows
        by one entry per call makes every level grow it, and the search
        still gives the witness of a fully swept list."""

        class OneAtATime:
            def __init__(self, full):
                self.full, self.entries = full.entries, []
                self.region, self.member = full.region, full.member

            def grow(self, stop):
                n = len(self.entries)
                if n == len(self.full) or self.full[n][2] > stop:
                    return False
                self.entries.append(self.full[n])
                return True

        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        rng = random.Random(5)
        strict = NormPolicy.STRICT_LESS
        # strict three-term witnesses whose smallest term is not the first
        # entry: the search moves past entries whose inner loops grew the list
        cases = [
            (GaussianInt(4, 1), SPI, strict),
            (GaussianInt(49, -46), SPI, strict),
            (GaussianInt(10, 1), KPI, strict),
            (GaussianInt(49, 46), GPI, strict),
        ]
        searched = 0
        while searched < 44:
            if cases:
                z, region, policy = cases.pop()
            else:
                z = GaussianInt(rng.randint(-40, 90), rng.randint(-60, 90))
                region = rng.choice([KPI, GPI, SPI])
                policy = rng.choice(list(NormPolicy))
            strict = policy is NormPolicy.STRICT_LESS
            cap = gaussdecomp._cap(region.cone, z.re, z.im, z.norm(), strict)
            if cap < 3:
                continue
            full = swept_pool(region, cap)
            for k in (3, 4):
                args = (z.re, z.im, 2, k, cap)
                want = gaussdecomp._search(*args, full)
                assert gaussdecomp._search(*args, OneAtATime(full)) == want, args
            searched += 1

    def test_holds_one_pool_per_region(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(primes, "_POOL_CACHE", cache)
        box = box_targets(Region.OPEN_QUADRANT, (1, 12), (1, 12))
        for policy in NormPolicy:
            scan_targets(box, KPI, 3, policy)
            scan_targets(box, GPI, 3, policy)
            find_decomposition(GaussianInt(40, 31), KPI, 3, policy)
        assert sorted(cache, key=list(Region).index) == [GPI, KPI]

    def test_the_last_annulus_stops_at_the_pool_cap(self, monkeypatch):
        """A list grown to the cap sweeps and sieves to the cap and no
        further; a bound past it raises before anything is swept."""
        flagged, swept = self.counting(monkeypatch, {})
        monkeypatch.setattr(primes, "_POOL_CAP", 1500)
        got = swept_pool(KPI, 1500)
        assert swept == [(0, 512), (512, 1500)]  # radius doubling would reach 2048
        assert flagged == [512, 1500]
        assert got.entries == one_sweep(KPI, 1500)
        for grow in (lambda: _pool_for(KPI, 1501), lambda: gaussian_prime_pool(KPI, 1501)):
            with pytest.raises(ValueError, match="pool norm bound 1501 is above the cap of 1500"):
                grow()
        assert (flagged, swept) == ([512, 1500], [(0, 512), (512, 1500)])

    def test_cap_fires_before_any_sieve(self, monkeypatch):
        def allocating(*args):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        monkeypatch.setattr(primes, "_prime_norm_flags", allocating)
        monkeypatch.setattr(primes, "_pool_annulus", allocating)
        monkeypatch.setattr(primes, "_sieve_flags", allocating)
        with pytest.raises(ValueError, match="above the cap of 10000000"):
            _pool_for(KPI, 10**7 + 1)
        # 9999+i: a two-term pool bound of 9.998 * 10^7
        with pytest.raises(ValueError, match="pool norm bound 99980003 is above the cap"):
            find_decomposition(GaussianInt(9999, 1), KPI, 3, NormPolicy.NONE)
        with pytest.raises(ValueError, match="pool norm bound 99980003 is above the cap"):
            scan_targets([GaussianInt(9999, 1)], KPI, 3, NormPolicy.NONE)
        assert all(pool.swept == 0 for pool in primes._POOL_CACHE.values())  # no list swept
        assert primes._shared_flags == bytearray()


def prime_square_3mod4(n):
    q = isqrt(n)
    return q * q == n and q % 4 == 3 and trial_prime(q)


class TestPoolMembership:
    """The flag test that stands in for a (re, im) -> index lookup."""

    @pytest.mark.parametrize("region", list(Region))
    def test_accepts_exactly_the_pool(self, region):
        bound = 200
        pool, flags = gaussian_prime_pool(region, bound), _prime_norm_flags(bound)
        member = primes._member(region, flags)
        first = (0, 0, 0)  # no earlier than anything
        window = [(re, im) for re in range(-16, 17) for im in range(-16, 17)]
        got = [member(re, im, first, bound) for re, im in window]
        assert sorted(p for p in got if p) == sorted(pool)
        assert all(member(*p[:2], first, bound) == p for p in pool)
        # the cap bites on the norm, the first entry on (norm, re, im) order
        for p in pool:
            assert member(p[0], p[1], first, p[2]) is None
            assert member(p[0], p[1], first, p[2] + 1) == p
        for lo, q in enumerate(pool):
            later = [p for p in pool if member(p[0], p[1], q, bound)]
            assert later == pool[lo:]

    def test_inert_axis_points_and_the_even_prime(self):
        for region, points in (
            (KPI, [(3, 0), (0, 3), (7, 0), (0, 7)]),
            (SPI, [(3, 0), (0, 3), (7, 0), (0, 7)]),
            (GPI, [(3, 0), (7, 0)]),
        ):
            flags = _prime_norm_flags(100)
            member = primes._member(region, flags)
            for re, im in points:
                assert member(re, im, (0, 0, 0), 100) == (re, im, re * re + im * im)
            # 5 = (2+i)(2-i) and 9i = 3 * 3i share the norms of primes
            assert member(5, 0, (0, 0, 0), 100) is None
            assert member(0, 9, (0, 0, 0), 100) is None
        # 1+i is the even prime: flags[2] is clear, so it is no member
        flags = _prime_norm_flags(100)
        member = primes._member(KPI, flags)
        assert not flags[2]
        assert member(1, 1, (0, 0, 0), 100) is None
        assert member(3, 0, (0, 0, 0), 100) == (3, 0, 9)
        assert member(3, 0, (0, 0, 0), 9) is None  # the cap bites on the norm

    @pytest.mark.parametrize("region", list(Region))
    def test_rejects_every_even_point(self, region):
        """A set flag means an odd prime: no even point is a member,
        those of norm 2 (the associates of 1+i) included."""
        bound = 400
        flags = _prime_norm_flags(bound)
        member = primes._member(region, flags)
        even = [
            (re, im)
            for re in range(-20, 21)
            for im in range(-20, 21)
            if (re + im) % 2 == 0 and (re or im)
        ]
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= set(even)
        assert [p for p in even if member(*p, (0, 0, 0), bound)] == []


class TestSingle:
    """The membership test answers the one-term question: left without a
    first entry or cap, member(re, im) says whether re + im*i is an odd
    region prime. Callers check the policy themselves."""

    def test_matches_primality_past_the_flags(self):
        """Inside the flags and past their end, the membership test agrees
        with is_gaussian_prime, the region and oddness; find_decomposition
        takes the one-term split only under NormPolicy.NONE."""
        flags = _prime_norm_flags(60)
        for region in (KPI, GPI, SPI):
            members = [primes._member(region, fl) for fl in (flags, b"")]
            for re in range(-12, 13):
                for im in range(-12, 13):
                    z = GaussianInt(re, im)
                    if z.is_zero():
                        continue
                    want = (
                        REGION_PREDICATES[region.value](re, im)
                        and is_gaussian_prime(z)
                        and (re + im) % 2 == 1
                    )
                    for member in members:
                        got = member(re, im)
                        assert got == ((re, im, z.norm()) if want else None), (z, region)
                    dec = find_decomposition(z, region, 1, NormPolicy.NONE)
                    assert (dec is not None) == want, (z, region)
                    assert find_decomposition(z, region, 1, NormPolicy.STRICT_LESS) is None

    def test_reads_the_flags_without_miller_rabin(self, monkeypatch):
        calls = []
        real = primes.is_rational_prime

        def counting(n):
            calls.append(n)
            return real(n)

        member = primes._member(KPI, _prime_norm_flags(1000))
        monkeypatch.setattr(primes, "is_rational_prime", counting)
        inside = [(re, im) for re in range(22) for im in range(22) if re or im]
        assert [p for p in inside if member(*p)]
        assert calls == []
        assert member(31, 10)
        assert calls  # norm 1061, past the flags' end
        calls.clear()
        # a kpi scan covers every target's norm with its pool's flags
        report = scan_box(Region.OPEN_QUADRANT, (1, 30), (1, 30), KPI, 3, NormPolicy.NONE)
        assert report.term_counts[1] > 0
        assert calls == []

    def test_scan_reads_live_primes_off_level_one(self, monkeypatch):
        """A NONE scan that built its sumsets answers the one-term question
        for a live target below the largest cap from level 1's table: on
        kpi 40 x 40 every target is live and below it, so the membership
        test never runs, where it used to run for all 800 odd targets."""
        targets = box_targets(Region.OPEN_QUADRANT, (1, 40), (1, 40))
        _, runs = gaussdecomp._box_keys(Region.OPEN_QUADRANT, (1, 40), (1, 40), 0)
        live, extent = gaussdecomp._extent(runs, KPI, False)
        assert sum(hi - lo + 1 for _, lo, hi in live) == len(targets)
        assert max(z.norm() for z in targets) < extent[7]
        pool, calls = _pool_for(KPI), []
        real = pool.member

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pool, "member", counting)
        report = scan_targets(targets, KPI, 3, NormPolicy.NONE)
        assert calls == []
        monkeypatch.undo()
        assert report.term_counts[1] > 0
        assert report.rows == scan_rows_by_search(targets, KPI, 3)

    @pytest.mark.parametrize("region", list(Region))
    def test_empty_flags_reject_every_even_point(self, region):
        """Past the flags' end primality comes from is_gaussian_prime,
        which takes 1+i, so the test asks for an odd point first: with no
        flags at all, 1+i, 1-i and every other even point are rejected."""
        assert is_gaussian_prime(GaussianInt(1, 1))
        member = primes._member(region, b"")
        even = [
            (re, im)
            for re in range(-20, 21)
            for im in range(-20, 21)
            if (re + im) % 2 == 0 and (re or im)
        ]
        assert {(1, 1), (1, -1)} <= set(even)
        assert [p for p in even if member(*p)] == []


class TestFourTermDecompose:
    def test_even_targets_shed_an_inert_prime(self):
        dec, route = four_term_decompose(GaussianInt(19, 17))
        assert route == "shift-3i"
        assert summand_strs(dec) == ["19+14i", "3i"]
        dec, route = four_term_decompose(GaussianInt(9, 1))
        assert route == "shift-3"
        assert summand_strs(dec) == ["6+i", "3"]

    def test_odd_targets_go_direct(self):
        dec, route = four_term_decompose(GaussianInt(6, 5))
        assert route == "direct"
        assert dec.k == 1

    def test_fallback_routes(self):
        for z, want in (
            (GaussianInt(3, 7), ["2+5i", "1+2i"]),
            (GaussianInt(4, 6), ["2+5i", "2+i"]),
            (GaussianInt(7, 3), ["6+i", "1+2i"]),
        ):
            dec, route = four_term_decompose(z)
            assert route == "fallback"
            assert summand_strs(dec) == want

    def test_route_census(self):
        counts = {}
        for re in range(1, 41):
            for im in range(1, 41):
                z = GaussianInt(re, im)
                if max(re, im) <= 4:
                    continue
                got = four_term_decompose(z)
                assert got is not None, z
                counts[got[1]] = counts.get(got[1], 0) + 1
        assert counts == {"direct": 792, "shift-3i": 736, "shift-3": 53, "fallback": 3}

    def test_results_verify(self):
        for re in range(1, 16):
            for im in range(1, 16):
                z = GaussianInt(re, im)
                if max(re, im) <= 4:
                    continue
                got = four_term_decompose(z)
                assert got is not None
                dec, _ = got
                verify_decomposition(dec)
                assert dec.target == z
                assert dec.k <= 4

    def test_shift_stays_in_the_term_region(self):
        # 3i is not in gammapi (re > 0 there), so the real shift is used
        dec, route = four_term_decompose(GaussianInt(28, 6), GPI)
        assert route == "shift-3"
        assert summand_strs(dec) == ["25+6i", "3"]

    def test_region_without_an_inert_shift_falls_back(self):
        # the open quadrant holds neither 3i nor 3, so no shift is tried
        dec, route = four_term_decompose(GaussianInt(19, 17), Region.OPEN_QUADRANT)
        assert route == "fallback"
        assert summand_strs(dec) == ["17+12i", "2+5i"]

    def test_pool_cap_of_the_shift_search_propagates(self):
        # 9999+i sheds 3, so the cap error names the bound for 9996+i
        with pytest.raises(ValueError, match="pool norm bound 99920018 is above the cap"):
            four_term_decompose(GaussianInt(9999, 1))

    def test_odd_targets_search_once(self, monkeypatch):
        # four odd primes never sum to an odd target: no four-term retry
        calls = []
        real = gaussdecomp._dfs

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gaussdecomp, "_dfs", counting)
        assert four_term_decompose(GaussianInt(7, 6), Region.PRIME_SECTOR) is None
        assert [c[:3] for c in calls] == [(7, 6, 3)]

    @pytest.mark.parametrize("region", [KPI, GPI, SPI])
    def test_even_chains_verify_in_every_prime_region(self, region):
        routes = set()
        for re in range(1, 31):
            for im in range(1, 31):
                z = GaussianInt(re, im)
                if (re + im) % 2 or max(re, im) <= 4:
                    continue
                got = four_term_decompose(z, region)
                if got is None:
                    continue
                dec, route = got
                verify_decomposition(dec)
                assert dec.target == z
                routes.add(route)
        assert routes & {"shift-3i", "shift-3"}

    def test_gate(self):
        with pytest.raises(ValueError, match="positive real and imaginary"):
            four_term_decompose(GaussianInt(9, 0))
        with pytest.raises(ValueError, match="component above 4"):
            four_term_decompose(GaussianInt(4, 3))


class TestDecompositionObject:
    def test_str_form(self):
        dec = find_decomposition(GaussianInt(19, 16), KPI, 3)
        assert str(dec) == "(17+12i) + (1+2i) + (1+2i)"

    def test_json_dict(self):
        dec = find_decomposition(GaussianInt(6, 6), SPI, 2)
        data = dec.to_json_dict()
        assert data["target"] == "6+6i"
        assert data["k"] == 2
        assert data["region"] == "spi"
        assert data["policy"] == "strict"
        assert data["terms"][1] == {
            "summand": "1+2i",
            "re": 1,
            "im": 2,
            "norm": 5,
            "unit": "i",
            "sector": "2-i",
        }

    def test_csv_writer(self):
        dec = find_decomposition(GaussianInt(6, 6), SPI, 2)
        buf = io.StringIO()
        dec.write(buf, "csv")
        assert buf.getvalue().splitlines() == [
            "summand,re,im,norm,unit,sector",
            "5+4i,5,4,41,1,5+4i",
            "1+2i,1,2,5,i,2-i",
        ]

    def test_write_rejects_unknown_format(self):
        dec = find_decomposition(GaussianInt(8, 0), GPI, 2)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="format must be one of md, csv, json"):
            dec.write(buf, "xml")
        assert buf.getvalue() == ""

    def test_json_writer_roundtrip(self):
        dec = find_decomposition(GaussianInt(8, 0), GPI, 2)
        buf = io.StringIO()
        dec.write(buf, "json")
        data = json.loads(buf.getvalue())
        assert data["norm"] == 64
        assert [t["summand"] for t in data["terms"]] == ["6+i", "2-i"]
