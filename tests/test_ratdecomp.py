"""Fixed-length and minimal odd-prime splits, residue-class scans, and
the three-to-six-term chain, cross-checked against plain enumeration."""

import builtins
import io
import json
import random
from array import array
from itertools import compress
from operator import not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import min_split_into, odd_primes_upto, trial_prime
from shnirel import (
    HYPOTHESES,
    HypothesisViolation,
    SearchExhausted,
    four_odd_primes,
    hypothesis_scans,
    min_odd_prime_terms,
    residue34_chain,
    split_into_odd_primes,
    split_into_residue34_primes,
)
from shnirel import ratdecomp
from shnirel.ratdecomp import CHAIN_THRESHOLD, HypothesisReport, HypothesisReports


class TestSplitIntoOddPrimes:
    def test_matches_enumeration_oracle(self):
        pool = odd_primes_upto(120)
        for n in range(1, 121):
            for k in range(1, 5):
                got = split_into_odd_primes(n, k)
                want = min_split_into(n, k, pool)
                if want is None:
                    assert got is None, (n, k)
                else:
                    assert got == tuple(reversed(want)), (n, k)

    def test_witness_shape(self):
        got = split_into_odd_primes(31, 3)
        assert got is not None
        assert sum(got) == 31
        assert len(got) == 3
        assert list(got) == sorted(got, reverse=True)
        assert all(trial_prime(p) and p > 2 for p in got)

    def test_parity_mismatch_fails_fast(self):
        assert split_into_odd_primes(10, 3) is None
        assert split_into_odd_primes(9, 2) is None

    def test_too_small_and_bad_k(self):
        assert split_into_odd_primes(8, 3) is None
        assert split_into_odd_primes(9, 0) is None
        assert split_into_odd_primes(9, -1) is None

    def test_single_term_is_membership(self):
        assert split_into_odd_primes(13, 1) == (13,)
        assert split_into_odd_primes(2, 1) is None
        assert split_into_odd_primes(15, 1) is None


class TestSplitIntoResidue34Primes:
    def test_residue_mismatch_fails_fast(self):
        # a sum of k primes from the 3 mod 4 class sits at 3k mod 4
        assert split_into_residue34_primes(11, 2) is None
        assert split_into_residue34_primes(12, 3) is None

    def test_small_values(self):
        assert split_into_residue34_primes(10, 2) == (7, 3)
        assert split_into_residue34_primes(6, 2) == (3, 3)
        assert split_into_residue34_primes(9, 3) == (3, 3, 3)
        assert split_into_residue34_primes(7, 1) == (7,)
        assert split_into_residue34_primes(5, 1) is None

    def test_matches_enumeration_oracle(self):
        pool = [p for p in odd_primes_upto(150) if p % 4 == 3]
        for n in range(1, 151):
            for k in range(1, 5):
                got = split_into_residue34_primes(n, k)
                want = min_split_into(n, k, pool)
                if want is None:
                    assert got is None, (n, k)
                else:
                    assert got == tuple(reversed(want)), (n, k)

    def test_terms_stay_in_class(self):
        for n in range(20, 400, 4):
            got = split_into_residue34_primes(n + 1, 3)
            if got is None:
                continue
            assert sum(got) == n + 1
            assert all(p % 4 == 3 and trial_prime(p) for p in got)


class TestSplitTermsCap:
    """Each term of a single split nests one more level read, so a split of
    more terms than the cap is refused before any sieve, not left to raise
    RecursionError; at the cap it runs."""

    @pytest.mark.parametrize(
        "split,n", [(split_into_odd_primes, 1200), (split_into_residue34_primes, 1240)]
    )
    def test_a_deep_split_is_a_bad_argument(self, monkeypatch, split, n):
        def sieving(limit):
            raise AssertionError("a split past the cap sieved")

        monkeypatch.setattr(ratdecomp, "_sieve", sieving)
        with pytest.raises(ValueError, match="400 terms are above the split cap of 100"):
            split(n, 400)

    def test_at_the_cap(self):
        assert split_into_odd_primes(300, 100) == (3,) * 100
        assert split_into_odd_primes(302, 100) == (5,) + (3,) * 99
        # 1006 = 983 + 23 is the least-first-term split of what 98 threes leave
        assert split_into_residue34_primes(1300, 100) == (983, 23) + (3,) * 98


class TestFourOddPrimes:
    def test_smallest_case(self):
        assert four_odd_primes(14) == (5, 3, 3, 3)
        assert four_odd_primes(12) == (3, 3, 3, 3)

    def test_sweep(self):
        for n in range(12, 800, 2):
            terms = four_odd_primes(n)
            assert sum(terms) == n
            assert all(trial_prime(p) and p > 2 for p in terms)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            four_odd_primes(13)
        with pytest.raises(ValueError):
            four_odd_primes(10)


class TestMinOddPrimeTerms:
    def test_known_counts(self):
        assert min_odd_prime_terms(3) == (1, (3,))
        assert min_odd_prime_terms(27) == (3, (19, 5, 3))
        assert min_odd_prime_terms(6) == (2, (3, 3))

    def test_count_is_minimal(self):
        pool = odd_primes_upto(200)
        for n in range(3, 200):
            try:
                k, terms = min_odd_prime_terms(n)
            except SearchExhausted:
                # plain enumeration must agree nothing fits
                assert all(
                    min_split_into(n, j, pool) is None for j in range(1, 9)
                )
                continue
            assert sum(terms) == n and len(terms) == k
            assert all(min_split_into(n, j, pool) is None for j in range(1, k))

    def test_exhausted(self):
        with pytest.raises(SearchExhausted):
            min_odd_prime_terms(4)
        with pytest.raises(SearchExhausted):
            min_odd_prime_terms(1)

    @pytest.mark.parametrize("n", [4, 2])
    def test_a_huge_bound_stops_at_a_third_of_n(self, n):
        """No k past n // 3 odd primes sums to n, so the search ends there
        however large max_terms is, and keeps its message."""
        with pytest.raises(SearchExhausted, match=f"^{n} is not a sum of up to {10**18} odd"):
            min_odd_prime_terms(n, 10**18)

    def test_no_terms_allowed_is_a_bad_argument(self):
        # an unusable bound is not the data saying no
        for max_terms in (0, -1):
            with pytest.raises(ValueError, match="max_terms must be at least 1"):
                min_odd_prime_terms(10, max_terms)


class TestHypothesisScan:
    def test_spec_table(self):
        assert [(h.residue, h.k) for h in HYPOTHESES.values()] == [
            (2, 2), (1, 3), (0, 4), (3, 5),
        ]
        assert sorted(HYPOTHESES) == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "index,exceptions,c0",
        [
            (1, (2,), 6),
            (2, (1, 5), 9),
            (3, (4, 8), 12),
            (4, (3, 7, 11), 15),
        ],
    )
    def test_exceptions_below_200(self, index, exceptions, c0):
        report = hypothesis_scans([index], 1, 200)[0]
        assert report.exceptions == exceptions
        assert report.max_exception == exceptions[-1]
        assert report.c0_candidate == c0

    def test_rows_cover_exactly_the_residue_class(self):
        report = hypothesis_scans([2], 10, 30)[0]
        assert [n for n, _ in report.rows] == [13, 17, 21, 25, 29]

    def test_witnesses_are_valid(self):
        for index in HYPOTHESES:
            report = hypothesis_scans([index], 1, 200)[0]
            spec = report.spec
            for n, wit in report.rows:
                assert n % 4 == spec.residue
                if wit is None:
                    assert n in report.exceptions
                    continue
                assert len(wit) == spec.k
                assert sum(wit) == n
                assert all(p % 4 == 3 and trial_prime(p) for p in wit)
                assert list(wit) == sorted(wit, reverse=True)

    def test_no_exceptions_means_no_candidate(self):
        report = hypothesis_scans([1], 100, 200)[0]
        assert report.exceptions == ()
        assert report.max_exception is None
        assert report.c0_candidate is None

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hypothesis_scans([5], 1, 10)[0]
        with pytest.raises(ValueError):
            hypothesis_scans([1], 0, 10)[0]
        with pytest.raises(ValueError):
            hypothesis_scans([1], 10, 9)[0]

    def test_csv_writer(self):
        report = hypothesis_scans([1], 1, 20)[0]
        buf = io.StringIO()
        report.write(buf, "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,residue,k,witness"
        assert lines[1] == "2,2,2,EMPTY"
        assert lines[2] == "6,2,2,3+3"

    # every row of hypothesis_scans([index], 1, 40)[0], one k per index, EMPTY rows included
    @pytest.mark.parametrize(
        "index,lines",
        [
            (1, ["2,2,2,EMPTY", "6,2,2,3+3", "10,2,2,7+3", "14,2,2,11+3",
                 "18,2,2,11+7", "22,2,2,19+3", "26,2,2,23+3", "30,2,2,23+7",
                 "34,2,2,31+3", "38,2,2,31+7"]),
            (2, ["1,1,3,EMPTY", "5,1,3,EMPTY", "9,1,3,3+3+3", "13,1,3,7+3+3",
                 "17,1,3,11+3+3", "21,1,3,11+7+3", "25,1,3,19+3+3",
                 "29,1,3,23+3+3", "33,1,3,23+7+3", "37,1,3,31+3+3"]),
            (3, ["4,0,4,EMPTY", "8,0,4,EMPTY", "12,0,4,3+3+3+3", "16,0,4,7+3+3+3",
                 "20,0,4,11+3+3+3", "24,0,4,11+7+3+3", "28,0,4,19+3+3+3",
                 "32,0,4,23+3+3+3", "36,0,4,23+7+3+3", "40,0,4,31+3+3+3"]),
            (4, ["3,3,5,EMPTY", "7,3,5,EMPTY", "11,3,5,EMPTY", "15,3,5,3+3+3+3+3",
                 "19,3,5,7+3+3+3+3", "23,3,5,11+3+3+3+3", "27,3,5,11+7+3+3+3",
                 "31,3,5,19+3+3+3+3", "35,3,5,23+3+3+3+3", "39,3,5,23+7+3+3+3"]),
        ],
    )
    def test_csv_rows_at_every_k(self, index, lines):
        buf = io.StringIO()
        hypothesis_scans([index], 1, 40)[0].write(buf, "csv")
        assert buf.getvalue() == "".join(f"{line}\n" for line in ["n,residue,k,witness"] + lines)

    def test_reports_share_one_csv_header(self):
        reports = hypothesis_scans([2, 1], 1, 20)
        buf = io.StringIO()
        HypothesisReports(tuple(reports)).write(buf, "csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,residue,k,witness"
        assert lines.count("n,residue,k,witness") == 1
        rows = [line.split(",")[:3] for line in lines[1:]]
        want = [[str(n), "1", "3"] for n in range(1, 21, 4)]
        want += [[str(n), "2", "2"] for n in range(2, 21, 4)]
        assert rows == want

    def test_reports_json_is_a_list_in_order(self):
        reports = hypothesis_scans([3, 1], 1, 40)
        buf = io.StringIO()
        HypothesisReports(tuple(reports)).write(buf, "json")
        data = json.loads(buf.getvalue())
        assert data == [r.to_json_dict() for r in reports]
        assert [d["hypothesis"] for d in data] == [3, 1]

    def test_json_writer(self):
        report = hypothesis_scans([3], 1, 40)[0]
        buf = io.StringIO()
        report.write(buf, "json")
        data = json.loads(buf.getvalue())
        assert data["hypothesis"] == 3
        assert data["residue"] == 0
        assert data["k"] == 4
        assert data["exceptions"] == [4, 8]
        assert data["c0_candidate"] == 12
        by_n = {row["n"]: row["witness"] for row in data["rows"]}
        assert by_n[4] is None
        assert by_n[12] == [3, 3, 3, 3]


class TestHypothesisLevels:
    @pytest.mark.parametrize("lo", [1, 2, 3, 101])
    def test_rows_match_enumeration_oracle(self, lo):
        hi = 600
        pool = [p for p in odd_primes_upto(hi) if p % 4 == 3]
        for index, spec in HYPOTHESES.items():
            report = hypothesis_scans([index], lo, hi)[0]
            want = []
            for n in range(lo, hi + 1):
                if n % 4 == spec.residue:
                    asc = min_split_into(n, spec.k, pool)
                    want.append((n, None if asc is None else tuple(reversed(asc))))
            assert report.rows == tuple(want), (index, lo)
            assert report.exceptions == tuple(n for n, w in want if w is None)

    @pytest.mark.parametrize("lo", [1, 101])
    def test_shared_memo_equals_single_scans(self, lo):
        together = hypothesis_scans([1, 2, 3, 4], lo, 3000)
        assert together == [hypothesis_scans([i], lo, 3000)[0] for i in (1, 2, 3, 4)]
        # reports come back in the order asked, whatever order the levels fill
        assert hypothesis_scans([4, 2, 4], lo, 3000) == [
            together[3], together[1], together[3],
        ]

    def test_bad_index_rejected_before_scanning(self):
        with pytest.raises(ValueError, match="hypothesis index"):
            hypothesis_scans([1, 5], 1, 10)
        assert hypothesis_scans([], 1, 10) == []

    def test_scan_bound_is_capped_at_a_million(self):
        (report,) = hypothesis_scans([1], 10**6 - 20, 10**6)
        assert report.hi == 10**6 and report.rows
        with pytest.raises(ValueError, match="scan bound 1000001 is above the cap of 1000000"):
            hypothesis_scans([1], 10**6 - 20, 10**6 + 1)


def oracle_rows(index, lo, hi):
    """(n, witness largest first or None) for each n of H_index's class in
    [lo, hi], by plain enumeration."""
    spec = HYPOTHESES[index]
    pool = [p for p in odd_primes_upto(hi) if p % 4 == 3]
    rows = []
    for n in range(lo, hi + 1):
        if n % 4 == spec.residue:
            asc = min_split_into(n, spec.k, pool)
            rows.append((n, None if asc is None else tuple(reversed(asc))))
    return tuple(rows)


class TestFirstTermArrays:
    """A scan keeps one array of first terms per level, indexed by n; its
    rows are chased off them, and its CSV is written off each level's
    witness texts. Both must give the enumerated canonical witnesses."""

    # lo > 1; hi off some classes (601 = 1, 702 = 2 mod 4); hi < 3k for
    # the larger k (14 < 15, 9 < 12, 3 < 6); a one-number range
    @pytest.mark.parametrize("lo,hi", [(2, 601), (150, 702), (5, 14), (7, 9), (1, 3), (33, 33)])
    def test_rows_and_csv_match_enumeration_oracle(self, lo, hi):
        for index, spec in HYPOTHESES.items():
            report = hypothesis_scans([index], lo, hi)[0]
            want = oracle_rows(index, lo, hi)
            assert report.rows == want, (index, lo, hi)
            assert report.exceptions == tuple(n for n, w in want if w is None)
            buf = io.StringIO()
            report.write(buf, "csv")
            cells = ["EMPTY" if w is None else "+".join(map(str, w)) for _, w in want]
            assert buf.getvalue() == "n,residue,k,witness\n" + "".join(
                f"{n},{spec.residue},{spec.k},{cell}\n" for (n, _), cell in zip(want, cells)
            ), (index, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(1, 3), (1, 50), (7, 2001), (1, 20_000), (9_990, 20_000)])
    def test_exceptions_are_the_zeros_of_the_top_level(self, lo, hi):
        """exceptions finds the zeros of the top array's class slice with
        array.index; it agrees with a not_ call per n over the same level."""
        for report in hypothesis_scans([1, 2, 3, 4], lo, hi):
            ns, top = report._targets, report.levels[-1]
            assert isinstance(top, array)
            assert report.exceptions == tuple(compress(ns, map(not_, top[ns.start :: 4])))
            assert report.exceptions == tuple(n for n, w in report.rows if w is None)

    def test_a_lone_top_scan_builds_its_own_levels(self):
        """H_4 alone fills levels 2 to 5 with no other scan asked for."""
        (lone,) = hypothesis_scans([4], 101, 3003)
        assert len(lone.levels) == 4
        assert lone.rows == oracle_rows(4, 101, 3003)
        assert lone == hypothesis_scans([1, 2, 3, 4], 101, 3003)[3]

    def test_reports_compare_and_hash(self):
        alone = hypothesis_scans([2], 1, 500)[0]
        shared = hypothesis_scans([1, 2], 1, 500)[1]
        longer = hypothesis_scans([2], 1, 504)[0]
        assert alone == shared and hash(alone) == hash(shared)
        assert alone != longer and alone.rows != longer.rows
        assert len({alone, shared, longer}) == 2


# the 3 mod 4 primes the property tests below can reach
R34_POOL = [p for p in odd_primes_upto(2500) if p % 4 == 3]


class TestInlinedLevels:
    """Scans fill whole arrays of first terms, a single split only the
    entries its chase reads; both run the first-term lemma's one loop."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_scans_match_enumeration_oracle(self, data):
        lo = data.draw(st.integers(1, 500), label="lo")
        hi = data.draw(st.integers(lo, 2500), label="hi")
        # all four share their arrays; one alone fills the levels below it itself
        alone = data.draw(st.sampled_from(sorted(HYPOTHESES)), label="alone")
        for report in hypothesis_scans(sorted(HYPOTHESES), lo, hi) + [
            hypothesis_scans([alone], lo, hi)[0]
        ]:
            for n, wit in report.rows:
                want = min_split_into(n, report.spec.k, R34_POOL)
                assert wit == (None if want is None else tuple(reversed(want))), n

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 5))
    def test_single_splits_match_enumeration_oracle(self, n, k):
        odd = min_split_into(n, k, odd_primes_upto(400))
        r34 = min_split_into(n, k, R34_POOL)
        assert split_into_odd_primes(n, k) == (None if odd is None else tuple(reversed(odd)))
        assert split_into_residue34_primes(n, k) == (
            None if r34 is None else tuple(reversed(r34))
        )


@pytest.fixture
def short_listing(monkeypatch):
    """Fresh pools whose first listing holds the primes below 8, so every
    split and scan past the smallest lists on, doubling, many times."""
    monkeypatch.setattr(ratdecomp, "_FIRST_LISTING", 8)
    monkeypatch.setattr(ratdecomp, "_odd_pool", ratdecomp._Pool(1, 2))
    monkeypatch.setattr(ratdecomp, "_r34_pool", ratdecomp._Pool(3, 4))


class TestGrowingPools:
    """The pools start short and list on from the sieve flags only when a
    first-term loop runs off their end while p * k <= n may still hold.
    Cut to the primes below 8, they must give the enumerated answers."""

    def test_odd_splits(self, short_listing):
        TestSplitIntoOddPrimes().test_matches_enumeration_oracle()

    def test_residue34_splits(self, short_listing):
        TestSplitIntoResidue34Primes().test_matches_enumeration_oracle()

    def test_min_odd_prime_terms(self, short_listing):
        TestMinOddPrimeTerms().test_count_is_minimal()

    @pytest.mark.parametrize("lo", [1, 2, 3, 101])
    def test_scans(self, short_listing, lo):
        TestHypothesisLevels().test_rows_match_enumeration_oracle(lo)

    @pytest.mark.parametrize("lo,hi", [(2, 601), (150, 702), (5, 14), (7, 9), (1, 3), (33, 33)])
    def test_scan_rows_and_csv(self, short_listing, lo, hi):
        TestFirstTermArrays().test_rows_and_csv_match_enumeration_oracle(lo, hi)

    def test_a_pool_grows_under_an_outer_loop(self, short_listing, monkeypatch):
        """101 = 79 + 19 + 3. Level 3's loop reads level 2 at 101 - 3 = 98,
        and no prime below 8 starts a two-term sum of 98 (95, 93 and 91 are
        composite): level 2 lists on while level 3 iterates the same pool,
        which must keep every entry in place."""
        pool = ratdecomp._odd_pool
        pool.grow(0)
        assert pool == [3, 5, 7]
        active, grown = [], []
        first_term, grow = ratdecomp._first_term, ratdecomp._Pool.grow

        def tracked(below, k, pool, n):
            active.append(k)
            try:
                return first_term(below, k, pool, n)
            finally:
                active.pop()

        def growing(self, stop):
            before = list(self)
            did = grow(self, stop)
            assert self[: len(before)] == before
            if did:
                grown.append(tuple(active))
            return did

        monkeypatch.setattr(ratdecomp, "_first_term", tracked)
        monkeypatch.setattr(ratdecomp._Pool, "grow", growing)
        want = min_split_into(101, 3, odd_primes_upto(101))
        assert split_into_odd_primes(101, 3) == tuple(reversed(want)) == (79, 19, 3)
        assert grown and all(ks[:2] == (3, 2) for ks in grown)
        assert ratdecomp._odd_pool is pool and pool[:3] == [3, 5, 7]

    def test_a_chain_lists_only_the_primes_it_reads(self, monkeypatch):
        """The chain's three-term split of 1 004 997 reads first terms up to
        7, so from a fresh state its pool stays at the first listing, though
        the flags span 1 004 997."""
        monkeypatch.setattr(ratdecomp, "_flags", bytearray())
        monkeypatch.setattr(ratdecomp, "_r34_pool", ratdecomp._Pool(3, 4))
        assert residue34_chain(1_005_000).terms == (1004987, 7, 3, 3)
        assert len(ratdecomp._flags) > 1_004_997
        assert ratdecomp._r34_pool[-1] < 2000


def per_n_levels(hi):
    """Levels 2 to 5 up to hi, filled n by n through _first_term."""
    levels = [ratdecomp._flags]
    for k in range(2, 6):
        levels.append(array("I", [0]) * (hi + 1))
        for n in range(3 * k, hi + 1, 4):
            levels[-1][n] = ratdecomp._first_term(levels[-2], k, ratdecomp._r34_pool, n)
    return levels[1:]


class TestBulkLevels:
    """The scans fill each level in one bulk pass over the pool, with one
    16-bit lane per n of its class; the arrays must be those of the loop
    per n, at every level."""

    # hi at each residue mod 4, below 3k for k = 3, 4 and 5, and at scale
    @pytest.mark.parametrize("hi", [3, 9, 14, 20_000, 20_001, 20_002, 20_003, 10**6 - 3])
    def test_bulk_pass_equals_per_n_loop(self, hi):
        (report,) = hypothesis_scans([4], 1, hi)
        assert all(isinstance(level, array) for level in report.levels)
        assert list(report.levels) == per_n_levels(hi)

    @pytest.mark.parametrize("hi", [2_001, 20_000])
    def test_primes_past_the_lanes_go_to_the_per_n_loop(self, monkeypatch, hi):
        """With the lanes stopped at 100, level 2's first terms past 100
        come from _first_term, and the arrays and CSV bytes stay."""
        csv = {}
        for stop in (1 << 16, 100):
            monkeypatch.setattr(ratdecomp, "_LANE_STOP", stop)
            reports = hypothesis_scans([1, 2, 3, 4], 1, hi)
            assert list(reports[3].levels) == per_n_levels(hi)
            buf = io.StringIO()
            HypothesisReports(tuple(reports)).write(buf, "csv")
            csv[stop] = buf.getvalue()
        assert max(reports[3].levels[0]) > 100
        assert csv[100] == csv[1 << 16]


def csv_from_rows(reports):
    """The CSV of the reports formatted line by line from their rows, which
    _chase reads off the levels target by target."""
    lines = ["n,residue,k,witness\n"]
    for r in reports:
        for n, wit in r.rows:
            cell = "EMPTY" if wit is None else "+".join(map(str, wit))
            lines.append(f"{n},{r.spec.residue},{r.spec.k},{cell}\n")
    return "".join(lines)


def csv_of(reports):
    buf = io.StringIO()
    HypothesisReports(tuple(reports)).write(buf, "csv")
    return buf.getvalue()


class TestCsvWriter:
    """The CSV writer makes each level's witness texts once, over a window
    of its class, off the texts of the level below; its bytes must be those
    formatted from the rows."""

    INDICES = ([2, 1], [4, 1], [3], [1, 2, 3, 4])

    def sweep(self):
        """(indices, lo, hi) over small hi, hi at every residue near 20 000,
        and empty classes, each with lo = 1 and a seeded lo above 1."""
        rng = random.Random(29)
        for hi in [*range(1, 15), *range(20_000, 20_004)]:
            for indices in self.INDICES:
                yield indices, 1, hi
                yield indices, rng.randint(min(hi, 2), hi), hi
        yield [2], 5, 5  # a lone target with no sum
        yield [2], 6, 8  # no target in H_2's class
        yield [1, 2, 3, 4], 6, 6  # one class of four holds a target

    def test_bytes_are_those_of_the_rows(self):
        for indices, lo, hi in self.sweep():
            reports = hypothesis_scans(indices, lo, hi)
            assert csv_of(reports) == csv_from_rows(reports), (indices, lo, hi)

    def test_narrow_ranges_at_the_cap(self):
        """Narrow windows over the arrays of whole classes up to 10^6."""
        lo = 10**6 - random.Random(10**9).randint(0, 40)
        for indices in self.INDICES:
            reports = hypothesis_scans(indices, lo, 10**6)
            assert csv_of(reports) == csv_from_rows(reports), (indices, lo)

    def test_primes_past_the_lanes(self, monkeypatch):
        monkeypatch.setattr(ratdecomp, "_LANE_STOP", 100)
        for lo in (1, 1_234):
            reports = hypothesis_scans([1, 2, 3, 4], lo, 20_001)
            assert max(reports[0].levels[0]) > 100
            assert csv_of(reports) == csv_from_rows(reports), lo

    def test_reports_of_several_scans(self):
        """Reports from separate calls hold separate levels; each run of
        them is written off its own."""
        reports = [
            *hypothesis_scans([1], 1, 50),
            *hypothesis_scans([3, 1], 20, 90),
            *hypothesis_scans([4], 7, 30),
            *hypothesis_scans([2, 4], 1, 61),
        ]
        assert csv_of(reports) == csv_from_rows(reports)

    def test_hand_made_levels(self):
        """First terms no scan makes, over levels shared as one scan's are:
        level 3 all 3 but for a 0 mid-range, so H_2's rows read through
        level 2 in two runs around an EMPTY row; level 4 mixed above it, so
        H_3's texts are listed off level 3's; level 5 all 3 above that, as
        H_4 reads it. Every nonzero first term leaves n - p a sum below."""
        rng, hi = random.Random(35), 300
        levels = {k: array("I", [0]) * (hi + 1) for k in range(2, 6)}
        for n in range(6, hi + 1, 4):
            levels[2][n] = rng.choice([p for p in (3, 7, 11, 19, 23) if p <= n - 3])
        for n in range(9, hi + 1, 4):
            levels[3][n] = 3 * (n != 101)
        for n in range(12, hi + 1, 4):
            levels[4][n] = rng.choice([p for p in (3, 7, 11) if levels[3][n - p]] or [0])
        for n in range(15, hi + 1, 4):
            levels[5][n] = 3 * (levels[4][n - 3] > 0)
        assert len(set(levels[4][12::4])) > 1  # mixed
        shared = tuple(levels.values())
        for lo in (1, 50, 101, 102):
            reports = [HypothesisReport(HYPOTHESES[i], lo, hi, shared[:i]) for i in (2, 3, 1, 4)]
            assert 101 in reports[0].exceptions or lo > 101
            assert csv_of(reports) == csv_from_rows(reports), lo

    @pytest.mark.parametrize("indices", [None, 4])
    def test_only_levels_1_and_2_make_lists(self, monkeypatch, indices):
        """At 20 000 the levels above 2 hold one first term and read through
        level 2, so the writer lists the texts of levels 1 and 2 alone."""
        made = []

        def spy(items=()):
            got = builtins.list(items)
            if got and isinstance(got[0], str):
                made.append(got)
            return got

        reports = hypothesis_scans([indices] if indices else [1, 2, 3, 4], 1, 20_000)
        monkeypatch.setattr(ratdecomp, "list", spy, raising=False)
        text = csv_of(reports)
        monkeypatch.undo()
        assert text == csv_from_rows(reports)
        assert [texts[-1].count("+") for texts in made] == [0, 1]  # numerals, then level 2


class TestResidue34Chain:
    def test_frozen_example(self):
        result = residue34_chain(30)
        assert result.terms == (11, 7, 3, 3, 3, 3)
        assert result.base == (11, 7, 3)
        assert result.extras == (3, 3, 3)
        assert result.m == 6

    def test_sweep_18_to_1500(self):
        for n in range(CHAIN_THRESHOLD, 1501):
            result = residue34_chain(n)
            assert sum(result.terms) == n
            assert 3 <= result.m <= 6
            assert all(p % 4 == 3 and trial_prime(p) for p in result.terms)
            assert len(result.base) == 3
            assert all(p == 3 for p in result.extras)

    def test_extras_track_residue(self):
        # the number of stripped 3s is a function of n mod 4 alone
        for n, count in ((21, 0), (20, 1), (19, 2), (18, 3)):
            assert len(residue34_chain(n).extras) == count

    def test_below_threshold(self):
        with pytest.raises(ValueError):
            residue34_chain(CHAIN_THRESHOLD - 1)

    def test_violation_surfaces_for_forced_bad_remainder(self):
        # threshold lowered by hand: 10 strips three 3s leaving 1, which
        # has no three-term split, and that must raise rather than hide
        with pytest.raises(HypothesisViolation):
            residue34_chain(10, threshold=5)

    def test_json_shape(self):
        data = residue34_chain(30).to_json_dict()
        assert data == {
            "n": 30,
            "base": [11, 7, 3],
            "extras": [3, 3, 3],
            "terms": [11, 7, 3, 3, 3, 3],
            "m": 6,
        }
