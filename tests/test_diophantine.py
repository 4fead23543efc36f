"""Closed-form matrix solvers against the exhaustive reference search."""

import io
import json

import pytest

from oracles import (
    BoundExceeded,
    brute_force_matrices,
    brute_force_matrix,
    trial_prime,
)
from shnirel import (
    SearchExhausted,
    SolutionMatrix,
    SystemKind,
    diophantine,
    four_odd_primes,
    min_odd_prime_terms,
    solve_four_columns,
    solve_min_columns,
    solve_square_columns,
)


class TestSolveFourColumns:
    def test_case_one_examples(self):
        got = solve_four_columns(11, 3)
        assert got.case == 1
        assert got.columns() == [(5, 5, 0), (3, 3, 0), (3, 3, 0), (3, 0, 3)]
        got = solve_four_columns(12, 2)
        assert got.case == 1
        assert got.columns() == [(5, 5, 0), (3, 3, 0), (3, 3, 0), (3, 1, 2)]

    def test_all_four_cases_are_reachable(self):
        assert solve_four_columns(11, 3).case == 1
        assert solve_four_columns(9, 5).case == 2
        assert solve_four_columns(8, 8).case == 3
        assert solve_four_columns(10, 10).case == 4

    def test_sweep_validates_and_uses_canonical_targets(self):
        seen_cases = set()
        for a in range(1, 30):
            for b in range(1, a + 1):
                if (a + b) % 2 or a + b < 12:
                    continue
                got = solve_four_columns(a, b)
                got.validate()
                assert got.a == a and got.b == b and got.k == 4
                assert got.targets == four_odd_primes(a + b)
                seen_cases.add(got.case)
        assert seen_cases == {1, 2, 3, 4}

    def test_brute_force_containment(self):
        for a in range(6, 25):
            for b in range(1, a + 1):
                if (a + b) % 2 or a + b < 12:
                    continue
                want = solve_four_columns(a, b).columns()
                assert any(
                    bf.columns() == want
                    for bf in brute_force_matrices(a, b, SystemKind.FOUR_COLUMNS)
                ), (a, b)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_four_columns(11, 0)
        with pytest.raises(ValueError):
            solve_four_columns(3, 5)
        with pytest.raises(ValueError):
            solve_four_columns(8, 5)
        with pytest.raises(ValueError):
            solve_four_columns(6, 4)


class TestSolveMinColumns:
    def test_two_column_example(self):
        got = solve_min_columns(9, 5)
        assert got.columns() == [(11, 9, 2), (3, 0, 3)]
        assert got.case is None

    def test_single_column(self):
        assert solve_min_columns(2, 1).columns() == [(3, 2, 1)]

    def test_sweep_matches_minimal_split(self):
        for a in range(1, 26):
            for b in range(1, 26):
                try:
                    got = solve_min_columns(a, b)
                except SearchExhausted:
                    assert a + b in (2, 4)
                    continue
                got.validate()
                assert got.a == a and got.b == b
                k, targets = min_odd_prime_terms(a + b)
                assert got.k == k
                assert got.targets == targets

    def test_width_agrees_with_brute_force(self):
        for a in range(1, 16):
            for b in range(1, 16):
                try:
                    got = solve_min_columns(a, b)
                except SearchExhausted:
                    assert brute_force_matrix(a, b, SystemKind.MIN_COLUMNS) is None
                    continue
                reference = brute_force_matrix(a, b, SystemKind.MIN_COLUMNS)
                assert reference is not None
                assert reference.k == got.k

    def test_exhausted_tiny_sums(self):
        with pytest.raises(SearchExhausted):
            solve_min_columns(1, 1)
        with pytest.raises(SearchExhausted):
            solve_min_columns(2, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_min_columns(0, 5)
        with pytest.raises(ValueError):
            solve_min_columns(5, 0)


class TestSolveSquareColumns:
    def test_frozen_examples(self):
        assert solve_square_columns(7, 4, 3).columns() == [
            (17, 4, 1), (5, 2, 1), (5, 1, 2),
        ]
        assert solve_square_columns(8, 1, 3).columns() == [
            (9, 3, 0), (9, 3, 0), (5, 2, 1),
        ]
        assert solve_square_columns(6, 3, 3).columns() == [
            (9, 3, 0), (5, 2, 1), (5, 1, 2),
        ]

    def test_sweep_against_brute_force(self):
        for a in range(0, 13):
            for b in range(0, 13):
                if a == 0 and b == 0:
                    continue
                try:
                    got = solve_square_columns(a, b)
                except SearchExhausted:
                    assert brute_force_matrix(a, b, SystemKind.SQUARE_COLUMNS) is None
                    continue
                got.validate()
                assert got.a == a and got.b == b and got.k <= 6
                reference = brute_force_matrix(a, b, SystemKind.SQUARE_COLUMNS)
                assert reference is not None
                assert reference.k == got.k

    def test_exhausted(self):
        with pytest.raises(SearchExhausted):
            solve_square_columns(1, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_square_columns(0, 0)
        with pytest.raises(ValueError):
            solve_square_columns(-1, 4)


class TestSolversValidate:
    """Every solver checks its matrix before it returns: an inner split
    that hands back a wrong column raises instead of leaving the library."""

    def test_four_columns_with_a_composite_target_raise(self, monkeypatch):
        # 18 = 9 + 3 + 3 + 3 sums right, but 9 is no prime
        monkeypatch.setattr(diophantine, "four_odd_primes", lambda n: (n - 9, 3, 3, 3))
        with pytest.raises(ValueError, match="target 9 is not an odd prime"):
            solve_four_columns(9, 9)

    def test_min_columns_with_a_composite_target_raise(self, monkeypatch):
        monkeypatch.setattr(
            diophantine, "min_odd_prime_terms", lambda n, max_terms: (2, (n - 3, 3))
        )
        with pytest.raises(ValueError, match="target 15 is not an odd prime"):
            solve_min_columns(9, 9)


class TestBruteForce:
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_single_matches_first_yield(self, kind):
        for a, b in ((11, 3), (9, 5), (7, 4), (12, 8), (15, 6)):
            single = brute_force_matrix(a, b, kind)
            first = next(brute_force_matrices(a, b, kind), None)
            if single is None:
                assert first is None
            else:
                assert first is not None
                assert single.columns() == first.columns()

    def test_every_yield_validates(self):
        for kind in SystemKind:
            for matrix in brute_force_matrices(10, 6, kind):
                matrix.validate()
                assert matrix.a == 10 and matrix.b == 6

    def test_yields_are_distinct_and_deterministic(self):
        runs = [
            [m.columns() for m in brute_force_matrices(7, 5, SystemKind.FOUR_COLUMNS)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert len({tuple(cols) for cols in runs[0]}) == len(runs[0])

    def test_four_column_enumeration_is_complete(self):
        # 12 = 3+3+3+3 is the only target multiset, so the matrices are
        # the partitions of 5 into at most 4 parts no larger than 3
        got = list(brute_force_matrices(7, 5, SystemKind.FOUR_COLUMNS))
        assert len(got) == 4
        fills = {tuple(sorted(m.row_b)) for m in got}
        assert fills == {(0, 0, 2, 3), (0, 1, 1, 3), (0, 1, 2, 2), (1, 1, 1, 2)}

    def test_guard_fires_on_iteration(self):
        with pytest.raises(BoundExceeded):
            brute_force_matrix(150, 51, SystemKind.MIN_COLUMNS)
        gen = brute_force_matrices(150, 51, SystemKind.MIN_COLUMNS)
        with pytest.raises(BoundExceeded):
            next(gen)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            brute_force_matrix(0, 0, SystemKind.MIN_COLUMNS)
        with pytest.raises(ValueError):
            next(brute_force_matrices(-1, 5, SystemKind.MIN_COLUMNS))


class TestSolutionMatrix:
    def test_from_columns_sorts_descending(self):
        got = SolutionMatrix.from_columns(
            SystemKind.MIN_COLUMNS, [(3, 0, 3), (11, 9, 2), (3, 2, 1)], None
        )
        assert got.columns() == [(11, 9, 2), (3, 2, 1), (3, 0, 3)]

    def test_row_sum_properties(self):
        got = solve_min_columns(9, 5)
        assert (got.a, got.b, got.k) == (9, 5, 2)

    def test_validate_rejects_ragged_and_empty(self):
        bad = SolutionMatrix(SystemKind.MIN_COLUMNS, (3, 3), (3,), (0, 3))
        with pytest.raises(ValueError, match="ragged"):
            bad.validate()
        with pytest.raises(ValueError, match="empty"):
            SolutionMatrix(SystemKind.MIN_COLUMNS, (), (), ()).validate()

    def test_validate_rejects_wrong_width_for_four_columns(self):
        bad = SolutionMatrix(SystemKind.FOUR_COLUMNS, (5, 3), (5, 1), (0, 2))
        with pytest.raises(ValueError, match="4 columns"):
            bad.validate()

    def test_validate_rejects_negative_entries(self):
        bad = SolutionMatrix(SystemKind.MIN_COLUMNS, (3,), (4,), (-1,))
        with pytest.raises(ValueError, match="negative"):
            bad.validate()

    def test_validate_rejects_bad_targets(self):
        off = SolutionMatrix(SystemKind.MIN_COLUMNS, (9,), (4,), (5,))
        with pytest.raises(ValueError, match="odd prime"):
            off.validate()
        even = SolutionMatrix(SystemKind.MIN_COLUMNS, (2,), (1,), (1,))
        with pytest.raises(ValueError, match="odd prime"):
            even.validate()
        missed = SolutionMatrix(SystemKind.MIN_COLUMNS, (5,), (1,), (1,))
        with pytest.raises(ValueError, match="misses target"):
            missed.validate()

    def test_validate_square_column_rules(self):
        missed = SolutionMatrix(SystemKind.SQUARE_COLUMNS, (5,), (1,), (1,))
        with pytest.raises(ValueError, match="square target"):
            missed.validate()
        composite = SolutionMatrix(SystemKind.SQUARE_COLUMNS, (25,), (4,), (3,))
        with pytest.raises(ValueError, match="not a Gaussian prime"):
            composite.validate()
        ramified = SolutionMatrix(SystemKind.SQUARE_COLUMNS, (2,), (1,), (1,))
        with pytest.raises(ValueError, match="is even"):
            ramified.validate()

    def test_json_shape(self):
        data = solve_min_columns(9, 5).to_json_dict()
        assert data == {
            "kind": "thm2",
            "case": None,
            "a": 9,
            "b": 5,
            "k": 2,
            "columns": [
                {"target": 11, "x1": 9, "x2": 2},
                {"target": 3, "x1": 0, "x2": 3},
            ],
        }

    def test_writers(self):
        matrix = solve_min_columns(9, 5)
        buf = io.StringIO()
        matrix.write(buf, "csv")
        assert buf.getvalue() == "target,x1,x2\n11,9,2\n3,0,3\n"
        buf = io.StringIO()
        matrix.write(buf, "json")
        assert json.loads(buf.getvalue())["columns"][0] == {
            "target": 11, "x1": 9, "x2": 2,
        }


def test_kind_tokens():
    assert [k.value for k in SystemKind] == ["thm1", "thm2", "conj1"]


def test_targets_are_primes_everywhere():
    # shared sanity net over every solver output in one small grid
    for a in range(1, 12):
        for b in range(1, 12):
            for solver in (solve_min_columns,):
                try:
                    got = solver(a, b)
                except SearchExhausted:
                    continue
                assert all(trial_prime(t) and t % 2 for t in got.targets)
