"""The packaged reference tables: layout, validation, regeneration."""

from collections import Counter

from shnirel import (
    GaussianInt,
    GoldenRow,
    Region,
    in_region,
    parity,
    regenerate_tables,
    validate_golden,
    verify_decomposition,
)
from shnirel.zcore import Parity


class TestRowCensus:
    def test_counts(self, golden_rows):
        assert len(golden_rows) == 102
        assert Counter(r.table for r in golden_rows) == {1: 52, 2: 50}

    def test_forms(self, golden_rows):
        assert Counter(r.form for r in golden_rows) == {
            "p+q+r": 41,
            "p+q": 35,
            "p+iq": 15,
            "p+q+ir": 11,
        }

    def test_term_width_tracks_table(self, golden_rows):
        for row in golden_rows:
            assert row.k == (3 if row.table == 1 else 2)

    def test_exactly_two_annotated_typo_rows(self, golden_rows):
        noted = [(str(r.target), r.note) for r in golden_rows if r.note]
        assert noted == [
            ("11+10i", "label-typo:x-for-z"),
            ("48+48i", "label-typo:p-for-q"),
        ]

    def test_targets_live_in_octant_with_table_parity(self, golden_rows):
        for row in golden_rows:
            assert in_region(row.target, Region.OCTANT)
            want = Parity.ODD if row.table == 1 else Parity.EVEN
            assert parity(row.target) is want


class TestSpotRows:
    def brow(self, golden_rows, target):
        return next(r for r in golden_rows if str(r.target) == target)

    def test_plain_pair(self, golden_rows):
        row = self.brow(golden_rows, "36+2i")
        assert [str(s) for s in row.summands()] == ["26+i", "10+i"]
        assert row.form == "p+q"

    def test_unit_rotated_triple(self, golden_rows):
        row = self.brow(golden_rows, "11+10i")
        assert [(str(g), u.label) for g, u in row.terms] == [
            ("8+3i", "1"), ("2+i", "1"), ("6-i", "i"),
        ]
        assert [str(s) for s in row.summands()] == ["8+3i", "2+i", "1+6i"]

    def test_unit_rotated_pair(self, golden_rows):
        row = self.brow(golden_rows, "48+48i")
        assert [(str(g), u.label) for g, u in row.terms] == [
            ("46+41i", "1"), ("7-2i", "i"),
        ]
        assert [str(s) for s in row.summands()] == ["46+41i", "2+7i"]


class TestValidation:
    def test_all_rows_pass(self, golden_rows):
        report = validate_golden(golden_rows)
        assert report.ok
        assert report.total == 102
        assert report.failures == ()

    def test_each_row_verifies_independently(self, golden_rows):
        for row in golden_rows:
            dec = row.to_decomposition()
            verify_decomposition(dec)
            assert all(s.norm() < row.target.norm() for s in row.summands())

    def test_tampered_sum_is_reported(self, golden_rows):
        row = golden_rows[0]
        bad = GoldenRow(row.table, row.target + GaussianInt(2, 0), row.terms, row.form, row.note)
        report = validate_golden((bad,) + golden_rows[1:])
        assert not report.ok
        assert len(report.failures) == 1
        index, reason = report.failures[0]
        assert index == 0
        assert "sum" in reason or "parity" in reason

    def test_tampered_table_is_reported(self, golden_rows):
        row = golden_rows[0]
        bad = GoldenRow(2, row.target, row.terms, row.form, row.note)
        report = validate_golden((bad,))
        assert not report.ok
        assert "parity" in report.failures[0][1] or "terms" in report.failures[0][1]

    def test_json_dict(self, golden_rows):
        data = validate_golden(golden_rows).to_json_dict()
        assert data == {"total": 102, "ok": True, "failures": []}


class TestRegeneration:
    def test_every_target_still_decomposes(self, golden_rows):
        report = regenerate_tables(golden_rows)
        assert report.ok
        assert report.total == 102
        assert report.failures == ()

    def test_fresh_witnesses_stay_inside_the_contract(self, golden_rows):
        report = regenerate_tables(golden_rows)
        for row, dec in report.results:
            assert dec is not None
            assert dec.k <= row.k
            assert dec.target == row.target

    def test_stored_witnesses_are_not_always_canonical(self, golden_rows):
        # the tables keep their published witnesses; only six coincide
        # with the canonical search output
        report = regenerate_tables(golden_rows)
        assert report.matches == 6
        matching = [
            str(row.target)
            for row, dec in report.results
            if dec is not None and dec.summands() == row.summands()
        ]
        assert matching == ["10", "51+25i", "51+31i", "6+6i", "19+19i", "50+50i"]

    def test_json_dict_shape(self, golden_rows):
        data = regenerate_tables(golden_rows[:2]).to_json_dict()
        assert data["total"] == 2
        assert data["ok"] is True
        assert set(data["rows"][0]) == {"target", "stored", "regenerated"}
