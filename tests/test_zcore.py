import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import REGION_PREDICATES, associates, congruent_mod_one_plus_i
from shnirel.diophantine import SolutionMatrix, SystemKind
from shnirel.zcore import (
    COMPONENT_BOUND,
    GaussianInt,
    Parity,
    Record,
    Region,
    Unit,
    in_region,
    parity,
    sector_form,
)

small = st.integers(min_value=-(10**4), max_value=10**4)
nonzero = st.tuples(small, small).filter(lambda t: t != (0, 0))


def gi(t):
    return GaussianInt(t[0], t[1])


class TestArithmetic:
    def test_sum_difference_negation(self):
        a, b = GaussianInt(5, -2), GaussianInt(-1, 4)
        assert a + b == GaussianInt(4, 2)
        assert a - b == GaussianInt(6, -6)
        assert -a == GaussianInt(-5, 2)

    def test_component_bound_enforced(self):
        with pytest.raises(OverflowError):
            GaussianInt(COMPONENT_BOUND, 0)
        with pytest.raises(OverflowError):
            GaussianInt(0, -COMPONENT_BOUND - 1)

    def test_str_forms(self):
        cases = {
            (3, 2): "3+2i",
            (2, -1): "2-i",
            (7, 0): "7",
            (0, 3): "3i",
            (0, -3): "-3i",
            (-2, 1): "-2+i",
            (-1, 0): "-1",
            (0, 0): "0",
        }
        for (re, im), text in cases.items():
            assert str(GaussianInt(re, im)) == text


class TestUnits:
    def test_apply_matches_complex_product(self):
        z = GaussianInt(3, 2)
        assert Unit.ONE.apply(z) == z
        assert Unit.I.apply(z) == GaussianInt(-2, 3)
        assert Unit.MINUS_ONE.apply(z) == GaussianInt(-3, -2)
        assert Unit.MINUS_I.apply(z) == GaussianInt(2, -3)

    def test_label_roundtrip(self):
        for u in Unit:
            assert Unit.from_label(u.label) is u
        with pytest.raises(ValueError):
            Unit.from_label("2i")


class TestParity:
    @given(st.tuples(small, small), st.integers(min_value=0, max_value=12))
    def test_congruence_tracks_component_sum(self, s, k):
        z = gi(s)
        assert congruent_mod_one_plus_i(z, k) == ((z.re + z.im) % 2 == k % 2)
        assert congruent_mod_one_plus_i(z, k) == (parity(z) is (Parity.ODD if k % 2 else Parity.EVEN))

    def test_parity_values(self):
        assert parity(GaussianInt(2, 1)) is Parity.ODD
        assert parity(GaussianInt(1, 1)) is Parity.EVEN
        assert parity(GaussianInt(3, 0)) is Parity.ODD
        assert parity(GaussianInt(2, 0)) is Parity.EVEN

    @given(st.lists(st.tuples(small, small), min_size=1, max_size=6))
    def test_sum_of_odds_lands_in_count_class(self, parts):
        # 2*re + 1 - im + im is odd, so every term is odd by construction
        terms = [GaussianInt(2 * re + 1 - im, im) for re, im in parts]
        total = GaussianInt(0, 0)
        for t in terms:
            total = total + t
        assert congruent_mod_one_plus_i(total, len(terms))


class TestRegions:
    def test_membership_matrix(self):
        cases = [
            (Region.SECTOR, (1, 1), True),
            (Region.SECTOR, (1, -1), False),
            (Region.SECTOR, (2, -1), True),
            (Region.SECTOR, (0, 1), False),
            (Region.PRIME_SECTOR, (3, 3), True),
            (Region.PRIME_SECTOR, (3, -3), False),
            (Region.QUADRANT, (1, 0), True),
            (Region.QUADRANT, (0, 1), False),
            (Region.OPEN_QUADRANT, (1, 1), True),
            (Region.OPEN_QUADRANT, (1, 0), False),
            (Region.OCTANT, (3, 3), True),
            (Region.OCTANT, (3, 4), False),
            (Region.OCTANT, (3, 0), True),
            (Region.PRIME_QUADRANT, (0, 2), True),
            (Region.PRIME_QUADRANT, (2, 0), True),
            (Region.PRIME_QUADRANT, (-1, 2), False),
            (Region.PRIME_HALF, (0, 1), True),
            (Region.PRIME_HALF, (0, -1), False),
            (Region.PRIME_HALF, (2, -1), True),
            (Region.PRIME_HALF, (2, -2), False),
        ]
        for region, (re, im), expected in cases:
            assert in_region(GaussianInt(re, im), region) is expected, (region, re, im)

    @pytest.mark.parametrize("region", list(Region))
    def test_cone_matches_docstring_predicate(self, region):
        member = REGION_PREDICATES[region.value]
        for re in range(-30, 31):
            for im in range(-30, 31):
                assert in_region(GaussianInt(re, im), region) is member(re, im), (re, im)

    def test_cli_names(self):
        assert Region("gammapi") is Region.PRIME_SECTOR
        assert Region("kpi") is Region.PRIME_QUADRANT
        assert Region("spi") is Region.PRIME_HALF
        assert Region("a") is Region.OPEN_QUADRANT


class TestAssociates:
    @given(nonzero)
    def test_exactly_one_in_sector(self, s):
        inside = [r for r in associates(*s) if REGION_PREDICATES["sector"](*r)]
        assert len(inside) == 1
        assert GaussianInt(*inside[0]) == sector_form(gi(s))[0]

    @given(nonzero)
    def test_sector_form_roundtrip(self, s):
        z = gi(s)
        g, u = sector_form(z)
        assert in_region(g, Region.SECTOR)
        assert u.apply(g) == z

    def test_known_form(self):
        g, u = sector_form(GaussianInt(1, 2))
        assert (g, u) == (GaussianInt(2, -1), Unit.I)


def test_key_orders_by_norm_then_components():
    zs = [GaussianInt(re, im) for re in range(-3, 4) for im in range(-3, 4)]
    ordered = sorted(zs, key=GaussianInt.key)
    norms = [z.norm() for z in ordered]
    assert norms == sorted(norms)
    for a, b in zip(ordered, ordered[1:]):
        assert (a.norm(), a.re, a.im) <= (b.norm(), b.re, b.im)


class Pair(Record):
    a: int
    b: int


class OtherPair(Record):
    a: int
    b: int


class Triple(Pair):
    c: int = 0


class TestRecord:
    def test_fields_follow_the_annotations_after_the_bases(self):
        assert Pair._fields == ("a", "b")
        assert Triple._fields == ("a", "b", "c")
        assert GaussianInt._fields == ("re", "im")

    def test_positional_keyword_and_default_construction(self):
        assert Pair(1, 2) == Pair(b=2, a=1) == Pair(1, b=2)
        assert Triple(1, 2) == Triple(1, 2, 0) == Triple(a=1, b=2, c=0)
        assert Triple(1, 2, 3).c == 3
        m = SolutionMatrix(SystemKind.FOUR_COLUMNS, targets=(5,), row_a=(2,), row_b=(3,))
        assert m.case is None
        assert GaussianInt(re=3, im=-4) == GaussianInt(3, -4)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"d": 4}), ((1, 2), {"a": 1})],
    )
    def test_bad_field_lists_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    @pytest.mark.parametrize("record", [Pair(1, 2), GaussianInt(1, 2)])
    def test_frozen(self, record):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == 1

    def test_equal_only_to_its_own_class(self):
        assert Pair(1, 2) == Pair(1, 2)
        assert Pair(1, 2) != Pair(2, 1)
        assert Pair(1, 2) != OtherPair(1, 2)
        assert Pair(1, 2) != (1, 2)
        assert Triple(1, 2, 0) != Pair(1, 2)
        assert GaussianInt(1, 2) != (1, 2)
        assert GaussianInt(1, 2) != Pair(1, 2)

    def test_hash_is_the_field_tuples(self):
        assert hash(Pair(1, 2)) == hash(Pair(1, 2)) == hash((1, 2))
        assert hash(GaussianInt(-3, 7)) == hash((-3, 7))
        assert len({GaussianInt(1, 2), GaussianInt(1, 2), GaussianInt(2, 1)}) == 2
        assert {Pair(1, 2): "x"}[Pair(1, 2)] == "x"

    def test_repr(self):
        assert repr(GaussianInt(1, -2)) == "GaussianInt(re=1, im=-2)"
        assert repr(Triple(1, "b")) == "Triple(a=1, b='b', c=0)"

    def test_gaussian_int_runs_post_init_once(self, monkeypatch):
        calls = []
        check = GaussianInt.__post_init__

        def counting(self):
            calls.append((self.re, self.im))
            check(self)

        monkeypatch.setattr(GaussianInt, "__post_init__", counting)
        GaussianInt(4, 5)
        assert calls == [(4, 5)]
        with pytest.raises(OverflowError):
            GaussianInt(COMPONENT_BOUND, 0)
