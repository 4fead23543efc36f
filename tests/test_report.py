"""Report.write against its oracles, for every report type and format.

JSON must be the bytes json.dumps(to_json_dict(), sort_keys=True,
indent=2) gives, plus a newline, whether the type writes it from the
dict or, like ScanReport, from a template. md and csv must be the
type's md_lines() and csv_lines() joined, every line ending in a
newline.
"""

import io
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import trial_prime
from shnirel.cli import RoutedDecomposition, SieveReport
from shnirel.diophantine import solve_four_columns, solve_min_columns, solve_square_columns
from shnirel.gaussdecomp import (
    NormPolicy,
    ScanReport,
    find_decomposition,
    four_term_decompose,
    obstruction_line_report,
    scan_box,
    scan_targets,
    verify_diagonal_obstruction,
)
from shnirel.golden import load_golden, regenerate_tables, validate_golden
from shnirel.ratdecomp import HypothesisReports, hypothesis_scans, residue34_chain
from shnirel.report import _json_chunks
from shnirel.zcore import GaussianInt, Region

A, SECTOR = Region.OPEN_QUADRANT, Region.SECTOR
GPI, KPI, SPI = Region.PRIME_SECTOR, Region.PRIME_QUADRANT, Region.PRIME_HALF
NONE, STRICT = NormPolicy.NONE, NormPolicy.STRICT_LESS


def _hand_built_counts() -> ScanReport:
    """term_counts keys 2 and 10, so "10" sorts before "2"; equal
    witness terms that are distinct objects; a description that needs
    escaping."""
    norm = 5  # a name, not a constant, so each of the ten equal terms is a new tuple
    ten = tuple((2, 1, norm) for _ in range(10))
    return ScanReport(
        KPI, 'hand "built" é\\', 10, STRICT,
        (
            (13, 3, 2, 2, ((2, 1, 5), (1, 1, 2))),
            (500, 20, 10, 10, ten),
            (2, 1, 1, None, None),
        ),
    )


SCANS = {
    # EMPTY rows (k None) next to found ones
    "kpi_with_exceptions": lambda: scan_box(A, (1, 6), (1, 6), KPI, 3, NONE),
    # terms from the sector-prime pool
    "gpi_box": lambda: scan_box(A, (1, 6), (1, 6), GPI, 3, NONE),
    # negative im, both policies
    "spi_sector": lambda: scan_box(SECTOR, (1, 10), (-9, 10), SPI, 3, NONE),
    "spi_sector_strict": lambda: scan_box(SECTOR, (1, 10), (-9, 10), SPI, 3, STRICT),
    # one-term rows: the targets on these lines that are prime
    "prime_lines": lambda: obstruction_line_report(20),
    "no_exceptions": lambda: scan_box(A, (1, 8), (1, 8), KPI, 3, NONE, min_max_component=7),
    "no_rows": lambda: ScanReport(GPI, "empty", 3, NONE, ()),
    "counts_2_and_10": _hand_built_counts,
}


def _primes(limit, mod4=None):
    return tuple(p for p in range(limit + 1) if trial_prime(p) and mod4 in (None, p % 4))


OTHERS = {
    "decomposition": lambda: find_decomposition(GaussianInt(19, 16), GPI, 3),
    "decomposition_kpi_uncapped": lambda: find_decomposition(GaussianInt(13, 4), KPI, 3, NONE),
    "routed_decomposition": lambda: RoutedDecomposition(
        *four_term_decompose(GaussianInt(19, 17), KPI)
    ),
    "obstruction": lambda: verify_diagonal_obstruction(20, 3),
    "matrix_four": lambda: solve_four_columns(11, 3),
    "matrix_min": lambda: solve_min_columns(9, 5),
    "matrix_square": lambda: solve_square_columns(7, 4, 3),
    "hypothesis": lambda: hypothesis_scans([1], 1, 300)[0],
    "hypotheses": lambda: HypothesisReports(tuple(hypothesis_scans([1, 4], 1, 300))),
    "chain": lambda: residue34_chain(30),
    "golden_validation": lambda: validate_golden(load_golden()[:4]),
    "golden_regen": lambda: regenerate_tables(load_golden()[:4]),
    "sieve_summary": lambda: SieveReport(100, _primes(100), None, None, False),
    "sieve_listing": lambda: SieveReport(100, _primes(100, 3), None, 3, True),
    "sieve_empty_class": lambda: SieveReport(2, (), "cache.bin", 1, False),
    # a payload string that takes json's escaper: non-ASCII, quote, backslash
    "sieve_escaped_cache": lambda: SieveReport(10, _primes(10), 'caché "x"\\', None, False),
}
REPORTS = {**SCANS, **OTHERS}


def _written(report, fmt: str) -> str:
    buf = io.StringIO()
    report.write(buf, fmt)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_json_is_the_dict_dumped(name):
    report = REPORTS[name]()
    want = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert _written(report, "json") == want


@pytest.mark.parametrize("fmt", ["md", "csv"])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_md_and_csv_are_the_lines_joined(name, fmt):
    report = REPORTS[name]()
    lines = list(getattr(report, f"{fmt}_lines")())
    assert lines and all(line.endswith("\n") for line in lines)
    assert _written(report, fmt) == "".join(lines)


def test_cases_cover_what_they_name():
    reports = {name: build() for name, build in SCANS.items()}
    assert any(k is None for _, k, _ in reports["kpi_with_exceptions"].rows)
    assert reports["gpi_box"].term_region is GPI
    assert any(z.im < 0 for z, _, _ in reports["spi_sector"].rows)
    assert 1 in {k for _, k, _ in reports["prime_lines"].rows}
    assert reports["no_exceptions"].exceptions == ()
    assert reports["counts_2_and_10"].term_counts == {2: 1, 10: 1}
    ten = reports["counts_2_and_10"].int_rows[1][4]
    assert len(set(ten)) == 1 and len(set(map(id, ten))) == 10
    assert list(reports["counts_2_and_10"].to_json_dict()["term_counts"]) == ["2", "10"]


def _scan_csv(report: ScanReport) -> str:
    """The CSV of a scan, written from its rows alone."""
    lines = ["z,norm,k,witness\n"]
    for z, k, wit in report.rows:
        cell = "EMPTY" if wit is None else "+".join(f"({s})" for s in wit)
        lines.append(f"{z},{z.norm()},{'' if k is None else k},{cell}\n")
    return "".join(lines)


def _scan_md(report: ScanReport) -> str:
    """The md of a scan, written from its fields and rows alone."""
    rows = report.rows
    lines = [
        f"targets {report.target_desc}, primes {report.term_region.value}, "
        f"max terms {report.max_terms}, policy {report.policy.value}: {len(rows)} "
        f"targets, {sum(k is None for _, k, _ in rows)} unrepresentable\n",
        "\n| z | norm | k | witness |\n|---|---|---|---|\n",
    ]
    for z, k, wit in rows:
        cell = "EMPTY" if wit is None else " + ".join(f"({s})" for s in wit)
        lines.append(f"| {z} | {z.norm()} | {'' if k is None else k} | {cell} |\n")
    return "".join(lines)


def _swept_scans():
    """Seeded scans: a box for each of the 7 x 7 region pairs under both
    policies, max_terms 1 to 5, some under a min_max_component floor; an
    unsorted explicit list with repeats for each term region; a far box
    the cost gate sends to the search; a strict spi box whose chased
    witnesses often reach the target's norm; kpi's real axis, where every
    sum keeps im = 0 and k reaches 5 (15 = 3 + 3 + 3 + 3 + 3, whose level 4
    residual 12 is a level 4 target itself); a grid around the origin,
    whose targets reach every branch of the target's text; and a gammapi
    box of mostly exceptions, its targets with im > re outside the cone."""
    rng = random.Random("scan writers")
    for term_region in Region:
        for target_region in Region:
            for policy in (NONE, STRICT):
                re0, im0 = rng.randint(-6, 6), rng.randint(-12, 6)
                box = ((re0, re0 + rng.randint(0, 16)), (im0, im0 + rng.randint(0, 16)))
                floor = rng.choice([0, 0, 5])
                yield scan_box(target_region, *box, term_region, rng.randint(1, 5), policy, floor)
        targets = [GaussianInt(rng.randint(-8, 24), rng.randint(-8, 24)) for _ in range(40)]
        targets = [z for z in targets if not z.is_zero()]
        targets += rng.sample(targets, 6)
        rng.shuffle(targets)
        yield scan_targets(targets, term_region, rng.randint(1, 5), rng.choice([NONE, STRICT]))
    for policy in (NONE, STRICT):
        yield scan_box(A, (300, 303), (1, 2), GPI, 3, policy)
        yield scan_box(Region.QUADRANT, (1, 40), (0, 2), KPI, 5, policy)
    yield scan_box(SECTOR, (1, 24), (-23, 24), SPI, 3, STRICT)  # many searches
    grid = [GaussianInt(re, im) for re in range(-5, 6) for im in range(-5, 6) if re or im]
    for term_region in (GPI, KPI, SPI):
        for policy in (NONE, STRICT):
            yield scan_targets(grid, term_region, 3, policy)
    yield scan_box(A, (1, 30), (1, 60), GPI, 3, NONE)


def _text_branch(re: int, im: int) -> str:
    """Which case of a target's text re + im*i takes."""
    if not re:
        return "re = 0"
    return f"im = {im}" if -1 <= im <= 1 else "im >= 2" if im > 1 else "im <= -2"


def test_every_format_is_its_oracle_in_a_seeded_sweep():
    """Each report, written in md, csv and json and then in all three
    again, gives the bytes of writers built here from its rows and from
    to_json_dict, every time. Rows with and without a witness reach every
    case of the target's text."""
    seen, chased, searched, branches = set(), 0, 0, set()
    for report in _swept_scans():
        want = {
            "md": _scan_md(report),
            "csv": _scan_csv(report),
            "json": json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
        }
        for fmt in ("md", "csv", "json") * 2:
            assert _written(report, fmt) == want[fmt], (report.target_desc, fmt)
        seen |= set(report.term_counts)
        chased += sum(w.__class__ is int for *_, w in report.int_rows)
        searched += sum(k is not None and k > 1 and w.__class__ is tuple for *_, k, w in report.int_rows)
        branches |= {(k is None, _text_branch(re, im)) for _, re, im, k, _ in report.int_rows}
    assert seen == {1, 2, 3, 4, 5}
    assert chased > 1000 and searched > 50
    cases = {"re = 0", "im = -1", "im = 0", "im = 1", "im >= 2", "im <= -2"}
    assert branches == {(gone, case) for gone in (True, False) for case in cases}


def test_scan_json_is_yielded_row_by_row():
    report = SCANS["kpi_with_exceptions"]()
    assert len(list(report.json_lines())) == len(report.rows) + 2


def test_default_json_is_streamed_in_chunks():
    """A large report is written in pieces, never held as one string."""
    report = OTHERS["sieve_listing"]()
    assert len(list(report.json_lines())) > len(report.primes)


# text from every plane, with the characters JSON escapes weighted in
TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\n\t é\u2028\U0001f600'),
    )
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=-(10**20)),
    TEXT,
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@given(PAYLOADS)
def test_writer_is_json_dumps(payload):
    assert "".join(_json_chunks(payload, "\n")) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [1.5, [0, {"a": 2.0}], {1: "one"}, {"a": {("t",): 1}}, {3}])
def test_writer_refuses_what_reports_never_hold(payload):
    """Floats, sets and dict keys that are no str raise TypeError, where
    json.dumps would write or convert some of them."""
    with pytest.raises(TypeError):
        "".join(_json_chunks(payload, "\n"))
