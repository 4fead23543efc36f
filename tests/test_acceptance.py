"""End-to-end release gates.

Ten checks, each exercising one full workflow and printing a single
pass/fail line with the measured runtime against a pinned budget.
Run with `pytest tests/test_acceptance.py -v` (add -s for the lines).
"""

import json
import time
from math import isqrt

from shnirel import (
    GaussianInt,
    NormPolicy,
    Region,
    SystemKind,
    hypothesis_scans,
    is_gaussian_prime,
    load_golden,
    obstruction_line_report,
    regenerate_tables,
    residue34_chain,
    scan_box,
    sector_gap_stats,
    solve_four_columns,
    validate_golden,
    verify_diagonal_obstruction,
)
from shnirel.cli import entry
from shnirel.ratdecomp import CHAIN_THRESHOLD

from oracles import brute_force_matrices, gaussian_prime_by_division, trial_prime


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    within = elapsed < budget
    status = "PASSED" if ok and within else "FAILED"
    print(
        f"criterion {num:2d}: {status} ({detail}; "
        f"{elapsed:.2f}s, budget {budget:g}s)"
    )
    assert ok, f"criterion {num}: {detail}"
    assert within, f"criterion {num}: {elapsed:.2f}s exceeds {budget:g}s"


def test_criterion_01_golden_validation():
    t0 = time.perf_counter()
    rows = load_golden()
    report = validate_golden(rows)
    elapsed = time.perf_counter() - t0
    annotated = [row for row in rows if row.note]
    ok = report.ok and report.total == 102 and len(annotated) == 2
    _report(
        1,
        ok,
        elapsed,
        1.0,
        f"{report.total} rows, {len(report.failures)} failures, "
        f"{len(annotated)} annotated typos",
    )


def test_criterion_02_golden_regeneration():
    t0 = time.perf_counter()
    report = regenerate_tables(load_golden())
    elapsed = time.perf_counter() - t0
    ok = report.ok and report.total == 102
    _report(
        2,
        ok,
        elapsed,
        10.0,
        f"{report.total - len(report.failures)}/{report.total} targets "
        f"regenerated under the stored constraints",
    )


def _recheck_four_columns(mat, a: int, b: int) -> bool:
    if mat.kind is not SystemKind.FOUR_COLUMNS or len(mat.targets) != 4:
        return False
    if sum(mat.row_a) != a or sum(mat.row_b) != b:
        return False
    for t, x, y in zip(mat.targets, mat.row_a, mat.row_b):
        if x < 0 or y < 0 or x + y != t:
            return False
        if t % 2 == 0 or not trial_prime(t):
            return False
    return True


def test_criterion_03_four_column_solver():
    t0 = time.perf_counter()
    solved = 0
    contained = 0
    containment_pool = 0
    cases = set()
    bad = []
    for a in range(11, 121):
        first = 1 if a % 2 else 2
        for b in range(first, a + 1, 2):
            mat = solve_four_columns(a, b)
            mat.validate()
            if not _recheck_four_columns(mat, a, b):
                bad.append((a, b))
                continue
            solved += 1
            cases.add(mat.case)
            if a + b <= 60:
                containment_pool += 1
                want = mat.columns()
                if any(
                    found.columns() == want
                    for found in brute_force_matrices(
                        a, b, SystemKind.FOUR_COLUMNS
                    )
                ):
                    contained += 1
    elapsed = time.perf_counter() - t0
    ok = (
        not bad
        and solved == 3630
        and cases == {1, 2, 3, 4}
        and contained == containment_pool == 435
    )
    _report(
        3,
        ok,
        elapsed,
        30.0,
        f"{solved} instances re-validated, cases hit {sorted(cases)}, "
        f"{contained}/{containment_pool} small witnesses found by brute force",
    )


def test_criterion_04_open_quadrant_scan():
    t0 = time.perf_counter()
    report = scan_box(
        Region.OPEN_QUADRANT,
        (1, 50),
        (1, 50),
        Region.PRIME_QUADRANT,
        3,
        NormPolicy.NONE,
        min_max_component=7,
    )
    elapsed = time.perf_counter() - t0
    exceptions = report.exceptions
    detail = f"{len(report.rows)} targets, {len(exceptions)} exceptions"
    if exceptions:
        detail += ": " + ", ".join(str(z) for z in exceptions)
    ok = len(report.rows) == 2464 and not exceptions
    _report(4, ok, elapsed, 60.0, detail)


def test_criterion_05_sector_strict_scan():
    # The sector reaches below the real axis, but a target down there with
    # re + im = 1 (6-5i, say) can never split under the strict norm policy:
    # the single term would be the target itself, two odd terms give an even
    # component sum, and three odd half-region primes force a component sum
    # of at least 3. The scan covers the im >= 0 slice, where the claim is
    # falsifiable; the blocked diagonal is pinned in test_gaussdecomp.
    t0 = time.perf_counter()
    report = scan_box(
        Region.SECTOR,
        (1, 50),
        (0, 50),
        Region.PRIME_HALF,
        3,
        NormPolicy.STRICT_LESS,
        min_max_component=6,
    )
    elapsed = time.perf_counter() - t0
    exceptions = report.exceptions
    detail = f"{len(report.rows)} targets, {len(exceptions)} exceptions"
    if exceptions:
        detail += ": " + ", ".join(str(z) for z in exceptions)
    ok = len(report.rows) == 1305 and not exceptions
    _report(5, ok, elapsed, 60.0, detail)


def test_criterion_06_diagonal_obstruction():
    t0 = time.perf_counter()
    count, min_gap = sector_gap_stats(10**6 + 1)
    sums = verify_diagonal_obstruction(50, 6)
    line = obstruction_line_report(50)
    elapsed = time.perf_counter() - t0
    multi = [(str(z), k) for z, k, _ in line.rows if k is not None and k > 1]
    ok = (
        count == 78437
        and min_gap >= 1
        and sums.holds
        and all(gap >= k for k, _, gap in sums.levels)
        and not multi
    )
    _report(
        6,
        ok,
        elapsed,
        30.0,
        f"{count} odd sector primes to 10^6 keep re - im >= {min_gap}; "
        f"sum enumeration to 50 holds through {sums.max_terms} terms; "
        f"{len(line.rows)} diagonal targets, {len(multi)} multi-term",
    )


def test_criterion_07_residue_class_hypotheses():
    expected = {
        1: ((2,), 6),
        2: ((1, 5), 9),
        3: ((4, 8), 12),
        4: ((3, 7, 11), 15),
    }
    details = []
    ok = True
    total = 0.0
    for index, (exceptions, c0) in expected.items():
        t0 = time.perf_counter()
        base = hypothesis_scans([index], 1, 10**5)[0]
        doubled = hypothesis_scans([index], 1, 2 * 10**5)[0]
        elapsed = time.perf_counter() - t0
        total += elapsed
        good = (
            base.exceptions == exceptions
            and doubled.exceptions == exceptions
            and base.max_exception == doubled.max_exception
            and base.c0_candidate == c0
            and elapsed < 60.0
        )
        ok = ok and good
        details.append(f"h{index} c0={base.c0_candidate} {elapsed:.2f}s")
    _report(7, ok, total, 240.0, "stable exceptions, " + ", ".join(details))


def test_criterion_08_residue_chain():
    t0 = time.perf_counter()
    c0 = hypothesis_scans([2], 1, 10**3)[0].c0_candidate
    start = c0 + 9
    assert start == CHAIN_THRESHOLD
    worst = 0
    bad = []
    for n in range(start, 10**4 + 1):
        result = residue34_chain(n)
        terms = result.terms
        worst = max(worst, result.m)
        good = (
            sum(terms) == n
            and result.m == len(terms)
            and 2 <= result.m <= 6
            and all(t % 4 == 3 and trial_prime(t) for t in terms)
        )
        if not good:
            bad.append(n)
    elapsed = time.perf_counter() - t0
    ok = not bad and worst <= 6
    _report(
        8,
        ok,
        elapsed,
        10.0,
        f"chains for n in [{start}, 10^4], worst m = {worst}, "
        f"{len(bad)} failures",
    )


def test_criterion_09_gaussian_primality_equivalence():
    t0 = time.perf_counter()
    limit = 10**4
    radius = isqrt(limit)
    cache: dict[tuple[int, int], bool] = {}
    points = 0
    disagreements = []
    for re in range(-radius, radius + 1):
        for im in range(-radius, radius + 1):
            if re * re + im * im > limit:
                continue
            points += 1
            key = (max(abs(re), abs(im)), min(abs(re), abs(im)))
            want = cache.get(key)
            if want is None:
                want = cache[key] = gaussian_prime_by_division(*key)
            if is_gaussian_prime(GaussianInt(re, im)) != want:
                disagreements.append((re, im))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and points > 31000
    _report(
        9,
        ok,
        elapsed,
        10.0,
        f"{points} lattice points with norm <= 10^4, "
        f"{len(disagreements)} disagreements with divisor search",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()

    # Golden validation, regeneration, and the solver sweep have no
    # parallelism knob; rerunning them from scratch must reproduce the
    # rendered reports byte for byte.
    renders = []
    for _ in range(2):
        rows = load_golden()
        renders.append(
            (
                json.dumps(validate_golden(rows).to_json_dict(), sort_keys=True),
                json.dumps(regenerate_tables(rows).to_json_dict(), sort_keys=True),
                json.dumps(
                    [
                        solve_four_columns(a, b).to_json_dict()
                        for a in range(11, 41)
                        for b in range(1 if a % 2 else 2, a + 1, 2)
                    ],
                    sort_keys=True,
                ),
            )
        )
    serial_stable = renders[0] == renders[1]

    # The scan command accepts --jobs and runs in one process at any
    # value; the reports must not move with it.
    scans_stable = True
    scan_specs = (
        ("a", "1..50", "1..50", "kpi", (), "7"),
        ("sector", "1..50", "0..50", "spi", ("--strict-norm",), "6"),
    )
    for targets, re_rng, im_rng, primes, strict, floor in scan_specs:
        outputs = []
        for jobs in ("1", "8"):
            rendered = []
            for fmt in ("csv", "json"):
                out = tmp_path / f"scan-{targets}-{jobs}.{fmt}"
                code = entry(
                    [
                        "scan", "--targets", targets, "--re", re_rng, "--im", im_rng,
                        "--primes", primes, "--max-terms", "3", *strict,
                        "--min-max-component", floor, "--jobs", jobs,
                        "--format", fmt, "--out", str(out),
                    ]
                )
                rendered.append((code, out.read_bytes()))
            outputs.append(rendered)
        scans_stable = scans_stable and outputs[0] == outputs[1]
    elapsed = time.perf_counter() - t0
    ok = serial_stable and scans_stable
    _report(
        10,
        ok,
        elapsed,
        120.0,
        f"serial reruns byte-identical: {serial_stable}; "
        f"scans at --jobs 1 vs 8 byte-identical: {scans_stable}",
    )
