"""The independent checker accepts right outputs and rejects wrong ones.

Outputs come from the real CLI on tiny inputs; the rejected ones are
real outputs with one fact tampered with, or a known-bad output recorded
from the library."""

import json

import pytest
from check import Sumsets, check, fmt, gaussian_prime, scan_pool
from workloads import Op, decompose_op, scan_op

# `decompose --z 28,6 --chain` as the library printed it when the
# benchmark was written: 3i is not in gammapi, whose points have re > 0.
CHAIN_28_6 = {
    "im": 6, "k": 4, "norm": 820, "parity": "ODD", "policy": "none", "re": 28,
    "region": "gammapi", "route": "shift-3i", "target": "28+6i",
    "terms": [
        {"im": 5, "norm": 601, "re": 24, "sector": "24+5i", "summand": "24+5i", "unit": "1"},
        {"im": 3, "norm": 9, "re": 0, "sector": "3", "summand": "3i", "unit": "i"},
        {"im": -1, "norm": 5, "re": 2, "sector": "2-i", "summand": "2-i", "unit": "1"},
        {"im": -1, "norm": 5, "re": 2, "sector": "2-i", "summand": "2-i", "unit": "1"},
    ],
}
CHAIN_OP = Op("decompose_chain", "decompose", {"z": (28, 6), "primes": "gammapi", "max_terms": 4,
                                                  "strict": False},
              ("decompose", "--z=28,6", "--chain", "--format", "json"))


def test_rejects_the_chain_output_with_3i_outside_gammapi():
    why = check(CHAIN_OP, 0, json.dumps(CHAIN_28_6).encode())
    assert why is not None and "3i" in why and "gammapi" in why


def test_accepts_a_valid_chain_output():
    good = json.loads(json.dumps(CHAIN_28_6))
    # 28+6i = (21+4i) + (3+2i) + (2-i) + (2+i), all odd and in gammapi
    good["terms"] = [
        {"im": b, "norm": a * a + b * b, "re": a, "sector": s, "summand": s, "unit": "1"}
        for a, b, s in ((21, 4, "21+4i"), (3, 2, "3+2i"), (2, -1, "2-i"), (2, 1, "2+i"))
    ]
    assert check(CHAIN_OP, 0, json.dumps(good).encode()) is None


SCAN_JSON = scan_op("scan", "a", (1, 14), (1, 14), "kpi", "json")
SCAN_CSV = scan_op("scan", "sector", (1, 14), (-13, 14), "spi", "csv", strict=True)


def test_scan_json_accepted_then_rejected_when_a_witness_is_tampered(run_cli):
    rc, data = run_cli(SCAN_JSON.argv)
    assert check(SCAN_JSON, rc, data) is None
    doc = json.loads(data)
    row = next(r for r in doc["rows"] if r["witness"] and len(r["witness"]) == 2)
    row["witness"][0] = "1+2i" if row["witness"][0] != "1+2i" else "2+i"
    assert "add up" in check(SCAN_JSON, rc, json.dumps(doc).encode())


def recount(doc: dict) -> None:
    """Make a scan document's summary fields agree with its rows again."""
    doc["exceptions"] = [r["z"] for r in doc["rows"] if r["k"] is None]
    doc["term_counts"] = {}
    for r in doc["rows"]:
        if r["k"] is not None:
            doc["term_counts"][str(r["k"])] = doc["term_counts"].get(str(r["k"]), 0) + 1


def test_scan_rejects_a_false_exception_of_the_largest_norm(run_cli):
    op = scan_op("scan", "a", (1, 30), (1, 30), "gammapi", "json")
    rc, data = run_cli(op.argv)
    assert check(op, rc, data) is None
    doc = json.loads(data)
    row = max((r for r in doc["rows"] if r["witness"]), key=lambda r: r["norm"])
    assert row["norm"] > 1700
    row["k"], row["witness"] = None, None
    recount(doc)
    assert "representable" in check(op, 1, json.dumps(doc).encode())


def test_scan_csv_rejects_a_witness_that_only_adds_up(run_cli):
    rc, data = run_cli(SCAN_CSV.argv)
    assert check(SCAN_CSV, rc, data) is None
    lines = data.decode().splitlines()
    # z + 0 adds up to z, but neither summand is an odd prime below the norm of z
    i = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(")") and "+(" in line)
    z = lines[i].split(",")[0]
    lines[i] = lines[i].rsplit(",", 1)[0] + f",({z})+(0)"
    assert check(SCAN_CSV, rc, ("\n".join(lines) + "\n").encode()) is not None


def test_scan_csv_rejects_a_false_strict_exception(run_cli):
    rc, data = run_cli(SCAN_CSV.argv)
    lines = data.decode().splitlines()
    i = max(i for i, line in enumerate(lines[1:], 1) if line.endswith(")"))
    z, norm = lines[i].split(",")[:2]
    lines[i] = f"{z},{norm},,EMPTY"
    assert "representable" in check(SCAN_CSV, 1, ("\n".join(lines) + "\n").encode())


def test_wrong_exit_code_is_rejected(run_cli):
    rc, data = run_cli(SCAN_JSON.argv)
    assert rc == 1  # the tiny box has exceptions near the origin
    assert "exit code" in check(SCAN_JSON, 0, data)


@pytest.mark.parametrize("op", [
    decompose_op("d", 40, 18, "gammapi"),
    decompose_op("d", 31, 20, "kpi"),
    decompose_op("d", 25, -10, "spi"),
    Op("c", "conj1", {"a": 52, "b": 41, "kmax": 6}, ("solve-conj1", "--a", "52", "--b", "41", "--format", "json")),
    Op("t1", "thm1", {"a": 500, "b": 100}, ("solve-thm1", "--a", "500", "--b", "100", "--format", "json")),
    Op("t2", "thm2", {"a": 701, "b": 2, "kmax": 8}, ("solve-thm2", "--a", "701", "--b", "2", "--format", "json")),
    Op("t130", "thm130", {"n": 1003}, ("thm130", "--n", "1003", "--format", "json")),
    Op("h", "hypotheses", {"upper": 300}, ("hypotheses", "--upper", "300", "--format", "csv")),
    Op("o", "obstruction", {"bound": 16, "max_terms": 6}, ("obstruction", "--bound", "16", "--format", "json")),
    Op("tv", "tables_validate", {}, ("tables", "--validate", "--format", "json")),
    Op("tr", "tables_regenerate", {}, ("tables", "--regenerate", "--format", "json")),
], ids=lambda op: " ".join(op.argv[:1] + op.argv[1:4]))
def test_accepts_library_output(run_cli, op):
    rc, data = run_cli(op.argv)
    assert check(op, rc, data) is None


def test_hypotheses_rejects_a_tampered_witness(run_cli):
    op = Op("h", "hypotheses", {"upper": 300}, ("hypotheses", "--upper", "300", "--format", "csv"))
    rc, data = run_cli(op.argv)
    text = data.decode().replace("\n14,2,2,11+3\n", "\n14,2,2,13+1\n")
    assert "14,2,2,13+1" in text
    assert "bad witness" in check(op, rc, text.encode())


def test_obstruction_rejects_a_gap_below_k(run_cli):
    op = Op("o", "obstruction", {"bound": 16, "max_terms": 6}, ("obstruction", "--bound", "16", "--format", "json"))
    rc, data = run_cli(op.argv)
    doc = json.loads(data)
    doc["levels"][2]["min_gap"] = 2
    assert "min gap" in check(op, rc, json.dumps(doc).encode())


def test_thm2_rejects_a_non_minimal_width():
    op = Op("t2", "thm2", {"a": 10, "b": 2, "kmax": 8}, ())
    doc = {"kind": "thm2", "case": None, "a": 10, "b": 2, "k": 4,
           "columns": [{"target": 3, "x1": 3, "x2": 0}, {"target": 3, "x1": 3, "x2": 0},
                       {"target": 3, "x1": 3, "x2": 0}, {"target": 3, "x1": 1, "x2": 2}]}
    assert "fewest" in check(op, 0, json.dumps(doc).encode())


def test_unparsable_output_is_rejected():
    assert check(SCAN_JSON, 0, b"not json").startswith("malformed output")


def test_sumsets_match_brute_force_on_a_small_pool():
    pool = scan_pool("spi", 9, 20)
    sums = Sumsets(3, 9, 20)
    for p in pool:
        sums.add(*p)
    one = set(pool)
    two = {(a + c, b + d) for a, b in pool for c, d in pool}
    three = {(a + c, b + d) for a, b in two for c, d in pool}
    for r in range(10):
        for i in range(-25, 26):
            want = next((k for k, s in ((1, one), (2, two), (3, three)) if (r, i) in s), None)
            assert sums.fewest(r, i) == want, (r, i)


def test_scan_rejects_three_terms_where_one_suffices(run_cli):
    rc, data = run_cli(SCAN_JSON.argv)
    doc = json.loads(data)
    pool = scan_pool("kpi", 14, 29)
    members = set(pool)
    for row in doc["rows"]:
        if row["k"] != 1:
            continue
        z = (row["re"], row["im"])
        triple = next(((a, b, (z[0] - a[0] - b[0], z[1] - a[1] - b[1]))
                       for a in pool for b in pool
                       if (z[0] - a[0] - b[0], z[1] - a[1] - b[1]) in members), None)
        if triple:
            break
    assert triple and gaussian_prime(*z)
    row["k"], row["witness"] = 3, [fmt(*t) for t in triple]
    recount(doc)
    assert "1 terms suffice" in check(SCAN_JSON, rc, json.dumps(doc).encode())


def test_decompose_rejects_a_policy_the_op_did_not_ask_for(run_cli):
    op = decompose_op("d", 40, 18, "gammapi")
    rc, data = run_cli(op.argv)
    doc = json.loads(data)
    doc["policy"] = "strict"
    assert "policy" in check(op, rc, json.dumps(doc).encode())


def test_obstruction_rejects_a_wrong_count_at_a_higher_level(run_cli):
    op = Op("o", "obstruction", {"bound": 16, "max_terms": 6}, ("obstruction", "--bound", "16", "--format", "json"))
    rc, data = run_cli(op.argv)
    doc = json.loads(data)
    doc["levels"][4]["count"] -= 1
    assert "level 5" in check(op, rc, json.dumps(doc).encode())
