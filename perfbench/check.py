"""Independent checker for the outputs of the benchmark's CLI invocations.

It imports nothing from `shnirel`. Primality comes from its own sieve,
the regions, parity and strict-norm tests are re-implemented here, and
every witness is re-added. `check(op, rc, data)` returns None when the
output and exit code are right, else the reason for rejecting them.
"""

from __future__ import annotations

import csv
import json
import re as regex
from math import isqrt
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "shnirel" / "data" / "golden_tables.csv"

# Region predicates on (re, im), by CLI token.
REGIONS = {
    "sector": lambda r, i: r > 0 and -r < i <= r,
    "gammapi": lambda r, i: r > 0 and -r < i <= r,
    "a": lambda r, i: r > 0 and i > 0,
    "quadrant": lambda r, i: r > 0 and i >= 0,
    "octant": lambda r, i: 0 <= i <= r,
    "kpi": lambda r, i: r >= 0 and i >= 0,
    "spi": lambda r, i: r >= 0 and i > -r,
}
UNITS = {"1": (1, 0), "i": (0, 1), "-1": (-1, 0), "-i": (0, -1)}
# Hypothesis index -> (residue of n mod 4, number of primes 3 mod 4).
# Exceptions are accepted only where `_brute_r34` confirms them, which is
# feasible for n below 12; all known exceptions are there.
HYPOTHESES = {1: (2, 2), 2: (1, 3), 3: (0, 4), 4: (3, 5)}


class Reject(Exception):
    pass


def need(cond: bool, why: str) -> None:
    if not cond:
        raise Reject(why)


class Primes:
    """Primality through a sieve that grows on demand."""

    def __init__(self) -> None:
        self.flags = bytearray(2)

    def __call__(self, n: int) -> bool:
        n = abs(n)
        if n >= len(self.flags):
            self._sieve(max(2 * n, 1 << 16))
        return bool(self.flags[n])

    def _sieve(self, limit: int) -> None:
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.flags = flags


is_prime = Primes()


def gaussian_prime(r: int, i: int) -> bool:
    if r == 0 or i == 0:
        m = abs(r) + abs(i)
        return m % 4 == 3 and is_prime(m)
    return is_prime(r * r + i * i)


def fmt(r: int, i: int) -> str:
    """Gaussian integer text as the CLI prints it."""
    if i == 0:
        return str(r)
    mag = "" if abs(i) == 1 else str(abs(i))
    if r == 0:
        return f"{'-' if i < 0 else ''}{mag}i"
    return f"{r}{'-' if i < 0 else '+'}{mag}i"


_REAL = regex.compile(r"-?\d+")
_IMAG = regex.compile(r"(-?)(\d*)i")
_BOTH = regex.compile(r"(-?\d+)([+-])(\d*)i")


def parse(text: str) -> tuple[int, int]:
    if _REAL.fullmatch(text):
        return int(text), 0
    m = _IMAG.fullmatch(text)
    if m:
        return 0, (-1 if m[1] else 1) * int(m[2] or 1)
    m = _BOTH.fullmatch(text)
    need(m is not None, f"unparsable Gaussian integer {text!r}")
    return int(m[1]), (-1 if m[2] == "-" else 1) * int(m[3] or 1)


def check_witness(z: tuple[int, int], summands: list[tuple[int, int]], region: str,
                  max_terms: int, strict: bool) -> None:
    """Odd region primes, at most max_terms of them, summing to z."""
    need(1 <= len(summands) <= max_terms, f"{fmt(*z)}: {len(summands)} terms")
    target_norm = z[0] ** 2 + z[1] ** 2
    for r, i in summands:
        s = fmt(r, i)
        need(REGIONS[region](r, i), f"{fmt(*z)}: summand {s} outside {region}")
        need((r + i) % 2 == 1, f"{fmt(*z)}: summand {s} is even")
        need(gaussian_prime(r, i), f"{fmt(*z)}: summand {s} is not prime")
        need(not strict or r * r + i * i < target_norm,
             f"{fmt(*z)}: summand {s} not below the target norm")
    need((sum(r for r, _ in summands), sum(i for _, i in summands)) == z,
         f"summands do not add up to {fmt(*z)}")


class Sumsets:
    """Exact k-fold sumsets, k = 1..depth, of a growing set of lattice
    points with re >= 0. Each level keeps one bitmask over im per real
    part up to `rows`; sums whose real part passes `rows` are dropped,
    which loses nothing below it because real parts never shrink."""

    def __init__(self, depth: int, rows: int, im_bound: int) -> None:
        # every point has |im| <= im_bound, so a sum of at most depth of
        # them has a non-negative bit index im + off
        self.off = depth * im_bound
        self.rows = rows
        self.levels = [[0] * (rows + 1) for _ in range(depth)]

    def add(self, r: int, i: int) -> None:
        """Add a point: level k gains it plus every sum at level k - 1,
        that level already holding the point itself."""
        levels = self.levels
        levels[0][r] |= 1 << (i + self.off)
        for src, dst in zip(levels, levels[1:]):
            for row in range(self.rows - r + 1):
                mask = src[row]
                if mask:
                    dst[row + r] |= mask << i if i >= 0 else mask >> -i

    def fewest(self, r: int, i: int) -> int | None:
        """Fewest points summing to (r, i), or None if depth do not."""
        bit = 1 << (i + self.off)
        for k, level in enumerate(self.levels, 1):
            if level[r] & bit:
                return k
        return None

    def count(self, k: int) -> int:
        return sum(mask.bit_count() for mask in self.levels[k - 1])

    def min_gap(self, k: int) -> int | None:
        """Smallest re - im over the sums of k points."""
        gaps = [r - (mask.bit_length() - 1 - self.off)
                for r, mask in enumerate(self.levels[k - 1]) if mask]
        return min(gaps, default=None)


def scan_pool(region: str, re_max: int, im_bound: int) -> list[tuple[int, int]]:
    """Every odd region prime that can be a summand of a target with
    0 < re <= re_max, in norm order. Every region forces re >= 0 and
    bounds im by the real parts or by re + im, so |im| <= im_bound for
    im_bound = re_max + (largest |im| of a target) + 1."""
    inside = REGIONS[region]
    pool = [(r, i) for r in range(re_max + 1) for i in range(-im_bound, im_bound + 1)
            if inside(r, i) and (r + i) % 2 and gaussian_prime(r, i)]
    pool.sort(key=lambda p: p[0] ** 2 + p[1] ** 2)
    return pool


def box_targets(region: str, re_range, im_range) -> list[tuple[int, int]]:
    inside = REGIONS[region]
    pts = [
        (r, i)
        for r in range(re_range[0], re_range[1] + 1)
        for i in range(im_range[0], im_range[1] + 1)
        if (r, i) != (0, 0) and inside(r, i)
    ]
    pts.sort(key=lambda p: (p[0] ** 2 + p[1] ** 2, p[0], p[1]))
    return pts


def check_scan(op, rc: int, data: bytes) -> None:
    spec = op.spec
    if spec["format"] == "json":
        doc = json.loads(data)
        need(doc["primes"] == spec["primes"], "wrong prime region")
        need(doc["max_terms"] == spec["max_terms"], "wrong max_terms")
        need(doc["parity"] == "ODD", "wrong parity filter")
        need(doc["policy"] == ("strict" if spec["strict"] else "none"), "wrong policy")
        rows = []
        for row in doc["rows"]:
            z = (row["re"], row["im"])
            need(row["z"] == fmt(*z) and row["norm"] == z[0] ** 2 + z[1] ** 2,
                 f"row {row['z']}: inconsistent fields")
            wit = row["witness"]
            rows.append((z, row["k"], None if wit is None else [parse(s) for s in wit]))
        need(doc["exceptions"] == [fmt(*z) for z, k, _ in rows if k is None],
             "exception list differs from the EMPTY rows")
        counts: dict[str, int] = {}
        for _, k, _ in rows:
            if k is not None:
                counts[str(k)] = counts.get(str(k), 0) + 1
        need(doc["term_counts"] == counts, "term_counts disagree with the rows")
    else:
        lines = data.decode().splitlines()
        need(lines[0] == "z,norm,k,witness", "bad CSV header")
        rows = []
        for line in lines[1:]:
            zt, norm, k, cell = line.split(",")
            z = parse(zt)
            need(int(norm) == z[0] ** 2 + z[1] ** 2, f"row {zt}: wrong norm")
            if cell == "EMPTY":
                need(k == "", f"row {zt}: EMPTY with k")
                rows.append((z, None, None))
            else:
                need(cell.startswith("(") and cell.endswith(")"), f"row {zt}: bad witness")
                rows.append((z, int(k), [parse(s) for s in cell[1:-1].split(")+(")]))
    want = box_targets(spec["targets"], spec["re"], spec["im"])
    need([z for z, _, _ in rows] == want, "target set or order differs from the box")
    # Every row's k must be the fewest terms any decomposition has, and
    # EMPTY exactly where none has at most max_terms. Rows come in norm
    # order, so under the strict policy the sumsets grow with the target
    # norm: before each row they hold the primes of smaller norm only.
    re_max = spec["re"][1]
    im_bound = re_max + max(abs(spec["im"][0]), abs(spec["im"][1])) + 1
    pool = scan_pool(spec["primes"], re_max, im_bound)
    sums = Sumsets(spec["max_terms"], re_max, im_bound)
    added = 0 if spec["strict"] else len(pool)
    for r, i in pool[:added]:
        sums.add(r, i)
    exceptions = 0
    for z, k, wit in rows:
        norm = z[0] ** 2 + z[1] ** 2
        while added < len(pool) and pool[added][0] ** 2 + pool[added][1] ** 2 < norm:
            sums.add(*pool[added])
            added += 1
        fewest = sums.fewest(*z)
        if wit is None:
            need(fewest is None, f"{fmt(*z)} reported as an exception but is "
                 f"representable with {fewest} terms")
            exceptions += 1
            continue
        need(k == len(wit), f"{fmt(*z)}: k={k} but {len(wit)} summands")
        check_witness(z, wit, spec["primes"], spec["max_terms"], spec["strict"])
        need(k == fewest, f"{fmt(*z)}: k={k} but {fewest} terms suffice")
    need(rc == (1 if exceptions else 0), f"exit code {rc}")


def check_decompose(op, rc: int, data: bytes) -> None:
    spec = op.spec
    need(rc == 0, f"exit code {rc}")
    doc = json.loads(data)
    z = tuple(spec["z"])
    need((doc["re"], doc["im"]) == z and doc["target"] == fmt(*z), "wrong target")
    need(doc["region"] == spec["primes"], "wrong region")
    need(doc["policy"] == ("strict" if spec["strict"] else "none"), "wrong policy")
    need(doc["k"] == len(doc["terms"]), "k disagrees with the terms")
    summands = []
    for term in doc["terms"]:
        s = parse(term["summand"])
        g = parse(term["sector"])
        u = UNITS[term["unit"]]
        need(REGIONS["sector"](*g), f"stored prime {term['sector']} not in the sector")
        need((g[0] * u[0] - g[1] * u[1], g[0] * u[1] + g[1] * u[0]) == s,
             f"{term['unit']} * ({term['sector']}) is not {term['summand']}")
        need((term["re"], term["im"]) == s and term["norm"] == g[0] ** 2 + g[1] ** 2,
             f"term {term['summand']}: inconsistent fields")
        summands.append(s)
    check_witness(z, summands, spec["primes"], spec["max_terms"], spec["strict"])


def _check_columns(doc: dict, a: int, b: int) -> list:
    cols = [(c["target"], c["x1"], c["x2"]) for c in doc["columns"]]
    need(doc["k"] == len(cols) and doc["a"] == a and doc["b"] == b, "wrong header")
    need(sum(c[1] for c in cols) == a and sum(c[2] for c in cols) == b, "row sums differ")
    need(all(x1 >= 0 and x2 >= 0 for _, x1, x2 in cols), "negative entry")
    need(cols == sorted(cols, reverse=True), "columns out of order")
    return cols


def check_conj1(op, rc: int, data: bytes) -> None:
    need(rc == 0, f"exit code {rc}")
    doc = json.loads(data)
    a, b = op.spec["a"], op.spec["b"]
    cols = _check_columns(doc, a, b)
    need(doc["kind"] == "conj1" and len(cols) <= op.spec["kmax"], "wrong kind or width")
    for t, x1, x2 in cols:
        need(x1 * x1 + x2 * x2 == t, f"column ({x1},{x2}) misses {t}")
    check_witness((a, b), [(x1, x2) for _, x1, x2 in cols], "kpi", op.spec["kmax"], False)


def _check_rational_columns(cols: list) -> None:
    for t, x1, x2 in cols:
        need(x1 + x2 == t, f"column ({x1},{x2}) misses {t}")
        need(t % 2 == 1 and is_prime(t), f"target {t} is not an odd prime")


def check_thm1(op, rc: int, data: bytes) -> None:
    need(rc == 0, f"exit code {rc}")
    doc = json.loads(data)
    cols = _check_columns(doc, op.spec["a"], op.spec["b"])
    need(doc["kind"] == "thm1" and len(cols) == 4, "thm1 needs four columns")
    _check_rational_columns(cols)


def check_thm2(op, rc: int, data: bytes) -> None:
    need(rc == 0, f"exit code {rc}")
    doc = json.loads(data)
    a, b = op.spec["a"], op.spec["b"]
    cols = _check_columns(doc, a, b)
    need(doc["kind"] == "thm2", "wrong kind")
    _check_rational_columns(cols)
    n = a + b
    # One column iff n is an odd prime; otherwise parity forces two
    # columns for even n and three for odd n (the minimum once found).
    fewest = 1 if n % 2 and is_prime(n) else (2 if n % 2 == 0 else 3)
    need(len(cols) == fewest, f"{len(cols)} columns, fewest possible is {fewest}")


def check_thm130(op, rc: int, data: bytes) -> None:
    need(rc == 0, f"exit code {rc}")
    doc = json.loads(data)
    n = op.spec["n"]
    terms = doc["terms"]
    need(doc["n"] == n and terms == doc["base"] + doc["extras"], "inconsistent fields")
    need(doc["m"] == len(terms) and 3 <= len(terms) <= 6, f"{len(terms)} terms")
    need(all(p % 4 == 3 and is_prime(p) for p in terms), "a term is not a prime 3 mod 4")
    need(all(p == 3 for p in doc["extras"]), "extras must all be 3")
    need(sum(terms) == n, f"terms do not add up to {n}")


def _brute_r34(n: int, k: int) -> bool:
    """Is n a sum of k primes congruent to 3 mod 4 (tiny n only)?"""
    if k == 0:
        return n == 0
    return any(_brute_r34(n - p, k - 1) for p in range(3, n + 1, 4) if is_prime(p))


def check_hypotheses(op, rc: int, data: bytes) -> None:
    upper = op.spec["upper"]
    lines = data.decode().splitlines()
    need(lines[0] == "n,residue,k,witness", "bad CSV header")
    got = [line.split(",") for line in lines[1:]]
    want_rows = [(h, n) for h, (res, _) in HYPOTHESES.items()
                 for n in range(1 + (res - 1) % 4, upper + 1, 4)]
    need(len(got) == len(want_rows), f"{len(got)} rows, expected {len(want_rows)}")
    empty = 0
    for (h, n), (nt, rt, kt, cell) in zip(want_rows, got):
        res, k = HYPOTHESES[h]
        need((int(nt), int(rt), int(kt)) == (n, res, k), f"row {nt}: wrong n, residue or k")
        if cell == "EMPTY":
            need(n < 12 and not _brute_r34(n, k), f"n={n} reported as an exception")
            empty += 1
            continue
        terms = [int(t) for t in cell.split("+")]
        need(len(terms) == k and sum(terms) == n, f"n={n}: witness {cell} does not add up")
        need(all(p % 4 == 3 and is_prime(p) for p in terms), f"n={n}: bad witness {cell}")
    tiny = sum(1 for h, n in want_rows if n < 12 and not _brute_r34(n, HYPOTHESES[h][1]))
    need(empty == tiny, f"{empty} exceptions, brute force finds {tiny}")
    need(rc == (1 if empty else 0), f"exit code {rc}")


def check_obstruction(op, rc: int, data: bytes) -> None:
    doc = json.loads(data)
    bound, max_terms = op.spec["bound"], op.spec["max_terms"]
    need(doc["bound"] == bound and doc["max_terms"] == max_terms, "wrong header")
    # The k-term sums of odd sector primes with real part at most bound,
    # swept here with bitmask sumsets instead of the library's point sets.
    sums = Sumsets(max_terms, bound, bound)
    for r in range(1, bound + 1):
        for i in range(-r + 1, r + 1):
            if (r + i) % 2 and gaussian_prime(r, i):
                sums.add(r, i)
    want = [{"k": k, "count": sums.count(k), "min_gap": sums.min_gap(k)}
            for k in range(1, max_terms + 1)]
    for got, lv in zip(doc["levels"], want):
        need(got == lv, f"level {got['k']}: count {got['count']} min gap {got['min_gap']}, "
             f"expected count {lv['count']} min gap {lv['min_gap']}")
    need(len(doc["levels"]) == len(want), f"{len(doc['levels'])} levels, expected {len(want)}")
    held = all(lv["min_gap"] >= lv["k"] for lv in want)
    need(doc["holds"] is held and (doc["violations"] == []) is held, "holds flag or violations")
    need(rc == (0 if held else 1), f"exit code {rc}")


def golden_rows() -> list[dict]:
    """Rows of the packaged reference table, read as plain CSV."""
    with open(GOLDEN, newline="") as fh:
        return list(csv.DictReader(fh))


def _golden_row(rec: dict):
    z = (int(rec["z_re"]), int(rec["z_im"]))
    summands = []
    for slot in ("t1", "t2", "t3"):
        if rec[f"{slot}_re"]:
            g = (int(rec[f"{slot}_re"]), int(rec[f"{slot}_im"]))
            u = UNITS[rec[f"{slot}_unit"]]
            summands.append((g, (g[0] * u[0] - g[1] * u[1], g[0] * u[1] + g[1] * u[0])))
    return int(rec["table"]), z, summands


def golden_failures(rows: list[dict]) -> list[int]:
    """Indices of reference rows that break a stored fact."""
    bad = []
    for index, rec in enumerate(rows):
        table, z, terms = _golden_row(rec)
        try:
            need(REGIONS["octant"](*z), "target outside the octant")
            need(sum(z) % 2 == (1 if table == 1 else 0), "wrong parity")
            need(len(terms) == (3 if table == 1 else 2), "wrong term count")
            need(all(REGIONS["sector"](*g) for g, _ in terms), "stored prime off the sector")
            check_witness(z, [s for _, s in terms], "spi", 3, True)
        except Reject:
            bad.append(index)
    return bad


def check_tables_validate(op, rc: int, data: bytes) -> None:
    doc = json.loads(data)
    rows = golden_rows()
    bad = golden_failures(rows)
    need(doc["total"] == len(rows), "wrong row total")
    need([f["row"] for f in doc["failures"]] == bad, "failing rows differ")
    need(doc["ok"] == (not bad) and rc == (0 if not bad else 1), f"exit code {rc}")


def check_tables_regenerate(op, rc: int, data: bytes) -> None:
    doc = json.loads(data)
    rows = golden_rows()
    need(doc["total"] == len(rows) == len(doc["rows"]), "wrong row total")
    matches = 0
    failures = []
    for rec, out in zip(rows, doc["rows"]):
        table, z, terms = _golden_row(rec)
        need(out["target"] == fmt(*z), f"row {out['target']}: wrong target")
        need(out["stored"] == [fmt(*s) for _, s in terms], f"row {out['target']}: stored terms")
        if out["regenerated"] is None:
            failures.append(out["target"])
            continue
        regen = [parse(s) for s in out["regenerated"]]
        check_witness(z, regen, "spi", len(terms), True)
        matches += regen == [s for _, s in terms]
    need(doc["failures"] == failures and doc["matches"] == matches, "summary fields differ")
    need(doc["ok"] == (not failures) and rc == (0 if not failures else 1), f"exit code {rc}")


CHECKERS = {
    "scan": check_scan,
    "decompose": check_decompose,
    "conj1": check_conj1,
    "thm1": check_thm1,
    "thm2": check_thm2,
    "thm130": check_thm130,
    "hypotheses": check_hypotheses,
    "obstruction": check_obstruction,
    "tables_validate": check_tables_validate,
    "tables_regenerate": check_tables_regenerate,
}


def check(op, rc: int, data: bytes) -> str | None:
    """None when the output and exit code of `op` are right, else why not."""
    try:
        CHECKERS[op.kind](op, rc, data)
    except Reject as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
