"""Benchmark workloads: each is a list of `shnirel` CLI invocations made
from a seed.

The seed moves box origins by at most one cell and picks the large
decomposition targets inside narrow norm bands, so every seed does the
same amount of work to within a few per cent. Sizes never depend on the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `spec` holds the parsed parameters the
    checker needs; `argv` is what the CLI receives (without --out)."""

    name: str
    kind: str
    spec: dict
    argv: tuple[str, ...]


def scan_op(name: str, targets: str, re: tuple, im: tuple, primes: str,
            fmt: str, strict: bool = False, jobs: int = 1) -> Op:
    argv = ["scan", "--targets", targets, f"--re={re[0]}..{re[1]}",
            f"--im={im[0]}..{im[1]}", "--primes", primes, "--format", fmt]
    if strict:
        argv.append("--strict-norm")
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    spec = {"targets": targets, "re": re, "im": im, "primes": primes,
            "strict": strict, "max_terms": 3, "format": fmt}
    return Op(name, "scan", spec, tuple(argv))


def decompose_op(name: str, re: int, im: int, primes: str, strict: bool = False) -> Op:
    argv = ("decompose", f"--z={re},{im}", "--primes", primes, "--format", "json")
    if strict:
        argv += ("--strict-norm",)
    return Op(name, "decompose",
              {"z": (re, im), "primes": primes, "max_terms": 3, "strict": strict}, argv)


def _on_circle(rng: random.Random, norm: int, lo: int, hi: int, even: bool) -> tuple[int, int]:
    """A point (re, im) with re in [lo, hi], im >= 0, norm just below
    `norm`, and re + im even when `even` is set."""
    re = rng.randint(lo, hi)
    im = isqrt(norm - re * re)
    if even and (re + im) % 2:
        im -= 1
    return re, im


def scan_found(rng: random.Random) -> list[Op]:
    dx, dy, sx, sy = (rng.randint(0, 1) for _ in range(4))
    return [
        scan_op("scan_kpi", "a", (1 + dx, 150 + dx), (1 + dy, 150 + dy), "kpi", "json"),
        scan_op("scan_spi_jobs2", "sector", (1 + sx, 120 + sx), (-119 + sy, 120 + sy),
                "spi", "csv", strict=True, jobs=2),
        Op("tables_regenerate", "tables_regenerate", {},
           ("tables", "--regenerate", "--format", "json")),
        Op("tables_validate", "tables_validate", {},
           ("tables", "--validate", "--format", "json")),
    ]


def scan_exhaust(rng: random.Random) -> list[Op]:
    dx, dy = rng.randint(0, 1), rng.randint(0, 1)
    return [
        scan_op("scan_gammapi", "a", (1 + dx, 120 + dx), (1 + dy, 120 + dy), "gammapi", "json"),
        Op("obstruction", "obstruction", {"bound": 90, "max_terms": 6},
           ("obstruction", "--bound", "90", "--format", "json")),
    ]


def pool_large(rng: random.Random) -> list[Op]:
    # The pool bound is 2(re-1)^2 for gammapi, the target norm for kpi and
    # re^2 + (re+|im|)^2 for spi; each band holds it within about 1%.
    g_re = rng.randint(598, 602)
    g_im = rng.randrange(150, 350, 2) + (g_re % 2)
    k_re, k_im = _on_circle(rng, 410_000, 480, 520, even=True)
    s_re = rng.randint(440, 460)
    s_w = isqrt(625_000 - s_re * s_re)
    if s_w % 2:
        s_w -= 1  # re + im = 2 re - w keeps the parity of w
    # an odd a + b could make a + bi prime, a one-column answer with no pool
    c_a, c_b = _on_circle(rng, 440_000, 500, 540, even=True)
    return [
        decompose_op("decompose_gammapi", g_re, g_im, "gammapi"),
        decompose_op("decompose_kpi", k_re, k_im, "kpi"),
        decompose_op("decompose_spi", s_re, s_re - s_w, "spi"),
        Op("solve_conj1", "conj1", {"a": c_a, "b": c_b, "kmax": 6},
           ("solve-conj1", "--a", str(c_a), "--b", str(c_b), "--format", "json")),
    ]


def rational(rng: random.Random) -> list[Op]:
    upper = 300_000 + 4 * rng.randrange(25)
    n130 = rng.randrange(1_000_000, 1_010_000)
    b1 = rng.randrange(500, 1500)
    a1 = rng.randrange(499_000, 501_000)
    a1 += (a1 + b1) % 2
    a2, b2 = rng.randrange(699_000, 701_000), rng.randint(1, 10)
    return [
        Op("hypotheses", "hypotheses", {"upper": upper},
           ("hypotheses", "--upper", str(upper), "--format", "csv")),
        Op("thm130", "thm130", {"n": n130}, ("thm130", "--n", str(n130), "--format", "json")),
        Op("solve_thm1", "thm1", {"a": a1, "b": b1},
           ("solve-thm1", "--a", str(a1), "--b", str(b1), "--format", "json")),
        Op("solve_thm2", "thm2", {"a": a2, "b": b2, "kmax": 8},
           ("solve-thm2", "--a", str(a2), "--b", str(b2), "--format", "json")),
    ]


WORKLOADS = {
    "scan_found": scan_found,
    "scan_exhaust": scan_exhaust,
    "pool_large": pool_large,
    "rational": rational,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one workload; the same seed gives the same ops."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
