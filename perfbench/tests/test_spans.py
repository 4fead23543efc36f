"""Self-time arithmetic, wrapper installation and the traced child run."""

import os
import subprocess
import sys
import types
from array import array

import pytest
import spans
from conftest import BENCH, ROOT


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10]
    #   a [1, 4]        a's child [2, 3]
    #   b [5, 9]
    #   c [8, 9.5]      overlaps b, as a span from another thread would
    #   d [9.8, 11]     runs past the end of root; only [9.8, 10] counts
    parent = [-1, 0, 1, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.8]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    own = spans.self_times(parent, start, end)
    assert own == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_self_times_of_sequential_children_sum_to_the_root():
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 0.5, 0.75, 1.5, 3.0]
    end = [4.0, 2.5, 1.25, 2.0, 3.5]
    assert sum(spans.self_times(parent, start, end)) == pytest.approx(4.0)


def _modules():
    """A two-layer toy shaped like zcore and primes: `in_region` and the
    GaussianInt constructor are counted, `gaussian_primes_in` reaches
    `in_region`, `is_rational_prime` and `PrimeTable.sieve` through its own
    namespace."""
    low = types.ModuleType("toy_zcore")
    exec("from dataclasses import dataclass\n"
         "@dataclass(frozen=True)\n"
         "class GaussianInt:\n"
         "    re: int\n"
         "    def __post_init__(self):\n"
         "        pass\n"
         "def in_region(z):\n"
         "    return z % 2 == 1\n", low.__dict__)
    high = types.ModuleType("toy_primes")
    high.in_region = low.in_region
    high.GaussianInt = low.GaussianInt
    exec("class PrimeTable:\n"
         "    @classmethod\n"
         "    def sieve(cls, limit):\n"
         "        return [n for n in range(2, limit) if all(n % d for d in range(2, n))]\n"
         "def is_rational_prime(n):\n"
         "    return n in PrimeTable.sieve(8)\n"
         "def gaussian_primes_in(limit):\n"
         "    return [GaussianInt(z) for z in range(limit) if in_region(z) and is_rational_prime(z)]\n",
         high.__dict__)
    return {"zcore": low, "primes": high}


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_catches_calls_across_layers_and_uninstalls():
    mods = _modules()
    original = mods["primes"].gaussian_primes_in
    sieve = mods["primes"].PrimeTable.__dict__["sieve"]
    tracer = spans.Tracer(clock=Clock())
    tracer.install(mods)
    assert [g.re for g in mods["primes"].gaussian_primes_in(6)] == [3, 5]
    tracer.uninstall()
    assert mods["primes"].gaussian_primes_in is original
    assert mods["primes"].in_region is mods["zcore"].in_region
    assert mods["primes"].PrimeTable.__dict__["sieve"] is sieve

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["primes.gaussian_primes_in"] + [
        "primes.is_rational_prime", "primes.PrimeTable.sieve"] * 3
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0, 5]
    assert tracer.value[0] == 2  # gaussian_primes_in records how many it returned
    pool = tracer._ids["primes.gaussian_primes_in"]
    assert tracer.counts == {("zcore.in_region", pool): 6,
                             ("zcore.GaussianInt.__post_init__", pool): 2}
    # clock ticks: root 1..14, is_rational_prime (2,5) (6,9) (10,13), sieve inside each
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert own == [4.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]


def test_raw_metrics_from_a_synthetic_trace():
    names = ["cli.entry", "gaussdecomp.find_decomposition", "primes.gaussian_primes_in"]
    trace = spans.Trace(
        names,
        array("i", [0, 1, 2, 1]),
        array("i", [-1, 0, 1, 0]),
        array("d", [0.0, 1.0, 1.5, 4.0]),
        array("d", [10.0, 3.0, 2.5, 5.0]),
        array("d", [0.0, 1.0, 40.0, 0.0]),
        [["zcore.in_region", 2, 160], ["zcore.GaussianInt.__post_init__", 1, 7]],
        {},
    )
    got = spans.finish(spans.raw_metrics(trace))
    assert got["gaussdecomp.find_calls"] == 2
    assert got["gaussdecomp.find_found_ratio"] == 0.5
    assert got["gaussdecomp.find_found_s"] == pytest.approx(1.0)
    assert got["gaussdecomp.find_exhausted_s"] == pytest.approx(1.0)
    assert got["primes.pool_s"] == pytest.approx(1.0)
    assert got["primes.pool_entries"] == 40
    assert got["primes.pool_keep_ratio"] == 0.25
    assert got["zcore.gaussint_new"] == 7
    assert got["cli.self_s"] == pytest.approx(7.0)
    assert got["gaussdecomp.self_s"] == pytest.approx(2.0)


def test_traced_child_writes_spans_and_leaves_output_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["scan", "--targets", "a", "--re=1..12", "--im=1..12", "--primes", "gammapi", "--format", "json"]
    outputs = {}
    for mode in ("plain", "traced"):
        flags = ["--plain"] if mode == "plain" else []
        out = tmp_path / f"{mode}.json"
        proc = subprocess.run([sys.executable, str(BENCH / "spans.py"), str(tmp_path / mode), *flags,
                               "--", *argv, f"--out={out}"], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[mode] = (out.read_bytes(), spans.Trace.load(str(tmp_path / mode)))
    (plain, plain_trace), (traced, trace) = outputs["plain"], outputs["traced"]
    assert plain == traced
    assert plain_trace.meta["rc"] == trace.meta["rc"] == 1
    assert len(plain_trace.name) == 0
    assert trace.names[trace.name[0]] == "cli.entry" and trace.parent[0] == -1
    got = spans.raw_metrics(trace)
    assert got["gaussdecomp.find_calls"] == 144
    assert got["primes.pool_calls"] == 1
    assert got["cli.render_s"] > 0
