"""Workload generation and the benchmark's refusal to run without sources."""

import shutil
import subprocess
import sys

from conftest import BENCH
from workloads import WORKLOADS, make_ops


def test_same_seed_same_ops_and_sizes_fixed_across_seeds():
    for name in WORKLOADS:
        assert make_ops(name, 7) == make_ops(name, 7)
        assert [op.name for op in make_ops(name, 7)] == [op.name for op in make_ops(name, 8)]
    assert make_ops("pool_large", 7) != make_ops("pool_large", 8)


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rational", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
