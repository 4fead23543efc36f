import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def cli(tmp_path: Path, argv) -> tuple[int, bytes]:
    """Run the shnirel CLI of this checkout; (exit code, --out bytes)."""
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from shnirel.cli import entry; sys.exit(entry())",
         *argv, f"--out={out}"],
        env=env, capture_output=True, timeout=120,
    )
    return proc.returncode, out.read_bytes()


@pytest.fixture
def run_cli(tmp_path):
    return lambda argv: cli(tmp_path, argv)
