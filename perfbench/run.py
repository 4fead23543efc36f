"""Run one benchmark workload against the `shnirel` sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's ops (see workloads.py) run in rounds until the next round
would pass S seconds; at least one round always runs.

--trace 0 measures what a CLI user pays: every op is a fresh interpreter
running the `shnirel` entry point with its output going to --out, so
interpreter start and the process-global caches count. Each invocation is
bracketed by runs of calibrate.py, and its wall and CPU times are divided
by theirs and multiplied by CALIBRATION_S: times are in calibrated
seconds, in which the calibration program takes 0.1 s, so the host's
speed drift cancels. wall_s and cpu_s are the sums over ops of each op's
median over rounds; peak_rss_mb is the largest per-op median of the
maximum RSS from wait4; setup_s is the median of several fresh
`import shnirel.cli`, calibrated the same way. The uncalibrated sums go
into the record line.

--trace 1 runs each op twice per round in a fresh interpreter through
spans.py: once plain, once with every layer wrapped. It reports the
per-layer metrics (medians over rounds, in plain seconds) and
trace.overhead_ratio, and rejects a traced output that is not
byte-identical to the plain one.

The first round's outputs go through the independent checker in
check.py; later rounds must reproduce them byte for byte. The last line
of stdout is the JSON result; the line before it records the machine and
each op's output sha256, which is also kept under .bench_build/ so a
changed digest between two runs of the same workload and seed shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from check import check
from workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SPANS = Path(__file__).resolve().parent / "spans.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
CALIBRATION_S = 0.1
CLI = "import sys; from shnirel.cli import entry; sys.exit(entry())"
SETUP_SAMPLES = 9


def child_env() -> dict:
    # Installed packages run from bytecode, so let the children cache it,
    # under .bench_build/ rather than next to the sources.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("SHNIREL_CACHE", None)
    return env


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = child_env()

    def spawn(self, argv: list[str], tag: str) -> tuple[float, float, float, int]:
        """Run argv to completion: wall s, user+sys s of it and its reaped
        children, max RSS in MiB, exit code."""
        with open(self.work / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode

    def stderr_of(self, tag: str) -> str:
        lines = (self.work / f"{tag}.err").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def take(self, path: Path) -> bytes:
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        return data

    def reference(self) -> tuple[float, float]:
        """Wall and CPU time of one run of the calibration program."""
        wall, cpu, _, rc = self.spawn([sys.executable, str(CALIBRATE)], "calibrate")
        if rc != 0:
            raise RuntimeError(f"calibration program failed: {self.stderr_of('calibrate')}")
        return wall, cpu

    def calibrated(self, argv: list[str], tag: str, before: tuple[float, float]):
        """spawn(argv) with its wall and CPU times calibrated by the mean of
        the calibration runs just before and just after it. Returns the
        spawn result, the calibrated (wall, cpu) and the run after."""
        got = self.spawn(argv, tag)
        after = self.reference()
        wall = got[0] * 2 * CALIBRATION_S / (before[0] + after[0])
        cpu = got[1] * 2 * CALIBRATION_S / (before[1] + after[1])
        return got, (wall, cpu), after

    def setup_s(self) -> float:
        argv = [sys.executable, "-c", "import shnirel.cli"]
        if self.spawn(argv, "setup")[3] != 0:
            raise RuntimeError(f"cannot import shnirel.cli: {self.stderr_of('setup')}")
        ref = self.reference()
        samples = []
        for _ in range(SETUP_SAMPLES):
            _, (wall, _), ref = self.calibrated(argv, "setup", ref)
            samples.append(wall)
        return statistics.median(samples)


class Outcomes:
    """Checks each op's output: the checker on its first output, byte
    identity with that first output afterwards."""

    def __init__(self) -> None:
        self.first: dict[str, tuple[str, int]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op, rc: int, data: bytes, detail: str = "") -> None:
        digest = hashlib.sha256(data).hexdigest()
        self.attempted += 1
        if op.name not in self.first:
            self.first[op.name] = (digest, rc)
            reason = check(op, rc, data)
        elif self.first[op.name] != (digest, rc):
            reason = "output or exit code differs from the first run"
        else:
            reason = None
        if reason:
            self.failures.append(f"{op.name}: {reason}{detail}")


def rounds(seconds: int, one_round) -> int:
    start = time.perf_counter()
    count = 0
    while True:
        r0 = time.perf_counter()
        one_round()
        count += 1
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return count


def run_plain(runner: Runner, ops, seconds: int, outcomes: Outcomes) -> dict:
    samples = {op.name: [] for op in ops}

    def one_round() -> None:
        ref = runner.reference()
        for op in ops:
            out = runner.work / f"{op.name}.out"
            argv = [sys.executable, "-c", CLI, *op.argv, f"--out={out}"]
            (wall, cpu, rss, rc), (cal_wall, cal_cpu), ref = runner.calibrated(argv, op.name, ref)
            outcomes.record(op, rc, runner.take(out), f" ({runner.stderr_of(op.name)})")
            samples[op.name].append((cal_wall, cal_cpu, rss, wall, cpu))

    setup = runner.setup_s()
    n = rounds(seconds, one_round)

    def median(op, col):
        return statistics.median(s[col] for s in samples[op.name])

    return {
        "rounds": n,
        "per_op_wall_s": {op.name: median(op, 0) for op in ops},
        "raw_wall_s": sum(median(op, 3) for op in ops),
        "raw_cpu_s": sum(median(op, 4) for op in ops),
        "metrics": {
            "wall_s": sum(median(op, 0) for op in ops),
            "cpu_s": sum(median(op, 1) for op in ops),
            "peak_rss_mb": max(median(op, 2) for op in ops),
            "setup_s": setup,
        },
    }


def run_traced(runner: Runner, ops, seconds: int, outcomes: Outcomes) -> dict:
    per_round: list[dict[str, float]] = []

    def one_round() -> None:
        raw: dict[str, float] = {}
        plain_wall = traced_wall = 0.0
        out_bytes = 0
        for op in ops:
            got = {}
            for mode in ("plain", "traced"):
                out = runner.work / f"{op.name}.{mode}.out"
                meta = runner.work / f"{op.name}.{mode}.trace"
                flags = ["--plain"] if mode == "plain" else []
                rc = runner.spawn([sys.executable, str(SPANS), str(meta), *flags, "--", *op.argv,
                                   f"--out={out}"], op.name)[3]
                if rc != 0:
                    raise RuntimeError(f"{op.name}: spans.py exited {rc}: {runner.stderr_of(op.name)}")
                trace = spans.Trace.load(str(meta))
                meta.unlink()
                got[mode] = (trace, runner.take(out))
            (plain, plain_out), (traced, traced_out) = got["plain"], got["traced"]
            outcomes.record(op, plain.meta["rc"], plain_out, f" ({runner.stderr_of(op.name)})")
            outcomes.attempted += 1
            if (traced_out, traced.meta["rc"]) != (plain_out, plain.meta["rc"]):
                outcomes.failures.append(f"{op.name}: traced output differs from the plain one")
            for key, v in spans.raw_metrics(traced).items():
                raw[key] = raw.get(key, 0.0) + v
            plain_wall += plain.meta["wall"]
            traced_wall += traced.meta["wall"]
            out_bytes += len(plain_out)
        metrics = spans.finish(raw)
        metrics["cli.output_bytes"] = float(out_bytes)
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1
        per_round.append(metrics)

    n = rounds(seconds, one_round)
    return {
        "rounds": n,
        "metrics": {k: statistics.median(r[k] for r in per_round) for k in per_round[0]},
    }


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() if got.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "shnirel" / "cli.py").is_file():
        print(f"perfbench: no shnirel sources under {SRC}", file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    ops = make_ops(args.workload, args.seed)
    work = BUILD / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes()
    try:
        measure = run_traced if args.trace else run_plain
        result = measure(Runner(work), ops, args.seconds, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {name: d for name, (d, _) in outcomes.first.items()}
    store = BUILD / "results" / f"{args.workload}-seed{args.seed}.json"
    changed = []
    if store.exists():
        before = json.loads(store.read_text())["digests"]
        changed = sorted(n for n, d in digests.items() if before.get(n, d) != d)
    record = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=result["rounds"], ops=[" ".join(op.argv) for op in ops],
                  digests=digests, digests_changed=changed, failures=outcomes.failures)
    for key in ("per_op_wall_s", "raw_wall_s", "raw_cpu_s"):
        if key in result:
            record[key] = result[key]
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"measured metrics {sorted(result['metrics'])} are not the declared "
                           f"{sorted(units)}")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(record, indent=1, sort_keys=True))
    for line in outcomes.failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if changed:
        print(f"perfbench: output digests changed since the last run: {', '.join(changed)}",
              file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
