"""Spans around the calls into each `shnirel` layer, their self times,
and the per-layer metrics computed from them.

`Tracer.install` replaces every public function of each layer module,
and the few methods and private stages listed below, with a timing
wrapper. The replacement is made in every layer namespace that holds the
function, because callers look module attributes up at call time; so a
call from `cli` into `gaussdecomp` or from `gaussdecomp` into `primes`
opens a span too. Spans (name, start, end, parent, value) stay in memory
in flat arrays and are written out once the traced invocation returns.

Run as a script, this file executes one CLI invocation in-process
through `shnirel.cli.entry(argv)` and writes the trace:

    python3 perfbench/spans.py OUT [--plain] -- ARGV...

With --plain no wrapper is installed and OUT holds only the exit code
and the wall time of `entry`, the base for the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass

LAYERS = ("zcore", "primes", "gaussdecomp", "ratdecomp", "diophantine", "golden", "cli")

# Methods and private functions that mark a stage of their own.
EXTRA = {
    "zcore": ("GaussianInt.__post_init__",),
    "primes": ("PrimeTable.sieve",),
    "gaussdecomp": ("Decomposition.to_json_dict", "ScanReport.to_json_dict",
                    "ObstructionReport.to_json_dict"),
    "ratdecomp": ("HypothesisReport.to_json_dict", "ChainResult.to_json_dict"),
    "diophantine": ("SolutionMatrix.validate", "SolutionMatrix.to_json_dict"),
    "golden": ("GoldenValidation.to_json_dict", "RegenReport.to_json_dict"),
    "cli": ("_emit",),
}

# O(1) predicates and the GaussianInt constructor run hundreds of
# thousands of times per invocation. A span each would cost more than
# the call, so they are only counted, per enclosing span name, and their
# time stays in the caller's self time.
COUNTED = frozenset({
    "zcore.GaussianInt.__post_init__",
    "zcore.in_region",
    "zcore.parity",
    "zcore.congruent_mod_one_plus_i",
    "zcore.add",
    "zcore.norm",
})


def _found(out) -> float:
    return 0.0 if out is None else 1.0


# What a span records from the value its call returns.
VALUES = {
    "gaussdecomp.find_decomposition": _found,
    "ratdecomp.split_into_odd_primes": _found,
    "ratdecomp.split_into_residue34_primes": _found,
    "primes.gaussian_primes_in": len,
    "gaussdecomp.verify_diagonal_obstruction": lambda rep: sum(c for _, c, _ in rep.levels),
}


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        # (counted name, enclosing span name id or -1) -> calls
        self.counts: dict[tuple[str, int], int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        nid = self._id(name)
        value = VALUES.get(name)
        names, parents, starts, ends, values = self.name, self.parent, self.start, self.end, self.value
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if value is not None:
                values[i] = value(out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts, stack, names = self.counts, self._stack, self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            key = (name, names[top] if top >= 0 else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        return self.counted(name, fn) if name in COUNTED else self.spanned(name, fn)

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of `modules` (layer name -> module)."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in EXTRA.get(layer, ()))):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
            for qual in EXTRA.get(layer, ()):
                if "." not in qual:
                    continue
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"{layer}.{qual}", raw.__func__))
                else:
                    new = self._wrap(f"{layer}.{qual}", raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def dump(self, path: str, **meta) -> None:
        head = dict(meta, names=self.names, spans=len(self.name),
                    counts=[[c, e, n] for (c, e), n in self.counts.items()])
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.value):
                arr.tofile(fh)


@dataclass
class Trace:
    """A loaded trace: span arrays plus the header of the file."""

    names: list[str]
    name: array
    parent: array
    start: array
    end: array
    value: array
    counts: list
    meta: dict

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, "rb") as fh:
            head = json.loads(fh.readline())
            n = head.pop("spans")
            arrays = []
            for code in "iiddd":
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        names, counts = head.pop("names"), head.pop("counts")
        return cls(names, *arrays, counts, head)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are stored in start order, so a parent's children arrive in
    start order too; the union of their intervals is built in one pass.
    """
    own = [e - s for s, e in zip(start, end)]
    covered = list(start)
    for c, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[c], covered[p])
        hi = min(end[c], end[p])
        if hi > lo:
            own[p] -= hi - lo
        if end[c] > covered[p]:
            covered[p] = end[c]
    return own


def _inclusive(trace: Trace, wanted: set[str]) -> float:
    """Summed duration of spans named in `wanted` with no such ancestor."""
    ids = {i for i, n in enumerate(trace.names) if n in wanted}
    name, parent, start, end = trace.name, trace.parent, trace.start, trace.end
    total = 0.0
    for i, nid in enumerate(name):
        if nid not in ids:
            continue
        p = parent[i]
        while p >= 0 and name[p] not in ids:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return total


def raw_metrics(trace: Trace) -> dict[str, float]:
    """Additive per-layer quantities of one traced invocation."""
    own = self_times(trace.parent, trace.start, trace.end)
    names = trace.names
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    found: dict[str, float] = {}
    found_self: dict[str, float] = {}
    value_sum: dict[str, float] = {}
    for i, nid in enumerate(trace.name):
        n = names[nid]
        calls[n] = calls.get(n, 0) + 1
        self_s[n] = self_s.get(n, 0.0) + own[i]
        v = trace.value[i]
        value_sum[n] = value_sum.get(n, 0.0) + v
        if v > 0:
            found[n] = found.get(n, 0.0) + 1
            found_self[n] = found_self.get(n, 0.0) + own[i]
    for n, s in self_s.items():
        out[f"{n.split('.')[0]}.self_s"] += s

    def total(table: dict, *keys: str) -> float:
        return float(sum(table.get(k, 0) for k in keys))

    def incl(*keys: str) -> float:
        return _inclusive(trace, set(keys))

    counted = {}
    in_pool_region = 0
    for cname, enclosing, n in trace.counts:
        counted[cname] = counted.get(cname, 0) + n
        if cname == "zcore.in_region" and enclosing >= 0 and names[enclosing] == "primes.gaussian_primes_in":
            in_pool_region += n
    find = "gaussdecomp.find_decomposition"
    splits = ("ratdecomp.split_into_odd_primes", "ratdecomp.split_into_residue34_primes")
    renderers = {n for n in names if n.endswith(".to_json_dict")} | {"cli._emit"}
    out.update({
        "primes.pool_s": incl("primes.gaussian_primes_in"),
        "primes.pool_calls": total(calls, "primes.gaussian_primes_in"),
        "primes.pool_entries": total(value_sum, "primes.gaussian_primes_in"),
        "primes.pool_in_region": float(in_pool_region),
        "primes.mr_calls": total(calls, "primes.is_rational_prime"),
        "primes.mr_s": incl("primes.is_rational_prime"),
        "primes.sieve_s": incl("primes.PrimeTable.sieve"),
        "primes.sieve_calls": total(calls, "primes.PrimeTable.sieve"),
        "zcore.gaussint_new": float(counted.get("zcore.GaussianInt.__post_init__", 0)),
        "gaussdecomp.find_calls": total(calls, find),
        "gaussdecomp.find_found": total(found, find),
        "gaussdecomp.find_found_s": total(found_self, find),
        "gaussdecomp.find_exhausted_s": total(self_s, find) - total(found_self, find),
        "gaussdecomp.sweep_s": total(self_s, "gaussdecomp.verify_diagonal_obstruction"),
        "gaussdecomp.sweep_sums": total(value_sum, "gaussdecomp.verify_diagonal_obstruction"),
        "gaussdecomp.scan_self_s": total(self_s, "gaussdecomp.scan_box", "gaussdecomp.scan_targets"),
        "gaussdecomp.targets_s": incl("gaussdecomp.box_targets", "gaussdecomp.region_targets"),
        "cli.render_s": incl(*renderers),
        "ratdecomp.split_calls": total(calls, *splits),
        "ratdecomp.split_found": total(found, *splits),
        "ratdecomp.split_s": total(self_s, *splits),
        "ratdecomp.scan_self_s": total(self_s, "ratdecomp.hypothesis_scan"),
        "diophantine.solve_s": incl("diophantine.solve_four_columns", "diophantine.solve_min_columns",
                                    "diophantine.solve_square_columns"),
        "diophantine.validate_s": incl("diophantine.SolutionMatrix.validate"),
        "golden.regen_s": incl("golden.regenerate_tables"),
        "golden.validate_s": incl("golden.validate_golden"),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from additive quantities summed over invocations."""
    out = {k: v for k, v in raw.items()
           if k not in ("primes.pool_in_region", "gaussdecomp.find_found", "ratdecomp.split_found")}
    out["primes.pool_keep_ratio"] = _ratio(raw["primes.pool_entries"], raw["primes.pool_in_region"])
    out["gaussdecomp.find_found_ratio"] = _ratio(raw["gaussdecomp.find_found"], raw["gaussdecomp.find_calls"])
    out["ratdecomp.split_found_ratio"] = _ratio(raw["ratdecomp.split_found"], raw["ratdecomp.split_calls"])
    return out


def main(argv: list[str]) -> int:
    out_path, rest = argv[0], argv[1:]
    plain = rest[0] == "--plain"
    cli_argv = rest[rest.index("--") + 1:]
    modules = {layer: importlib.import_module(f"shnirel.{layer}") for layer in LAYERS}
    tracer = Tracer()
    if not plain:
        tracer.install(modules)
    t0 = time.perf_counter()
    try:
        rc = modules["cli"].entry(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    tracer.uninstall()
    tracer.dump(out_path, rc=rc, wall=wall)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
