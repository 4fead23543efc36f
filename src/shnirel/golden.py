"""Reference tables of small octant targets written as sums of two or
three odd sector primes, shipped as package data.

Table 1 holds odd targets with three terms, table 2 even targets with
two. Each stored term is a sector prime plus the unit applied to it; all
summands land in the closed half region and every summand norm stays
below the target norm. The validator re-checks all of that against the
arithmetic core, and the regenerator re-derives each row with the
region searcher.
"""

from __future__ import annotations

import csv
import io
from importlib import resources

from .gaussdecomp import (
    Decomposition,
    NormPolicy,
    find_decomposition,
    verify_decomposition,
)
from .report import Report
from .zcore import GaussianInt, Parity, Record, Region, Unit, in_region
from .zcore import parity as parity_of

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

DATA_RESOURCE = "data/golden_tables.csv"


class GoldenRow(Record):
    table: int
    target: GaussianInt
    terms: tuple[tuple[GaussianInt, Unit], ...]
    form: str
    note: str

    @property
    def k(self) -> int:
        return len(self.terms)

    def summands(self) -> list[GaussianInt]:
        return [u.apply(g) for g, u in self.terms]

    def to_decomposition(self) -> Decomposition:
        return Decomposition(
            self.target,
            self.terms,
            Region.PRIME_HALF,
            NormPolicy.STRICT_LESS,
        )


def _parse_rows(text: str) -> tuple[GoldenRow, ...]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        terms = []
        for slot in ("t1", "t2", "t3"):
            re_txt = rec[f"{slot}_re"]
            if not re_txt:
                continue
            g = GaussianInt(int(re_txt), int(rec[f"{slot}_im"]))
            terms.append((g, Unit.from_label(rec[f"{slot}_unit"])))
        rows.append(
            GoldenRow(
                int(rec["table"]),
                GaussianInt(int(rec["z_re"]), int(rec["z_im"])),
                tuple(terms),
                rec["form"],
                rec["note"],
            )
        )
    return tuple(rows)


def load_golden() -> tuple[GoldenRow, ...]:
    """The packaged rows, in file order."""
    text = resources.files(__package__).joinpath(DATA_RESOURCE).read_text()
    return _parse_rows(text)


class GoldenValidation(Report):
    total: int
    failures: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "failures": [{"row": i, "reason": msg} for i, msg in self.failures],
        }

    def md_lines(self) -> Iterator[str]:
        yield f"{self.total} rows, {len(self.failures)} failures\n"
        for i, reason in self.failures:
            yield f"row {i}: {reason}\n"

    def csv_lines(self) -> Iterator[str]:
        yield "row,reason\n"
        for i, reason in self.failures:
            yield f"{i},{reason}\n"


def validate_golden(rows: tuple[GoldenRow, ...]) -> GoldenValidation:
    """Re-check every stored fact about every row."""
    failures: list[tuple[int, str]] = []
    for i, row in enumerate(rows):
        try:
            if not in_region(row.target, Region.OCTANT):
                raise ValueError(f"target {row.target} outside the octant")
            want = Parity.ODD if row.table == 1 else Parity.EVEN
            if parity_of(row.target) is not want:
                raise ValueError(f"target {row.target} has the wrong parity")
            want_k = 3 if row.table == 1 else 2
            if row.k != want_k:
                raise ValueError(f"expected {want_k} terms, found {row.k}")
            verify_decomposition(row.to_decomposition())
        except ValueError as exc:
            failures.append((i, str(exc)))
    return GoldenValidation(len(rows), tuple(failures))


class RegenReport(Report):
    """Outcome of re-deriving each row with the region searcher."""

    results: tuple[tuple[GoldenRow, Decomposition | None], ...]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> tuple[GoldenRow, ...]:
        return tuple(row for row, dec in self.results if dec is None)

    @property
    def matches(self) -> int:
        return sum(
            1
            for row, dec in self.results
            if dec is not None and dec.summands() == row.summands()
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "matches": self.matches,
            "failures": [str(row.target) for row in self.failures],
            "rows": [
                {
                    "target": str(row.target),
                    "stored": [str(s) for s in row.summands()],
                    "regenerated": None
                    if dec is None
                    else [str(s) for s in dec.summands()],
                }
                for row, dec in self.results
            ],
        }

    def md_lines(self) -> Iterator[str]:
        yield (
            f"{self.total} rows, {self.total - len(self.failures)} regenerated, "
            f"{self.matches} match the stored witnesses\n"
        )
        for row in self.failures:
            yield f"failed: {row.target}\n"

    def csv_lines(self) -> Iterator[str]:
        yield "target,stored,regenerated\n"
        for row, dec in self.results:
            stored = "+".join(f"({s})" for s in row.summands())
            regen = "" if dec is None else "+".join(f"({s})" for s in dec.summands())
            yield f"{row.target},{stored},{regen}\n"


def regenerate_tables(rows: tuple[GoldenRow, ...]) -> RegenReport:
    """Re-derive every row's decomposition under the same constraints:
    half-region primes, norms strictly below the target, at most as many
    terms as the stored row. Witnesses may differ from the stored ones;
    what matters is that each target still decomposes."""
    results = []
    for row in rows:
        dec = find_decomposition(
            row.target,
            Region.PRIME_HALF,
            row.k,
            NormPolicy.STRICT_LESS,
        )
        results.append((row, dec))
    return RegenReport(tuple(results))


__all__ = [
    "DATA_RESOURCE",
    "GoldenRow",
    "GoldenValidation",
    "RegenReport",
    "load_golden",
    "regenerate_tables",
    "validate_golden",
]
