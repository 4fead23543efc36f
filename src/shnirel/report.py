"""The one writer every report type shares, and the exceptions every
command may raise."""

from __future__ import annotations

from itertools import chain, islice

from .zcore import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from typing import IO

FORMATS = ("md", "csv", "json")

# Lines per write call
_BLOCK = 1024


class SearchExhausted(Exception):
    """No decomposition of the requested shape exists."""


class HypothesisViolation(Exception):
    """A split that scanned evidence guarantees failed to materialize."""


class Report(Record):
    """Base of the report types, which are records. A subclass gives
    to_json_dict(), its JSON payload, and md_lines() and csv_lines(),
    iterables of lines that each end in a newline."""

    def json_lines(self) -> Iterable[str]:
        """The JSON text: to_json_dict() with sorted keys, indent 2 and a
        final newline. A subclass may write the same bytes another way."""
        # imported here, so md and csv runs skip its import cost
        from json import JSONEncoder

        # streamed in chunks, as json.dump writes them: json.dumps would
        # hold every chunk of a large report at once
        chunks = JSONEncoder(sort_keys=True, indent=2).iterencode(self.to_json_dict())
        return chain(chunks, "\n")

    def write(self, fh: IO[str], fmt: str) -> None:
        """Write the payload in fmt, its lines joined _BLOCK at a time: a
        write call per line costs about as much as formatting a CSV row."""
        if fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
        lines = iter(getattr(self, f"{fmt}_lines")())
        for line in lines:
            fh.write("".join(chain((line,), islice(lines, _BLOCK - 1))))
