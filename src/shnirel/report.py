"""The one writer every report type shares, and the exceptions every
command may raise."""

from __future__ import annotations

from itertools import chain, islice

from .zcore import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from typing import IO

FORMATS = ("md", "csv", "json")

# Lines per write call
_BLOCK = 1024


def _quote(s: str) -> str:
    """s as json.dumps writes a str. For ASCII text, isprintable() means
    exactly 0x20-0x7E, the characters ensure_ascii leaves as they are, so
    such text is only wrapped in quotes unless it holds " or \\. Other
    text goes to json's own escaper, imported only on that path."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _scalar(v) -> str | None:
    """The JSON text of a str, int, bool or None; None for anything else."""
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, int):
        if v is True:
            return "true"
        return "false" if v is False else int.__repr__(v)
    return "null" if v is None else None


def _json_chunks(v, pad: str) -> Iterator[str]:
    """json.dumps(v, sort_keys=True, indent=2) in chunks, one or two per
    container item, for a value whose lines are indented by pad less its
    leading newline. A dict key that is no str, or a value of no JSON
    type, raises TypeError."""
    if isinstance(v, dict):
        if not v:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(v):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = v[key]
            text = _scalar(item)
            if text is None:
                yield sep + _quote(key) + ": "
                yield from _json_chunks(item, inner)
            else:
                yield sep + _quote(key) + ": " + text
            sep = "," + inner
        yield pad + "}"
    elif isinstance(v, (list, tuple)):
        if not v:
            yield "[]"
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in v:
            text = _scalar(item)
            if text is None:
                yield sep
                yield from _json_chunks(item, inner)
            else:
                yield sep + text
            sep = "," + inner
        yield pad + "]"
    else:
        text = _scalar(v)
        if text is None:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        yield text


class SearchExhausted(Exception):
    """No decomposition of the requested shape exists."""


class HypothesisViolation(Exception):
    """A split that scanned evidence guarantees failed to materialize."""


class Report(Record):
    """Base of the report types, which are records. A subclass gives
    to_json_dict(), its JSON payload, and md_lines() and csv_lines(),
    iterables of lines that each end in a newline."""

    def json_lines(self) -> Iterable[str]:
        """The JSON text: the bytes json.dumps(to_json_dict(), sort_keys=True,
        indent=2) gives, plus a newline, streamed a container item at a
        time so that a large report is never held as one string. The
        payload holds dicts with str keys, lists, tuples, str, int, bool
        and None; anything else raises TypeError. A subclass may write the
        same bytes another way."""
        return chain(_json_chunks(self.to_json_dict(), "\n"), "\n")

    def write(self, fh: IO[str], fmt: str) -> None:
        """Write the payload in fmt, its lines joined _BLOCK at a time: a
        write call per line costs about as much as formatting a CSV row."""
        if fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
        lines = iter(getattr(self, f"{fmt}_lines")())
        for line in lines:
            fh.write("".join(chain((line,), islice(lines, _BLOCK - 1))))
