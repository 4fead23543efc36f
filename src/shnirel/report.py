"""The one writer every report type shares."""

from __future__ import annotations

from typing import IO

FORMATS = ("md", "csv", "json")


class Report:
    """Base of the report types. A subclass gives to_json_dict(), its
    JSON payload, and md_lines() and csv_lines(), iterables of lines
    that each end in a newline."""

    def write(self, fh: IO[str], fmt: str) -> None:
        if fmt == "json":
            # imported here, so md and csv runs skip its import cost
            import json

            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        elif fmt == "md":
            fh.writelines(self.md_lines())
        elif fmt == "csv":
            fh.writelines(self.csv_lines())
        else:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
