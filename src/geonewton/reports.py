"""Machine-readable experiment reports.

A report is one config echo, a list of per-measurement rows, a summary, and
the library version.  Serialization is deterministic: identical configs
(including the seed) produce byte-identical files.

CSV layout: ``# key=value`` comment lines carrying config, summary, and
version; then a header row and one data row per measurement.  Floats are
printed with 17 significant digits so values round-trip exactly.  LF line
endings, UTF-8.

JSON layout: one top-level object ``{config, rows, summary, version}`` with
sorted keys; rows are arrays ordered by ``config.columns``.  Parsing a JSON
report back yields an equal Report value; saturated slopes are carried as
null rather than NaN so the round trip is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ContractError


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _clean(value):
    """Replace non-finite floats (saturated slopes) with None for JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


@dataclass(frozen=True)
class Report:
    config: dict
    rows: tuple[tuple, ...]
    summary: dict
    version: str

    def __post_init__(self):
        config = _clean(dict(self.config))
        if "columns" not in config:
            raise ContractError("report config must carry the row column names")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "rows", tuple(tuple(_clean(list(r))) for r in self.rows))
        object.__setattr__(self, "summary", _clean(dict(self.summary)))
        width = len(config["columns"])
        for row in self.rows:
            if len(row) != width:
                raise ContractError("report row width does not match config.columns")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.config["columns"])

    def to_json_bytes(self) -> bytes:
        payload = {
            "config": self.config,
            "rows": [list(r) for r in self.rows],
            "summary": self.summary,
            "version": self.version,
        }
        return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8")

    def to_csv_bytes(self) -> bytes:
        lines = []
        for section, mapping in (("config", self.config), ("summary", self.summary)):
            for key in sorted(mapping):
                value = mapping[key]
                if isinstance(value, (list, tuple)):
                    value = ";".join(_fmt(v) for v in value)
                lines.append(f"# {section}.{key}={value}")
        lines.append(f"# version={self.version}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_bytes(self, fmt: str) -> bytes:
        if fmt == "json":
            return self.to_json_bytes()
        if fmt == "csv":
            return self.to_csv_bytes()
        raise ContractError(f"unknown report format {fmt!r}")


def report_from_json(data: bytes | str) -> Report:
    """Parse a JSON report; any input that is not one raises ``ContractError``."""
    try:
        payload = json.loads(data)
        return Report(
            config=payload["config"],
            rows=tuple(tuple(r) for r in payload["rows"]),
            summary=payload["summary"],
            version=payload["version"],
        )
    except KeyError as exc:
        raise ContractError(f"report JSON is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # not JSON, or JSON of another shape
        raise ContractError(f"not a report: {exc}") from exc
