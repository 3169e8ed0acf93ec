"""Deterministic experiment reports.

A report is a plain record: name, the config that produced it, one dict
per measured case, summary statistics, and a verdict derived only from the
recorded measurements.  Serialization is canonical (sorted keys, shortest
round-trip floats), so identical runs produce byte-identical files.
Wall-clock metadata never enters the report; it goes to a sidecar file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

import numpy as np


def plain(obj: Any) -> Any:
    """Recursively convert to JSON-serializable builtins; exact values to strings."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return plain(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass
class ExperimentReport:
    """One experiment's complete, reproducible record."""

    name: str
    config: dict
    cases: list[dict]
    summary: dict
    verdict: bool
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "config": plain(self.config),
            "cases": plain(self.cases),
            "summary": plain(self.summary),
            "verdict": bool(self.verdict),
            "provenance": plain(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: Union[str, Path], **run_meta) -> Path:
        """Write the report; timestamps and ``run_meta`` go only to a ``.meta.json`` sidecar."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        meta = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "report": path.name,
            **run_meta,
        }
        sidecar = path.with_name(path.stem + ".meta.json")
        sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        return path

    def write_cases_csv(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = sorted({k for case in self.cases for k in case})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for case in self.cases:
                row = [plain(case.get(c)) for c in columns]
                writer.writerow(["" if v is None else v for v in row])
        return path

    def write_series_tsv(
        self,
        path: Union[str, Path],
        xkey: str,
        ykey: str,
        rows: list[dict] | None = None,
    ) -> Path:
        """Plot-ready two-column series, from the cases unless rows are given."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{xkey}\t{ykey}"]
        for row in self.cases if rows is None else rows:
            if xkey in row and ykey in row:
                lines.append(f"{plain(row[xkey])}\t{plain(row[ykey])}")
        path.write_text("\n".join(lines) + "\n")
        return path


def load_report(path: Union[str, Path]) -> ExperimentReport:
    """Read a report JSON; ``ValueError`` names what a malformed file lacks."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a report is a JSON object, got {type(data).__name__}")
    missing = [key for key in ("name", "config", "cases", "summary", "verdict") if key not in data]
    if missing:
        raise ValueError(f"{path}: report lacks {', '.join(repr(key) for key in missing)}")
    if not (isinstance(data["cases"], list) and all(isinstance(case, dict) for case in data["cases"])):
        raise ValueError(f"{path}: report 'cases' must be a list of objects")
    return ExperimentReport(
        name=data["name"],
        config=data["config"],
        cases=data["cases"],
        summary=data["summary"],
        verdict=data["verdict"],
        provenance=data.get("provenance", {}),
    )
