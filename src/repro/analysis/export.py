"""CSV / JSON export of experiment rows.

Every harness function returns rows as a list of flat dicts; these
helpers persist them under ``results/`` so the README's results table
can reference stable artifacts.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.errors import ConfigError


def rows_to_csv(rows, path):
    """Write dict rows to ``path`` as CSV (keys of the first row = header)."""
    if not rows:
        raise ConfigError("rows must be non-empty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def rows_to_json(rows, path):
    """Write dict rows to ``path`` as pretty-printed JSON."""
    if not rows:
        raise ConfigError("rows must be non-empty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(rows, handle, indent=2, default=float)
        handle.write("\n")
    return path
