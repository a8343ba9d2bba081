"""Result export: write experiment rows to CSV (the artifact's ``plots/``).

The paper's artifact post-processes raw results into per-figure CSV files
before plotting; :func:`export_csv` writes rows in that form, so
downstream plotting scripts (matplotlib, gnuplot, spreadsheets) can
consume this reproduction's output directly.  ``scale`` writes its
``run_table.csv`` through it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

__all__ = ["export_csv"]


def export_csv(
    rows: Sequence[Dict[str, Any]],
    path: Union[str, Path],
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write experiment rows to ``path`` as CSV; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    if columns is None:
        columns = list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns),
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
