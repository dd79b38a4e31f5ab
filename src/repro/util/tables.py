"""Small result-table helper used by the experiment harness.

Benchmarks and examples print paper-style result tables; :class:`Table`
keeps rows as dictionaries, renders aligned ASCII, and offers the few
selection helpers the harness needs.  It deliberately avoids any heavy
dataframe dependency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional


class Table:
    """An ordered collection of homogeneous result rows."""

    def __init__(self, columns: List[str], title: str = ""):
        self.columns = list(columns)
        self.title = title
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        """Append a row; every column must be supplied."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self.rows.append({c: values[c] for c in self.columns})

    def column(self, name: str) -> List[Any]:
        """Return all values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

    def where(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Table":
        """Return a new table containing the rows matching ``predicate``."""
        selected = Table(self.columns, self.title)
        selected.rows = [row for row in self.rows if predicate(row)]
        return selected

    def lookup(self, **criteria: Any) -> Dict[str, Any]:
        """Return the single row matching all ``criteria`` exactly."""
        matches = [row for row in self.rows
                   if all(row.get(k) == v for k, v in criteria.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} rows match {criteria}")
        return matches[0]

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self, max_width: Optional[int] = None) -> str:
        """Render an aligned ASCII table (optionally clipping cell width)."""
        cells = [[self._format_cell(row[c]) for c in self.columns]
                 for row in self.rows]
        if max_width:
            cells = [[c[:max_width] for c in row] for row in cells]
        widths = [max([len(col)] + [len(row[i]) for row in cells])
                  for i, col in enumerate(self.columns)]
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)
