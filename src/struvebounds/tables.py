"""The six built-in relative-error tables of registered bounds.

Each table is a TableSpec: a bound, the orders of its rows and the
arguments of its columns.  relative_error_cells computes the cells point by
point through the registry, |approximant/exact - 1|, and the render and
parse functions turn cells into text or long-form CSV and back.  Every cell
is a scalar point query, so this module loads no numpy: the table command
runs on the point path.  verify re-exports these names and builds its
ndarray relative_error_table from relative_error_cells.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from . import registry
from .brackets import Record, _set
from .errors import UnknownBound


class TableSpec(Record):
    """Layout of one built-in relative-error table of a registered bound
    against its target's exact value.

    zero_column(nu) is the entry in the x -> 0 limit (possibly infinite),
    or None when the table has no x = 0 column.
    """

    _fields = ("nu_rows", "x_cols", "approximant_id", "zero_column")

    def __init__(self, nu_rows: tuple[float, ...], x_cols: tuple[float, ...],
                 approximant_id: str, zero_column: Optional[Callable[[float], float]] = None):
        _set(self, "nu_rows", nu_rows)
        _set(self, "x_cols", x_cols)
        _set(self, "approximant_id", approximant_id)
        _set(self, "zero_column", zero_column)


TABLES: dict[int, TableSpec] = {
    1: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_lower", lambda nu: 0.0),
    2: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0),
                 "eq17_upper",
                 lambda nu: math.inf if nu == 0.0 else 1.0 / (2.0 * nu)),
    3: TableSpec((0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_lower", lambda nu: 0.0),
    4: TableSpec((0.5, 1.0, 2.5, 5.0, 7.5, 10.0),
                 (0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 25.0, 50.0),
                 "eq18_upper",
                 lambda nu: math.inf if nu == 0.5 else 2.0 / (2.0 * nu - 1.0)),
    5: TableSpec((0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq39_upper"),
    6: TableSpec((0.0, 1.0, 2.5, 5.0, 10.0),
                 (0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0),
                 "eq46_upper"),
}


def table_by_id(table_id: int) -> TableSpec:
    try:
        return TABLES[table_id]
    except KeyError:
        raise UnknownBound(f"no table with id {table_id}; valid ids are 1..6") from None


def relative_error_cells(spec: TableSpec) -> list[list[float]]:
    """|approximant/exact - 1| over the table layout, one list per order.

    The x = 0 column, when present, is filled from the table's limit rule.
    """
    bound = registry.get_bound(spec.approximant_id)
    cells = []
    for nu in spec.nu_rows:
        row = []
        for x in spec.x_cols:
            if x == 0.0:
                row.append(spec.zero_column(nu))
                continue
            exact = registry.exact_value(bound.target, nu, x)
            row.append(abs(bound.evaluate(nu, x) / exact - 1.0))
        cells.append(row)
    return cells


def render_table_text(spec: TableSpec, matrix) -> str:
    """Fixed four-decimal layout matching the built-in table presentation.
    matrix is the cells, as lists or as verify's ndarray."""
    header = ["nu\\x"] + [f"{x:g}" for x in spec.x_cols]
    lines = ["  ".join(f"{h:>8}" for h in header)]
    for nu, row in zip(spec.nu_rows, matrix):
        cells = [f"{nu:g}"] + ["inf" if math.isinf(v) else f"{v:.4f}" for v in row]
        lines.append("  ".join(f"{c:>8}" for c in cells))
    return "\n".join(lines)


def render_table_csv(spec: TableSpec, matrix) -> str:
    """Long-form CSV at full precision; infinite entries are an empty value
    cell with the is_inf flag set, so numeric consumers cannot silently parse
    a sentinel.  matrix is the cells, as lists or as verify's ndarray."""
    lines = ["nu,x,value,is_inf"]
    for nu, row in zip(spec.nu_rows, matrix):
        for x, v in zip(spec.x_cols, row):
            if math.isinf(v):
                lines.append(f"{nu!r},{x!r},,1")
            else:
                lines.append(f"{nu!r},{x!r},{float(v)!r},0")
    return "\n".join(lines)


def parse_table_csv(text: str) -> dict[tuple[float, float], float]:
    """Inverse of render_table_csv; infinite cells come back as math.inf."""
    out: dict[tuple[float, float], float] = {}
    lines = text.strip().splitlines()
    if lines[0] != "nu,x,value,is_inf":
        raise ValueError(f"unexpected header {lines[0]!r}")
    for line in lines[1:]:
        nu_s, x_s, v_s, flag = line.split(",")
        out[(float(nu_s), float(x_s))] = math.inf if flag == "1" else float(v_s)
    return out
