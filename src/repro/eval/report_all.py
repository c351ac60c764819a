"""Regenerate every table and figure of the paper's evaluation (§6).

All rows come from :func:`repro.eval.workloads.compute_all_rows`, so
exporting ``REPRO_JOBS`` > 1 fans the seven applications out over a
process pool; the printed output is byte-identical either way.
"""

from __future__ import annotations

from typing import Optional

from . import backends, figure9, figure10, figure11, table1, table2, table3
from .workloads import compute_all_rows


def main(backend: Optional[str] = None) -> None:
    rows = compute_all_rows(backend=backend)
    sections = [
        ("Table 1", table1, rows["table1"]),
        ("Figure 9", figure9, rows["figure9"]),
        ("Table 2", table2, rows["table2"]),
        ("Figure 10", figure10, rows["figure10"]),
        ("Figure 11", figure11, rows["figure11"]),
        ("Table 3", table3, rows["table3"]),
        ("Backends", backends, rows["backends"]),
    ]
    for _name, module, data in sections:
        print("=" * 72)
        print(module.render(data))
        print()


if __name__ == "__main__":
    main()
