"""The one CSV artifact writer: a header line, then one row per index of the
columns, every value with 17 significant digits."""
from __future__ import annotations

import io
from typing import Sequence


def write_csv(path_or_buf, header: Sequence[str], columns) -> None:
    """Write `columns` (equal-length sequences, one per name in `header`) as
    CSV rows to a path or an open text buffer.

    Every value goes through ``%.17g``, so a float round-trips exactly and an
    integer count prints without a decimal point.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    buf = path_or_buf if isinstance(path_or_buf, io.IOBase) \
        else open(path_or_buf, "w", newline="")
    try:
        buf.write(",".join(header) + "\n")
        for values in zip(*columns):
            buf.write(row % values)
    finally:
        if buf is not path_or_buf:
            buf.close()
