"""Column-at-a-time CSV files: the trace and dataset on-disk format.

A file is one header row of column names, then one row per sample, fields
joined by "," and rows ended by "\\r\\n" (what `csv.writer` writes).  Floats
are written with `repr`, the shortest string that parses back to the same
double, so a file round-trips bit for bit through `read_columns`.

`write_columns` formats each chunk of rows with one `%` over a repeated row
template; a column bit-identical over the chunk is formatted once, into the
template (bytes are compared, so 0.0/-0.0 or NaN payloads never fold).
"""

from __future__ import annotations

import contextlib
import csv
import warnings

import numpy as np

# rows formatted per batch: the Python floats and strings alive at once stay
# bounded however long the run, while per-batch overhead stays negligible
CHUNK_ROWS = 256


def write_columns(path, header, columns, specs) -> None:
    """Write equal-length 1-D arrays as CSV, column i by printf spec specs[i] ("%d", "%r")."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), CHUNK_ROWS):
            n = min(CHUNK_ROWS, len(columns[0]) - lo)
            fields, varying = [], []
            for spec, col in zip(specs, columns):
                block = col[lo : lo + n]
                if block.tobytes() == block[:1].tobytes() * n:
                    fields.append(spec % block.item(0))
                else:
                    fields.append(spec)
                    varying.append(block.tolist())
            values = [None] * (n * len(varying))
            for j, column in enumerate(varying):
                values[j :: len(varying)] = column
            fh.write((",".join(fields) + "\r\n") * n % tuple(values))


def read_columns(path, names) -> list[list[float]]:
    """The named columns of a CSV file as lists of floats, in `names` order.

    Raises `ValueError` naming the file when it does not decode, lacks a header,
    a named column or data rows, or has a row whose field count differs from the
    header's or a field that is not a number.  Blank lines are skipped.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            missing = ",".join(n for n in names if n not in header)
            if missing:
                raise ValueError(f"{path}: header {','.join(header)} has no column {missing}")
            index = [header.index(n) for n in names]
            # numpy parses the rows, but a line it may read otherwise than csv.reader and float()
            # do (over csv's field limit; \x1c-\x1f, which numpy strips) reads as "?", refused
            limit, table = csv.field_size_limit(), ()
            lines = (s if len(s) <= limit and "\x1c" not in s and "\x1d" not in s
                     and "\x1e" not in s and "\x1f" not in s else "?" for s in fh)
            with warnings.catch_warnings(), contextlib.suppress(ValueError):  # csv loop words it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if len(table) and table.shape[1] == len(header):
                return [table[:, i].tolist() for i in index]
            fh.seek(0)
            next(reader := csv.reader(fh))
            cols = [[] for _ in names]
            try:
                for row in reader:
                    if len(row) != len(header):
                        if not row:
                            continue
                        raise ValueError(f"{len(row)} fields, header has {len(header)}")
                    for col, i in zip(cols, index):
                        col.append(float(row[i]))
            except UnicodeDecodeError:
                raise
            except (ValueError, csv.Error) as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # text is decoded a block at a time, so no line is named
        raise ValueError(f"{path}: {exc}") from None
    if not cols[0]:
        raise ValueError(f"{path}: header but no data rows")
    return cols
