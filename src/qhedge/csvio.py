"""The artifact codec: the one place that writes and reads CSV artifacts.

A file is ``# key=value`` header lines, one row of column names, then one
comma-separated row per record.  Floats are written with 17 significant
digits, which round-trips every float64; integers in decimal; anything
else as ``str``.  So a fixed (config, seed) reproduces every artifact byte
for byte, and reading one back returns the computed values exactly.
"""

import warnings

import numpy as np

from .errors import DataFormatError

_FLOAT = "%.17g"
_BLOCK = 1 << 15  # rows formatted per write


def format_value(v) -> str:
    """A header or summary value as it appears in an artifact."""
    if isinstance(v, (float, np.floating)):
        return _FLOAT % v
    return str(v)


def write_csv(path, colnames, columns, header=None):
    """Write equal-length ``columns`` under ``colnames``, after one
    ``# key=value`` line per ``header`` item.  Each column's format follows
    its dtype, and one row template formats a whole block of rows."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError(f"columns of unequal length for {path}")
    spec = {"f": _FLOAT, "i": "%d", "u": "%d"}
    template = ",".join(spec.get(c.dtype.kind, "%s") for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {k}={format_value(v)}\n" for k, v in (header or {}).items())
        fh.write(",".join(colnames) + "\n")
        for lo in range(0, n, _BLOCK):
            rows = np.empty((min(_BLOCK, n - lo), len(cols)), dtype=object)
            for j, c in enumerate(cols):
                rows[:, j] = c[lo:lo + len(rows)]
            fh.write(template * len(rows) % tuple(rows.ravel()))


def read_csv(path):
    """``(meta, colnames, data)``: the header items as strings, the column
    names, and the records as a float array of one row each."""
    meta = {}
    with open(path) as fh:
        line = fh.readline()
        while line and (not line.strip() or line.lstrip().startswith("#")):
            key, _, val = line.strip()[1:].partition("=")
            if key:
                meta[key.strip()] = val.strip()
            line = fh.readline()
        colnames = line.strip().split(",")
        if not line or colnames[0].lstrip("+-").replace(".", "", 1).isdigit():
            raise DataFormatError(f"{path}: no column-name row")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # no data rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if data.shape[1] != len(colnames):
        raise DataFormatError(f"{path}: {data.shape[1]} values per row "
                              f"for {len(colnames)} columns {colnames}")
    return meta, colnames, data


def index_columns(path, data):
    """The leading ``path`` and ``t`` columns as integer arrays; every
    value must be a non-negative integer."""
    idx = data[:, :2]
    bad = ~((idx >= 0) & (idx == np.floor(idx)) & (idx < 2.0**53))
    if bad.any():
        i = np.flatnonzero(bad.any(axis=1))[0]
        raise DataFormatError(f"{path}: path and t must be non-negative integers; "
                              f"data row {i + 1} is {data[i].tolist()}")
    return idx[:, 0].astype(np.int64), idx[:, 1].astype(np.int64)
