"""The artifact codec: the one place that writes and reads CSV artifacts.

A file is ``# key=value`` header lines, one row of column names, then one
comma-separated row per record.  Floats are written with 17 significant
digits, which round-trips every float64; integers in decimal; anything
else as ``str``.  So a fixed (config, seed) reproduces every artifact byte
for byte, and reading one back returns the computed values exactly.

It is also the one place that knows the record layout: ``write_table``
turns arrays into one record per element, and ``scatter_records`` turns
(path, t) records back into panels, checking that they fill them.
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


def write_table(path, axes, values, header=None):
    """Write arrays of one shape as one record per element, in C order:
    first one column per axis of ``axes`` (name -> that axis's labels, or
    None for its index), then one per array of ``values`` (name -> array)."""
    arrays = [np.asarray(v) for v in values.values()]
    shape = arrays[0].shape
    if len(axes) != len(shape) or any(a.shape != shape for a in arrays):
        raise ValueError(f"arrays of one {len(axes)}-axis shape expected for {path}")
    index = [np.broadcast_to(i if labels is None else np.asarray(labels)[i], shape).ravel()
             for labels, i in zip(axes.values(), np.indices(shape, sparse=True))]
    write_csv(path, [*axes, *values], [*index, *(a.ravel() for a in arrays)], header)


def typed_header(source, meta, keys):
    """The ``keys`` (name -> type) of a ``read_csv`` header, converted; a
    missing key or a value its type rejects names ``source`` and the key."""
    out = {}
    for key, typ in keys.items():
        if key not in meta:
            raise DataFormatError(f"{source}: header missing key {key!r}")
        try:
            out[key] = typ(meta[key])
        except ValueError:
            raise DataFormatError(f"{source}: header value {key}={meta[key]!r} is not "
                                  f"a valid {typ.__name__}") from None
    return out


def scatter_records(source, path, t, columns, n_steps=None):
    """Place flat (path, t) records, in any order, into step-major panels:
    returns the distinct path ids, ascending, and per name of ``columns``
    (one value per record) an (n_steps, n_paths) panel.  The records must
    fill the panels: path and t non-negative integers, t below n_steps (by
    default one past the largest t), values finite, one record per cell.
    Each error names ``source`` and the (path, t) cell."""
    def reject(wrong, message):
        i = np.flatnonzero(wrong)
        if i.size:
            raise DataFormatError(f"{source}: {message(i[0])}")

    pid, ts = np.asarray(path, dtype=float), np.asarray(t, dtype=float)
    vals = {name: np.asarray(v, dtype=float) for name, v in columns.items()}
    rows = [pid, ts, *vals.values()]
    reject(~np.all([(c >= 0) & (c == np.floor(c)) & (c < 2.0**53) for c in (pid, ts)], axis=0),
           lambda i: f"path and t must be non-negative integers; "
                     f"data row {i + 1} is {[float(c[i]) for c in rows]}")
    pid, ts = pid.astype(np.int64), ts.astype(np.int64)
    n = int(ts.max()) + 1 if n_steps is None else n_steps
    reject(ts >= n, lambda i: f"cell (path={pid[i]}, t={ts[i]}) is outside t in [0, {n})")
    for name, v in vals.items():
        reject(~np.isfinite(v), lambda i: f"non-finite {name} {v[i]} at cell "
                                          f"(path={pid[i]}, t={ts[i]})")
    ids = np.unique(pid)
    cell = ts * ids.size + np.searchsorted(ids, pid)
    del pid, ts  # record-sized; free before the panels are allocated
    hits = np.bincount(cell, minlength=n * ids.size)
    for wrong, what in ((hits > 1, "duplicate rows for cell"), (hits == 0, "missing cell")):
        reject(wrong, lambda j: f"{what} (path={ids[j % ids.size]}, t={j // ids.size})")
    panels = {name: np.empty((n, ids.size)) for name in vals}
    for name, v in vals.items():
        panels[name].reshape(-1)[cell] = v
    return ids, panels
