"""The artifact codec: the one place that writes and reads CSV artifacts.

A file is ``# key=value`` header lines, one row of column names, then one
comma-separated row per record, each value as ``%.17g`` (floats: 17
significant digits, which round-trips every float64), ``%d`` (integers) or
``str`` writes it.  So a fixed (config, seed) reproduces every artifact
byte for byte, and reading one back returns the computed values exactly.
numpy formats records byte-identically to those: a float 0 or 1e-4 <= |v|
< 1e16 takes its digits from Dekker's exact product and, like an integer
in [0, 1e17), is laid out four digits at a time from a table; any other
value (non-finite, subnormal, other magnitudes, negative integers,
labels) goes through Python's format.

It is also the one place that knows the record layout: ``write_table``
turns arrays, or functions that hand out a block of their rows at a time,
into one record per element, and ``read_panels`` reads (path, t) records
back, those in that order straight into panels and others through
``scatter_records``, which places them in any order, checking that they
fill the panels and naming what is wrong.

Records are formatted and parsed on every usable CPU: a large table is
cut into contiguous ranges of records, one process per CPU formats or
parses its range, and the ranges are joined in file order, so the bytes
written and the floats read are byte-identical to one process's.  Tables
below a fixed size per process, and platforms without ``os.fork`` or
``os.sched_getaffinity``, use one process.  There is no setting for it.

Records are read one column at a time: each range is parsed a piece of
lines at a time, a worker sends its columns one after another, and the
reader hands each column to a sink a piece at a time, never one
(records, columns) block, on one CPU or many.  The default sink keeps
one array per column; ``read_panels``' sink places each piece in its panel.
"""

import contextlib
import io
import itertools
import os
import sys
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataFormatError

_FLOAT = "%.17g"
_BLOCK = 1 << 13  # records per piece read
# Values (records x columns) per block written, in whole rows, at least one: a
# block's text temporaries then take about the same room whatever the width.
_WRITE_VALUES = 1 << 15
# Fewest records written, and data bytes read, per process: below them a
# table is not worth a fork.  2^15 records is about 2^21 bytes of dataset.
_SPLIT_RECORDS = 1 << 15
_SPLIT_BYTES = 1 << 21
_PARSE_BYTES = 1 << 20  # data bytes parsed per call into a range's columns


def format_value(v) -> str:
    """A header or summary value as it appears in an artifact."""
    if isinstance(v, (float, np.floating)):
        return _FLOAT % v
    return str(v)


def read_columns(path, sink=None):
    """``(meta, colnames, columns)``: the header items as strings, the
    column names, and the records as one float array per column.

    ``sink``, a function of (meta, colnames) called once the column names
    are read, returns an object that takes the records instead, and whose
    ``finish`` is returned in place of the columns: ``start(n, k)`` with
    at least the record count n and the column count k, then ``put(c,
    row, values)`` with the values of column c at records row onward,
    each column's pieces in file order, then ``finish(n)`` with the record
    count.  A parse that fails part way starts it again."""
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
        into = _Columns() if sink is None else sink(meta, colnames)
        shape = _read_split(fh, into)
        if shape is None:
            try:
                block = _loadtxt(fh)
            except UserWarning:
                raise DataFormatError(f"{path}: no data rows") from None
            except ValueError as exc:
                raise DataFormatError(f"{path}: {exc}") from exc
            into.start(*(shape := block.shape))
            for c in range(shape[1]):
                into.put(c, 0, block[:, c])
            del block
    if shape[1] != len(colnames):
        raise DataFormatError(f"{path}: {shape[1]} values per row "
                              f"for {len(colnames)} columns {colnames}")
    return meta, colnames, into.finish(shape[0])


class _Columns:
    """``read_columns``' own sink: one float array per column."""

    def start(self, n, k):
        self.columns = [np.empty(n) for _ in range(k)]

    def put(self, c, row, values):
        self.columns[c][row:row + len(values)] = values

    def finish(self, n):
        return [column[:n] for column in self.columns]


def _loadtxt(lines):
    """The records of ``lines`` as a float array of one row each; no data
    rows raise a UserWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # no data rows
        return np.loadtxt(lines, delimiter=",", ndmin=2)


def _read_split(fh, sink):
    """Put the records after ``fh``'s position into ``sink`` (see
    ``read_columns``) and return their (records, columns): parsed here
    when one process gets the whole body, else by one forked worker per
    usable CPU, each on a byte range of whole lines, whose columns are
    taken a piece at a time in file order.  None when a parse fails or the
    workers disagree on the column count, which leaves the whole body to
    one parse of it (and so every error to that)."""
    fd = fh.fileno()
    end = os.fstat(fd).st_size
    start = fh.tell() if fh.seekable() else end  # a byte offset at a line start
    n = _n_procs(end - start, _SPLIT_BYTES)
    cuts = sorted({start, end, *(_line_start(fd, start + (end - start) * i // n, end)
                                 for i in range(1, n))})
    if len(cuts) < 3:
        try:
            return _parse_columns(fd, start, end, fh.encoding, sink) if start < end else None
        except (ValueError, UserWarning):
            return None
    with _Workers() as workers, contextlib.ExitStack() as pipes:
        parts = []
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            r, w = os.pipe()
            parts.append(pipes.enter_context(open(r, "rb")))
            with open(w, "wb") as out:  # the worker's copy stays open
                workers.start(i, _parse_range, fd, lo, hi, fh.encoding, out,
                              [p.fileno() for p in parts])
        shapes = [np.frombuffer(p.read(16), np.int64) for p in parts]
        if any(s.size != 2 for s in shapes) or len({int(s[1]) for s in shapes}) != 1:
            return None
        k = int(shapes[0][1])
        sink.start(sum(int(s[0]) for s in shapes), k)
        piece, row = np.empty(_BLOCK), 0
        for i, (p, s) in enumerate(zip(parts, shapes)):
            for c in range(k):
                for lo in range(0, s[0], _BLOCK):
                    values = piece[:min(_BLOCK, s[0] - lo)]
                    view = memoryview(values).cast("B")
                    if p.readinto(view) != view.nbytes:
                        return None
                    sink.put(c, row + lo, values)
            if not workers.ok(i):
                return None
            row += int(s[0])
    return row, k


def _parse_range(fd, lo, hi, encoding, out, readers):
    """In a worker: close the pipes' read ends it inherited (``readers``),
    parse bytes ``lo:hi`` of ``fd`` into columns, and send their shape
    (records, columns) and then each column's bytes.  With no read end
    left but the reader's, a write after the reader died fails (EPIPE)
    and the worker exits, where it would otherwise block on a full pipe."""
    for r in readers:
        os.close(r)
    columns = _Columns()
    shape = _parse_columns(fd, lo, hi, encoding, columns)
    out.write(np.array(shape, np.int64).tobytes())
    for column in columns.finish(shape[0]):
        out.write(memoryview(column).cast("B"))
    out.flush()


def _parse_columns(fd, lo, hi, encoding, sink):
    """Put the records in bytes ``lo:hi`` of ``fd`` (whole lines, decoded
    as ``open`` would) into ``sink``, started with the range's line count,
    and return their (records, columns).  The range is parsed
    ``_PARSE_BYTES`` of whole lines at a time, and each piece's columns
    are put in turn, so no (records, columns) block of the whole range is
    made; each value is parsed as one parse of the range would parse it."""
    cuts = [lo]
    while cuts[-1] < hi:
        cuts.append(_line_start(fd, min(cuts[-1] + _PARSE_BYTES, hi), hi))
    k, row = None, 0
    for a, b in zip(cuts, cuts[1:]):
        part = _loadtxt(io.TextIOWrapper(_ByteRange(fd, a, b), encoding=encoding))
        if k is None:
            sink.start(_count_lines(fd, lo, hi), k := part.shape[1])
        elif part.shape[1] != k:
            raise ValueError("number of columns changed")
        for c in range(k):
            sink.put(c, row, part[:, c])
        row += len(part)
    return row, k


def _count_lines(fd, lo, hi):
    """Lines in bytes ``lo:hi`` of ``fd``, a last one without a newline
    counted: the most records they can hold."""
    count, pos = 1, lo
    while pos < hi:
        chunk = os.pread(fd, min(_PARSE_BYTES, hi - pos), pos)
        if not chunk:
            break
        count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        pos += len(chunk)
    return count


class _ByteRange(io.BufferedIOBase):
    """Bytes ``lo:hi`` of the file open as ``fd``, read by offset."""

    def __init__(self, fd, lo, hi):
        self.fd, self.pos, self.end = fd, lo, hi

    def readable(self):
        return True

    def read1(self, size=-1):
        left = self.end - self.pos
        data = os.pread(self.fd, left if size < 0 else min(size, left), self.pos)
        self.pos += len(data)
        return data


def _line_start(fd, pos, end):
    """The first offset at or after ``pos`` (> 0) that starts a line of
    ``fd``, or ``end``."""
    chunk = 1 << 16
    while pos < end:
        i = os.pread(fd, chunk, pos - 1).find(b"\n")
        if i >= 0:
            return min(pos + i, end)
        pos += chunk - 1
    return end


def _n_procs(size, minimum):
    """Processes to share ``size`` units of work: one per usable CPU, each
    with at least ``minimum`` units; one where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // minimum))


class _Workers:
    """Forked workers, keyed by the caller.  A worker runs one function
    and leaves through ``os._exit``: status 0 if the function returned, 1
    if it raised.  Workers touch no BLAS.  Leaving the ``with`` block
    kills and reaps every worker not yet waited for."""

    def __init__(self):
        self.pids = {}

    def __enter__(self):
        return self

    def start(self, key, work, *args):
        sys.stdout.flush()
        sys.stderr.flush()
        with warnings.catch_warnings():
            # Python 3.12 warns when forking with threads, such as BLAS's
            # idle pool; a worker runs no BLAS and no other thread's code.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                work(*args)
                code = 0
            finally:
                os._exit(code)
        self.pids[key] = pid

    def ok(self, key):
        """Wait for worker ``key``: True if it was started and exited 0."""
        pid = self.pids.pop(key, None)
        return pid is not None and os.waitpid(pid, 0)[1] == 0

    def __exit__(self, *exc):
        if self.pids:
            import signal  # only a worker left behind by an error needs it
            for pid in self.pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self.pids.clear()


def write_table(path, axes, values, header=None):
    """Write arrays of one shape as one record per element, in C order,
    after one ``# key=value`` line per ``header`` item: first one column
    per axis of ``axes`` (name -> that axis's labels, or None for its
    index), then one per value of ``values`` (name -> an array, or a
    function of a slice of rows, over the first axis, that returns those
    rows of the array, so that no whole array need exist).  The shape is
    the arrays', or, where every value is a function, the lengths of the
    axes' labels.  Each column's format follows its dtype; each block of
    records, ``_WRITE_VALUES`` values' worth of whole rows (at least one),
    is gathered from the values as it is written and formatted by
    ``_column_text``.  The rows are cut into one contiguous range of whole
    blocks per process: this one writes the first, and a forked worker
    formats each other into an unnamed file in the output directory,
    copied in after it; a range whose worker failed or found no such file
    is written here."""
    labels = [None if lab is None else np.asarray(lab) for lab in axes.values()]
    values = {name: v if callable(v) else np.asarray(v) for name, v in values.items()}
    arrays = [v for v in values.values() if not callable(v)]
    shape = arrays[0].shape if arrays else tuple(len(lab) for lab in labels if lab is not None)
    if len(axes) != len(shape) or any(a.shape != shape for a in arrays):
        raise ValueError(f"arrays of one {len(axes)}-axis shape, or labels on every "
                         f"axis, expected for {path}")
    n = int(np.prod(shape))
    n_rows, per_row = (shape[0], n // shape[0]) if n else (0, 1)  # and records in a row
    rows_per_block = max(1, _WRITE_VALUES // (len(axes) + len(values)) // per_row)
    gathers = [v if callable(v) else v.__getitem__ for v in values.values()]

    def write_records(out, lo, hi):
        for start in range(lo, hi, rows_per_block):
            rows = slice(start, min(start + rows_per_block, hi))
            index = np.unravel_index(np.arange(rows.start * per_row, rows.stop * per_row), shape)
            cols = [i if lab is None else lab[i] for lab, i in zip(labels, index)]
            cols += [np.reshape(gather(rows), -1) for gather in gathers]
            comma = np.full((index[0].size, 1), ord(","), np.uint8)
            text = np.concatenate([part for c in cols
                                   for part in (*_column_text(c, fh.encoding), comma)], axis=1)
            text[:, -1] = ord("\n")
            out.write(text.ravel()[text.ravel() != 0])
        out.flush()

    procs, blocks = _n_procs(n, _SPLIT_RECORDS), -(-n_rows // rows_per_block)
    cuts = [min(n_rows, blocks * i // procs * rows_per_block) for i in range(procs + 1)]
    directory = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as fh, _Workers() as workers, contextlib.ExitStack() as stack:
        fh.writelines(f"# {k}={format_value(v)}\n" for k, v in (header or {}).items())
        fh.write(",".join([*axes, *values]) + "\n")
        fh.flush()
        tmp = {}
        for i in range(1, procs):
            try:
                fd = os.open(directory, os.O_TMPFILE | os.O_RDWR, 0o600)
            except OSError:
                continue
            tmp[i] = stack.enter_context(open(fd, "wb"))
            workers.start(i, write_records, tmp[i], cuts[i], cuts[i + 1])
        write_records(fh.buffer, cuts[0], cuts[1])
        for i in range(1, procs):
            if workers.ok(i):
                _append(tmp[i].fileno(), fh.fileno())
            else:
                write_records(fh.buffer, cuts[i], cuts[i + 1])


def _column_text(c, encoding):
    """The values of the 1-d ``c`` as (n, width) uint8 blocks, NUL-padded."""
    kind, parts, ok = c.dtype.kind, [], np.zeros(c.size, bool)
    if kind == "f":
        a = np.abs(c := c.astype(np.float64, copy=False))
        ok = (a == 0) | (a >= 1e-4) & (a < 1e16)
        parts = _fixed_text(np.where(ok, a, 0.0), np.signbit(c))
    elif kind in "iu":
        ok = (c >= 0) & (c < 10**17)
        parts = [_int_text(np.where(ok, c, 0).astype(np.int64))]
    if not ok.all():
        rest, fmt = np.flatnonzero(~ok), {"f": _FLOAT, "i": "%d", "u": "%d"}.get(kind, "%s")
        more = np.array([(fmt % (v,)).encode(encoding) for v in c[rest].astype(object)])
        width = max(sum(part.shape[1] for part in parts), more.itemsize)
        parts = [np.concatenate([*parts, np.zeros((c.size, width), np.uint8)], axis=1)[:, :width]]
        parts[0][rest] = more.astype(f"S{width}").view(np.uint8).reshape(rest.size, width)
    return parts


def _int_text(d):
    """``%d`` of the int64s ``d`` in [0, 1e17), right-aligned."""
    quads, width = [], len(str(d.max()))
    while len(quads) * 4 < width:
        q = d - (d := d // 10000) * 10000  # the last four digits; d keeps the rest
        quads.insert(0, np.where(d > 0, q, q + _L))  # NULs before the first nonzero digit
    text = _QUADS.take(np.stack(quads, 1)).view(np.uint8)[:, -width:]
    text[:, -1] |= 48  # the "0" of 0
    return text


def _fixed_text(a, neg):
    """``%.17g`` of floats 0 or in [1e-4, 1e16), minus where ``neg``."""
    k = np.searchsorted(_POW10[0, :20], np.where(a > 0, a, 1), side="right") - 5  # floor(log10 a)
    (a1, a2), (b, b1, b2) = _split(a), _POW10.take(20 - k, axis=1)
    h = a * b  # a 10^(16-k) = h + l exactly, h an even integer above 2^53
    l = ((a1 * b1 - h) + a1 * b2 + a2 * b1) + a2 * b2
    d = h.astype(np.int64) + np.rint(l).astype(np.int64)  # the 17 digits, ties to even
    del a1, a2, b, b1, b2, h, l  # before the digits' own temporaries
    # no carry into the units: the next integer is over a 2^-53 > 5e-17 a (half a 17th digit) off
    whole = _int_text(a.astype(np.int64))
    # the fraction is bytes 4 + k on of "000", then the digits, trailing zeros NUL
    frac, tail = [np.zeros(a.size, np.uint32)] * ((np.ptp(k) + 3) // 4), np.zeros(a.size, bool)
    for _ in range(5):
        q = d - (d := d // 10000) * 10000
        frac.insert(0, _QUADS.take(np.where(tail, q, q + _S)))
        tail |= q > 0
    frac = sliding_window_view(np.stack(frac, 1).view(np.uint8), 16 - k.min(),
                               axis=1)[np.arange(a.size), 4 + k]
    return [(neg * np.uint8(45))[:, None], whole, (frac[:, :1] > 0) * np.uint8(46), frac]


def _split(a):  # Veltkamp's: a = hi + lo, each of at most 26 significant bits
    return (hi := 134217729.0 * a - (134217729.0 * a - a)), a - hi


# 10^-4 to 10^22 and their halves: exact from 10^0 on, and rounded up below it, so
# that floor(log10 a) of a double a counts the ones at or below it exactly
_POW10 = np.array([float(f"1e{i}") for i in range(-4, 23)])
_POW10 = np.stack([_POW10, *_split(_POW10)])
# "0000".."9999" as 4 ASCII bytes in a uint32, then with trailing (_S), leading (_L) zeros NUL
_S, _L = 10000, 20000
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(48)).T.copy()
_QUADS = np.vstack([_QUADS, _QUADS * ~np.logical_and.accumulate(_QUADS[:, ::-1] == 48, 1)[:, ::-1],
                    _QUADS * ~np.logical_and.accumulate(_QUADS == 48, 1)]).view(np.uint32).ravel()


def _append(src, dst):
    """Copy the whole file open as ``src`` to the end of ``dst``."""
    offset = 0
    while count := os.sendfile(dst, src, offset, 1 << 30):
        offset += count


def typed_header(source, meta, keys):
    """The ``keys`` (name -> type) of a ``read_columns`` header, converted; a
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


def read_panels(path, check, zero_ends=()):
    """``(meta, (ids, panels))``: a (path, t) file's header items, and the
    path ids and panels of ``scatter_records``.  ``check(meta, names)``
    refuses bad columns or header items and maps the value columns to keep
    to their panels' names.  Records in ``write_table``'s order for the
    header's (n_paths, n_steps+1) go straight into the panels, where the
    ``zero_ends`` must be 0 at t = n_steps and get no row; any other file is
    read as columns and scattered, every row kept, over the header's steps:
    at once if its first path is out of order, else when the order breaks."""
    names, shape = [], []

    def panels(meta, colnames):
        keep = {"path": "path", "t": "t", **check(meta, colnames)}
        names[:] = [keep.get(name) for name in colnames]
        with contextlib.suppress(KeyError, ValueError):
            shape[:] = int(meta["n_paths"]), int(meta["n_steps"]) + 1
        if len(shape) < 2 or min(shape) < 1 or not _leads_in_order(path, shape[1]):
            raise _OutOfOrder
        return _PanelSink(names, *shape, zero_ends)

    try:
        return read_columns(path, panels)[::2]
    except _OutOfOrder:
        meta, _, columns = read_columns(path)
    records = {name: column for name, column in zip(names, columns) if name}
    del columns  # the dict holds the only references
    return meta, scatter_records(path, records, shape[1] if shape else None)


class _OutOfOrder(Exception):
    """Records that a ``_PanelSink`` cannot place as they come."""


class _PanelSink:
    """A ``read_columns`` sink for (path, t) records in the order
    ``write_table`` writes an (n_paths, n_steps) table, its columns named
    by ``names`` as ``scatter_records`` takes them (None: not kept).  Each
    kept value goes straight into its step-major panel, path and t checked
    a piece at a time; ``finish`` returns what ``scatter_records`` would,
    but the ``zero_ends`` values must be 0 at t = n_steps-1 and get no row
    there.  Other records raise _OutOfOrder."""

    def __init__(self, names, n_paths, n_steps, zero_ends):
        self.names, self.n, self.steps, self.zero_ends = names, n_paths, n_steps, zero_ends

    def start(self, n, k):
        if k != len(self.names) or n < self.n * self.steps:
            raise _OutOfOrder
        self.ids = np.full(self.n, np.nan)  # set by each path's t = 0 record
        self.panels = {name: np.empty((self.steps - (name in self.zero_ends), self.n))
                       for name in self.names if name not in (None, "path", "t")}

    def put(self, c, row, values):
        if (name := self.names[c]) is None:
            return
        record = np.arange(row, row + len(values))
        if record.size and record[-1] >= self.n * self.steps:
            raise _OutOfOrder
        path, t = np.divmod(record, self.steps)
        if name == "path":
            self.ids[path[t == 0]] = values[t == 0]
            ok = values == self.ids[path]
        elif name == "t":
            ok = values == t
        else:
            ok = np.isfinite(values)
            if name in self.zero_ends:
                last = t == self.steps - 1
                ok &= ~last | (values == 0)
                path, t, values = path[~last], t[~last], values[~last]
            self.panels[name].reshape(-1)[t * self.n + path] = values
        if not ok.all():
            raise _OutOfOrder

    def finish(self, n):
        ids = self.ids
        if (n != self.n * self.steps or not np.all(np.diff(ids) > 0) or ids[0] < 0
                or ids[-1] >= 2.0**53 or np.any(ids != np.floor(ids))):
            raise _OutOfOrder
        return ids.astype(np.int64), self.panels


def _leads_in_order(path, n_steps):
    """Whether the first ``n_steps`` records of the file at ``path`` are
    one path's t = 0 .. n_steps-1, as a ``_PanelSink`` takes them: a look
    at a few lines, so that a file in another order is parsed only once."""
    with open(path) as fh:
        lines = (ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#"))
        try:  # the records after the column names
            head = _loadtxt(itertools.islice(lines, 1, n_steps + 1))[:, :2]
        except (ValueError, UserWarning):
            return False
    return np.array_equal(head, np.stack([np.full(n_steps, head[0, 0]), np.arange(n_steps)], 1))


def scatter_records(source, records, n_steps=None):
    """Place flat (path, t) records, in any order, into step-major panels.
    ``records`` maps "path", "t" and then each value's name to one column
    of one entry per record; the dict is emptied as its columns are used
    (path and t once each record's cell is known, a value once it is
    placed), so a caller that hands over the only references frees each
    column as soon as it is consumed.  Returns the distinct path ids,
    ascending, and per value name an (n_steps, n_paths) panel.  The
    records must fill the panels: path and t non-negative integers, t
    below n_steps (by default one past the largest t), values finite, one
    record per cell.  Each error names ``source`` and the (path, t)
    cell."""
    def reject(wrong, message):
        i = np.flatnonzero(wrong)
        if i.size:
            raise DataFormatError(f"{source}: {message(i[0])}")

    for name, v in records.items():
        records[name] = np.asarray(v, dtype=float)
    reject(~np.all([(c >= 0) & (c == np.floor(c)) & (c < 2.0**53)
                    for c in (records["path"], records["t"])], axis=0),
           lambda i: f"path and t must be non-negative integers; "
                     f"data row {i + 1} is {[float(c[i]) for c in records.values()]}")
    pid = records.pop("path").astype(np.int64)
    cell = records.pop("t").astype(np.int64)  # the step, then in place the cell
    n = int(cell.max()) + 1 if n_steps is None else n_steps
    reject(cell >= n, lambda i: f"cell (path={pid[i]}, t={cell[i]}) is outside t in [0, {n})")
    for name in records:
        reject(~np.isfinite(records[name]),
               lambda i: f"non-finite {name} {records[name][i]} at cell "
                         f"(path={pid[i]}, t={cell[i]})")
    ids = np.unique(pid)
    cell *= ids.size
    cell += np.searchsorted(ids, pid)
    del pid  # record-sized; free before the panels are allocated
    hits = np.bincount(cell, minlength=n * ids.size)
    for wrong, what in ((hits > 1, "duplicate rows for cell"), (hits == 0, "missing cell")):
        reject(wrong, lambda j: f"{what} (path={ids[j % ids.size]}, t={j // ids.size})")
    del hits, wrong  # panel-sized; free before the panels are allocated
    panels = {}
    for name in list(records):
        panels[name] = np.empty((n, ids.size))
        panels[name].reshape(-1)[cell] = records.pop(name)
    return ids, panels
