"""The CSV codec splits large tables over one process per usable CPU: the
bytes written, the arrays read and every error are those of one process,
and no worker or file outlives a call."""

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qhedge import csvio
from qhedge.cli import main
from qhedge.csvio import read_columns, write_table
from qhedge.errors import DataFormatError

SMALL = ["--market.n_steps", "6", "--mc.n_paths", "400", "--basis.m", "8",
         "--mc.seed", "11"]


def read_csv(path):
    """``(meta, colnames, data)``: ``read_columns``' table with the records
    as a float array of one row each."""
    meta, colnames, columns = read_columns(path)
    return meta, colnames, np.stack(columns, axis=1)


@contextlib.contextmanager
def split_over(n_cpus, block=None):
    """Make every table split over ``n_cpus`` processes (one keeps the
    one-process path), reading pieces of ``block`` records and writing
    blocks of ``block`` values; count the workers started in the yielded
    list."""
    started = []
    real_start = csvio._Workers.start

    def start(self, key, work, *args):
        started.append(key)
        return real_start(self, key, work, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_SPLIT_RECORDS", 1)
        mp.setattr(csvio, "_SPLIT_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        mp.setattr(csvio._Workers, "start", start)
        if block is not None:
            mp.setattr(csvio, "_BLOCK", block)
            mp.setattr(csvio, "_WRITE_VALUES", block)
        yield started


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


finite = st.floats(allow_nan=False, allow_infinity=False)
exact_ints = st.integers(-2**53, 2**53)
# strings that parse back as floats, so the same table can be read
numeric_words = st.from_regex(r"\A[+-]?[0-9]{1,4}(\.[0-9]{1,3})?\Z")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_paths=st.integers(1, 12), n_steps=st.integers(1, 12),
       block=st.integers(1, 16),
       header=st.dictionaries(st.from_regex(r"\A[a-z][a-z_]{0,8}\Z"),
                              st.one_of(finite, st.integers(), numeric_words),
                              max_size=4))
def test_any_worker_count_writes_and_reads_the_same(tmp_path_factory, data, n_paths,
                                                    n_steps, block, header):
    """On 1, 2 or 3 processes write_table writes the same bytes and
    read_csv returns the same array, sign of zero included, for tables of
    several blocks with a labelled axis and integer, float and string
    columns."""
    shape = (n_paths, n_steps)
    labels = data.draw(hnp.arrays(np.int64, n_paths, elements=exact_ints))
    values = {
        "x": data.draw(hnp.arrays(np.float64, shape, elements=finite)),
        "k": data.draw(hnp.arrays(np.int64, shape, elements=exact_ints)),
        "w": np.array(data.draw(st.lists(numeric_words, min_size=labels.size * n_steps,
                                         max_size=labels.size * n_steps))).reshape(shape),
    }
    tmp = tmp_path_factory.mktemp("split")
    written, read = [], []
    for n_cpus in (1, 2, 3):
        path = tmp / f"table{n_cpus}.csv"
        with split_over(n_cpus, block) as started:
            write_table(path, {"path": labels, "t": None}, values, header=header)
            written.append(path.read_bytes())
            read.append(read_csv(path)[2])
        assert bool(started) == (n_cpus > 1 and labels.size * n_steps > 1)
    for other in written[1:]:
        assert other == written[0]
    for other in read[1:]:
        assert np.array_equal(other, read[0])
        assert np.array_equal(np.signbit(other), np.signbit(read[0]))
    assert np.array_equal(read[0][:, 2], values["x"].ravel())
    assert np.array_equal(np.signbit(read[0][:, 2]), np.signbit(values["x"].ravel()))


@pytest.fixture
def dataset(tmp_path):
    """A make-dataset file of 2 400 records."""
    assert main(["make-dataset", *SMALL, "--dataset.policy", "random",
                 "--output.dir", str(tmp_path / "ds")]) == 0
    return tmp_path / "ds" / "dataset.csv"


def serial_error(path):
    with split_over(1), pytest.raises(DataFormatError) as exc:
        read_csv(path)
    return str(exc.value)


class TestSplitRead:
    def test_bad_cell_in_last_range_gives_the_serial_message(self, dataset, tmp_path,
                                                             capsys):
        lines = dataset.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",abc\n"
        dataset.write_text("".join(lines))
        message = serial_error(dataset)
        assert "could not convert string 'abc'" in message
        codes, errs = [], []
        for n_cpus in (1, 2, 3):
            with split_over(n_cpus) as started:
                with pytest.raises(DataFormatError) as exc:
                    read_csv(dataset)
                assert str(exc.value) == message
                assert len(started) == (0 if n_cpus == 1 else n_cpus)
                codes.append(main(["fqi-solve", "--dataset.path", str(dataset),
                                   "--output.dir", str(tmp_path / "fqi")]))
            errs.append(capsys.readouterr().err)
            assert_no_worker_left()
        assert codes == [3, 3, 3]
        assert errs == [f"numerical failure: {message}\n"] * 3

    @pytest.mark.parametrize("first, second", [(6, 5), (5, 6)])
    def test_workers_disagreeing_on_columns_give_the_serial_message(self, tmp_path,
                                                                    first, second):
        """Two ranges that each parse, into rows of different widths, are
        left to the one parse of the whole body.  Rows of 12 bytes put the
        cut between them."""
        rows = {6: "1,2,3,4,5,6\n", 5: "1,2,3,4,567\n"}
        path = tmp_path / "table.csv"
        path.write_text("a,b,c,d,e,f\n" + rows[first] * 50 + rows[second] * 50)
        message = serial_error(path)
        assert f"number of columns changed from {first} to {second} at row 51" in message
        with split_over(2) as started, pytest.raises(DataFormatError) as exc:
            read_csv(path)
        assert (len(started), str(exc.value)) == (2, message)
        assert_no_worker_left()

    def test_ranges_join_in_file_order(self, dataset):
        with split_over(1):
            one = read_csv(dataset)
        with split_over(3) as started:
            three = read_csv(dataset)
        assert len(started) == 3
        assert one[:2] == three[:2]
        assert np.array_equal(one[2], three[2])


    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("blank_run", [False, True])
    def test_pieces_parse_as_one_parse(self, tmp_path, n_cpus, blank_run):
        """Each range is parsed 64 bytes of whole lines at a time into its
        columns, which equal one parse of the whole body, sign of zero
        included, across blank and comment lines and a last line without
        a newline.  A piece of blank lines alone leaves the body to that
        one parse."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-300, 300, (300, 4))
        values[::7, 1], values[::11, 2], values[5, 3] = -0.0, 5e-324, np.finfo(float).max
        lines = [",".join("%.17g" % v for v in row) + "\n" for row in values]
        lines[40:40] = ["\n", "# a note\n"] + ["\n"] * (80 if blank_run else 1)
        body = "".join(lines).rstrip("\n")
        path = tmp_path / "table.csv"
        path.write_text("# k=1\na,b,c,d\n" + body)
        with split_over(n_cpus) as started, pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "_PARSE_BYTES", 64)
            columns = read_columns(path)[2]
        assert len(started) == (0 if n_cpus == 1 else n_cpus)
        assert_no_worker_left()
        one = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        assert one.shape == (300, 4)
        for j, column in enumerate(columns):
            assert np.array_equal(column, one[:, j])
            assert np.array_equal(np.signbit(column), np.signbit(one[:, j]))


class TestSplitWrite:
    def test_no_worker_or_file_is_left(self, tmp_path):
        """After a split write and a failed split read the directory holds
        only the artifact, and every worker has been reaped."""
        path = tmp_path / "table.csv"
        values = {"v": np.arange(3000, dtype=float).reshape(100, 30)}
        with split_over(3, block=64) as started:
            write_table(path, {"path": None, "t": None}, values)
        assert len(started) == 2
        assert_no_worker_left()
        assert os.listdir(tmp_path) == ["table.csv"]
        path.write_text(path.read_text().replace("99,29,", "99,29,x"))
        with split_over(3) as started, pytest.raises(DataFormatError):
            read_csv(path)
        assert len(started) == 3
        assert_no_worker_left()
        assert os.listdir(tmp_path) == ["table.csv"]

    @pytest.mark.parametrize("fault", ["worker_fails", "no_unnamed_file"])
    def test_a_range_no_worker_wrote_is_written_here(self, tmp_path, fault):
        """Of three ranges, the second is copied in from its worker and the
        third, whose worker failed or found no unnamed file, is written
        here after it: the bytes are still one process's."""
        values = {"v": np.linspace(-1.0, 1.0, 3000).reshape(100, 30)}
        with split_over(1):
            write_table(tmp_path / "serial.csv", {"path": None, "t": None}, values)
        with split_over(3, block=64) as started, pytest.MonkeyPatch.context() as mp:
            if fault == "worker_fails":
                start = csvio._Workers.start
                mp.setattr(csvio._Workers, "start", lambda self, key, work, *args:
                           start(self, key, *((int, "x") if key == 2 else (work, *args))))
            else:
                real_open, opened = os.open, []

                def open_one_tmpfile(path, flags, *args):
                    if flags & os.O_TMPFILE == os.O_TMPFILE:
                        opened.append(path)
                        if len(opened) == 2:
                            raise OSError("no unnamed file")
                    return real_open(path, flags, *args)
                mp.setattr(os, "open", open_one_tmpfile)
            write_table(tmp_path / "split.csv", {"path": None, "t": None}, values)
        assert started == ([1, 2] if fault == "worker_fails" else [1])
        assert_no_worker_left()
        assert ((tmp_path / "split.csv").read_bytes()
                == (tmp_path / "serial.csv").read_bytes())


# A reader that splits its read over three workers and stalls in its sink
# once they are all writing; it prints the workers' process ids first.
STALLED_READER = """
import os, sys, time
from qhedge import csvio
csvio._SPLIT_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
real_fork, workers = os.fork, []
def fork():
    pid = real_fork()
    if pid:
        workers.append(pid)
    return pid
os.fork = fork
class Stall:
    def start(self, n, k):
        pass
    def put(self, c, row, values):
        print(*workers, flush=True)
        time.sleep(600)
csvio.read_columns(sys.argv[1], lambda meta, names: Stall())
"""


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_split_read_workers_die_with_a_killed_reader(tmp_path):
    """A reader killed by SIGKILL mid-read, which runs none of its own
    clean-up, leaves no worker behind: each worker closed the read ends of
    the pipes it inherited, so once the reader is gone its write to a full
    pipe fails and it exits, where it would block for good.  Each worker's
    columns (480 kB) are larger than a pipe's buffer."""
    path = tmp_path / "table.csv"
    np.savetxt(path, np.arange(180_000.0).reshape(-1, 2), delimiter=",",
               header="a,b", comments="")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(csvio.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    reader = subprocess.Popen([sys.executable, "-c", STALLED_READER, str(path)],
                              stdout=subprocess.PIPE, text=True, env=env)
    workers = []
    try:
        workers = [int(pid) for pid in reader.stdout.readline().split()]
        assert len(workers) == 3
        reader.kill()
        reader.wait()
        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        reader.kill()
        reader.wait()
        reader.stdout.close()
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)
