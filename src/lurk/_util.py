"""Shared helpers: hashing, seeds, float formatting, the artifact file codec
(atomic writes, CSV tables, JSON, the log append), the output-directory
lock, the JSON input reader and config checks, the one-BLAS-thread pin, and
the one fan-out of jobs."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import fcntl
import functools
import hashlib
import io
import json
import locale
import logging
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, OutputLockedError

log = logging.getLogger(__name__)


def fmt_float(x) -> str:
    """Shortest decimal form that round-trips exactly through float()."""
    return repr(float(x))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stage_seed(master_seed: int, label: str) -> int:
    """Derive a labeled sub-stream seed from one master seed.

    Stable across platforms and runs; distinct labels give independent
    streams without coupling stages to each other's draw counts.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


_writes = threading.local()  # .digests: {path: sha256} of a `recorded_writes` body


@contextlib.contextmanager
def recorded_writes():
    """Yield a dict that gathers, by path string, the sha256 of the bytes
    each `write_atomic` in this thread wrote during the body (the last write
    of a path wins)."""
    outer = getattr(_writes, "digests", None)
    _writes.digests = digests = {}
    try:
        yield digests
    finally:
        _writes.digests = outer


def write_atomic(path, text: str, if_changed: bool = False) -> None:
    """Write `text` (newlines as given) to `<path>.tmp`, then move it onto
    `path`: a write that fails or is killed halfway leaves the previous file
    whole, and a failed one leaves no temporary file behind. With
    `if_changed`, a file that already holds those bytes is left as it is.
    The sha256 of the bytes goes to `recorded_writes`."""
    path = Path(path)
    data = text.encode(locale.getpreferredencoding(False))  # as `write_text` encodes
    try:
        unchanged = if_changed and path.read_bytes() == data
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(text, newline="")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    digests = getattr(_writes, "digests", None)
    if digests is not None:
        digests[os.fspath(path)] = sha256_bytes(data)


def dump_json(obj, path, if_changed: bool = False) -> str:
    """Write canonical (sorted-key) JSON atomically (`write_atomic`); returns
    the text written."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text, if_changed)
    return text


def append_line(path, text: str) -> None:
    """Append `text` and a newline to `path`, made when missing. Not atomic:
    a log grows by a line per event, and a rewrite would copy all of it."""
    with open(path, "a") as f:
        f.write(text + "\n")


def write_table(path, header, columns) -> None:
    """Write a CSV table atomically: the `header` row, then one row per
    position of the equal-length `columns`. Arrays are written through
    `tolist()`, so a float is the `repr` that `fmt_float` gives, an int its
    digits and None an empty field; a field holding the delimiter, a quote
    or a newline is quoted by the csv module's rules."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    write_atomic(path, text.getvalue())


def csv_field(text: str) -> str:
    """`text` as one field of a CSV row, quoted by the rules `write_table`
    follows."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text])
    return out.getvalue()


def read_table(path, text) -> tuple[dict, list[str], np.ndarray]:
    """The `text` columns of a CSV table by name (tuples of str), the names
    of its other columns, and those parsed as one float64 (rows, columns)
    array. Quoted fields follow the csv module: a doubled quote inside
    quotes is one quote, and a quoted field may hold a comma or a newline."""
    with open(path, newline="") as f:
        header = next(csv.reader(f), [])
        body = f.read()
    numeric = [j for j, name in enumerate(header) if name not in text]

    def parse(usecols, dtype):
        if not body.strip():
            return np.empty((0, len(usecols)), dtype)
        return np.loadtxt(io.StringIO(body), dtype, comments=None, delimiter=",",
                          quotechar='"', usecols=usecols, ndmin=2)

    strings = parse([header.index(name) for name in text], str)
    return ({name: tuple(strings[:, i].tolist()) for i, name in enumerate(text)},
            [header[j] for j in numeric], parse(numeric, np.float64))


_locked_dirs = threading.local()  # .held: the directories this thread has locked


@contextlib.contextmanager
def locked_dir(directory):
    """Create `directory` if need be and hold an exclusive `flock` on its
    `.lock` file for the body; OutputLockedError at once if another process
    or thread holds it. The lock goes when the file closes, so a killed run
    leaves none behind. Re-entering it in the thread that holds it is a
    no-op, so a command can hold it around a `pipeline.run`."""
    path = Path(directory).resolve()
    held = _locked_dirs.__dict__.setdefault("held", set())
    if path in held:
        yield
        return
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OutputLockedError(directory) from None
        held.add(path)
        try:
            yield
        finally:
            held.discard(path)
    finally:
        os.close(fd)


def owned_array(what: str, value, dtype, shape=None, finite: bool = False) -> np.ndarray:
    """`value` as a read-only, C-contiguous `dtype` array (BLAS sums a strided
    one in another order) that the record holding it owns: an array owning
    its memory is held as given, so a later write by its maker raises; a view
    is copied, since its owner could still write; a JSON list is converted.
    InvalidArgumentError naming `what` for a shape other than `shape`, or
    with `finite` for a NaN or an inf, even one a cast to int would hide."""
    if finite and not np.all(np.isfinite(np.asarray(value, np.float64))):
        raise InvalidArgumentError(f"{what} must be finite, without NaN or inf")
    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.base is not None:
        arr = arr.copy()
    if shape is not None and arr.shape != shape:
        raise InvalidArgumentError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def plain(obj):
    """A dataclass as JSON-ready data, every record's JSON form: its fields by
    name, nested dataclasses as dicts, arrays as lists, other values shared."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def read_json(path):
    """The JSON value of a hand-written input file; InvalidArgumentError naming
    the file, and a parse error's line and column, when it does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:  # json.JSONDecodeError or UnicodeDecodeError
        raise InvalidArgumentError(f"{path}: not JSON text: {e}") from None


def check_keys(d: dict, allowed, what: str, required=()) -> None:
    """Raise InvalidArgumentError unless `d` is a dict (a JSON object) with no
    key outside `allowed` (named first) and every key of `required`."""
    checked(what, d, isinstance(d, dict), "an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InvalidArgumentError(f"unknown {what} keys: {unknown}")
    missing = [k for k in required if k not in d]
    if missing:
        raise InvalidArgumentError(f"missing {what} keys: {missing}")


def is_finite_number(x) -> bool:
    """True for a finite int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def is_int(x) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def checked(what: str, value, ok: bool, want: str):
    """`value`; InvalidArgumentError "<what> must be <want>, got <value>"
    unless `ok`."""
    if not ok:
        raise InvalidArgumentError(f"{what} must be {want}, got {value!r}")
    return value


def check_finite_fields(obj, what: str) -> None:
    """Raise InvalidArgumentError naming the first field of dataclass `obj`
    that is not a finite number, and its value."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        checked(f"{what} {f.name}", value, is_finite_number(value), "a finite number")


GET_THREADS = ctypes.CFUNCTYPE(ctypes.c_int)  # int openblas_get_num_threads(void)
SET_THREADS = ctypes.CFUNCTYPE(None, ctypes.c_int)  # void openblas_set_num_threads(int)


def _openblas_paths(maps: str = "/proc/self/maps") -> list:
    """Files of the OpenBLAS builds loaded in this process; without /proc
    (macOS, Windows), those shipped in numpy's and scipy's wheels."""
    try:
        with open(maps) as f:  # the pathname, 6th field, may hold spaces
            fields = [line.rstrip("\n").split(None, 5) for line in f if "openblas" in line]
        return sorted({f[5] for f in fields if len(f) == 6 and not f[5].endswith(" (deleted)")})
    except OSError:
        import scipy
        dirs = [Path(m.__file__).parent for m in (np, scipy)]
        return sorted({str(p) for d in dirs for p in [*d.glob(".dylibs/*openblas*"),
                                                       *d.parent.glob(d.name + ".libs/*openblas*")]})


def _load(path: str):
    """The library at `path`; None if it does not load."""
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count calls of each OpenBLAS build, found on first
    use: numpy's, and scipy's, which every pinning module imports."""
    names = [p + "openblas_%s_num_threads" + s for p in ("scipy_", "") for s in ("64_", "")]
    controls = tuple((GET_THREADS((n % "get", lib)), SET_THREADS((n % "set", lib)))
                     for lib in map(_load, _openblas_paths()) for n in names
                     if hasattr(lib, n % "get"))
    if not controls:
        log.warning("no OpenBLAS found: BLAS threads are not pinned")
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the body (as `@one_blas_thread()`, each call) with every loaded OpenBLAS
    build at one thread, then restore the counts: more threads sum in another order.
    A build already at one thread is left alone: after a fork, setting its count
    starts a new thread pool, whose threads spin for a while in both processes."""
    before = [(set_threads, n) for get, set_threads in _openblas_thread_controls()
              if (n := get()) != 1]
    for set_threads, _ in before:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, n in before:
            set_threads(n)


FORK_FLOOR_S = 0.1  # two workers' break-even, in seconds of one core (README "Forked workers")


class FanOut:
    """Runs `fn(*args)` for each job `(cost, fn, args)` in forked worker
    processes, one per usable core (`os.sched_getaffinity`) and at most one
    per job, which start at once. A `busy` caller works itself between this
    call and `results()`: it keeps a core, so one worker fewer starts, and
    in `results()` it runs the jobs still queued itself before it waits for
    the workers. A caller that waits runs no job, though it could take a
    worker's place: so the memory its jobs build stays out of its own
    process, whose peak RSS is then what it holds and keeps. None start
    when the costs (each the job's estimated seconds of one core) come
    under FORK_FLOOR_S, or under half of it for a busy caller (the workers
    run beside its work, not beside a parent that waits; README "Forked
    workers"), with no core left to a worker,
    off Linux, off the main thread or beside another Python thread (a fork
    copies only the calling thread, and a lock another thread holds stays
    held in the child), or when the queue, a process or a pipe cannot be
    had. The workers take the jobs from one queue, largest cost first,
    each the next one as it comes free, so none idles while another has
    jobs left. A worker runs all its jobs before it sends anything, so it
    never waits on a parent busy elsewhere. Workers inherit every open
    file, the output-directory lock among them, so whoever makes a FanOut
    calls `close` before letting such files go."""

    def __init__(self, jobs, busy: bool = False):
        self.jobs = list(jobs)
        self.workers = []  # (process, receiving end of its pipe)
        self.tasks = None  # the queue's reading end, which a busy caller keeps
        n, cost = 0, sum(cost for cost, *_ in self.jobs)
        if (sys.platform == "linux" and threading.current_thread() is threading.main_thread()
                and threading.active_count() == 1 and (1 + busy) * cost >= FORK_FLOOR_S):
            n = min(len(os.sched_getaffinity(0)) - busy, len(self.jobs))
        if n < 2 - busy:
            return
        order = sorted(range(len(self.jobs)), key=lambda i: -self.jobs[i][0])
        queue = b"".join(i.to_bytes(4, "little") for i in order)
        context = multiprocessing.get_context("fork")
        try:
            tasks, fill = os.pipe()  # the queue: job indices, read 4 bytes at a time
            try:
                os.set_blocking(fill, False)
                if os.write(fill, queue) < len(queue):
                    raise BlockingIOError("the job queue does not fit in a pipe")
            finally:
                os.close(fill)  # before any fork: a worker reads the queue to its end
            try:
                for _ in range(n):
                    receiver, sender = context.Pipe(duplex=False)
                    inherited = [r for _, r in self.workers] + [receiver]
                    process = context.Process(target=_work, daemon=True,
                                              args=(tasks, self.jobs, sender, inherited))
                    self.workers.append((process, receiver))
                    try:
                        process.start()
                    finally:
                        sender.close()
            finally:
                if busy:
                    self.tasks = tasks
                else:
                    os.close(tasks)
        except OSError:  # no process or pipe to be had: no worker
            self.close()

    def results(self) -> dict:
        """{job index: value} of every job run to a value, whatever the
        value (None too): by a worker, when it pickled, or by a busy
        caller, which first runs every job still queued; a job that raised
        is absent, and so is a lost one: its worker died, or its value did
        not pickle or unpickle. When workers ran and a job was lost, one
        warning counts them; a job that raised logs nothing, for its caller
        runs it again and its own error surfaces there. Every worker's
        values are received, on the calling thread, and every worker reaped
        before it returns."""
        received = [] if self.tasks is None else list(_run_queued(self.tasks, self.jobs))
        for _, receiver in self.workers:
            while True:
                try:
                    data = receiver.recv_bytes()
                except (EOFError, OSError):  # the worker is done, or gone
                    break
                with contextlib.suppress(Exception):
                    received.append(pickle.loads(data))
        lost = len(self.jobs) - len(received) if self.workers else 0
        self.close()
        if lost:
            log.warning("%d of %d jobs were lost in workers (a worker died, or a value did "
                        "not pickle); the parent runs them", lost, len(self.jobs))
        return {out[0]: out[1] for out in received if len(out) == 2}

    def close(self) -> None:
        """Stop and reap every worker still running; idempotent."""
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None
        for process, receiver in self.workers:
            receiver.close()
            if process.pid is not None:
                process.kill()
                process.join()
            process.close()
        self.workers = []


def run_jobs(jobs) -> list:
    """`fn(*args)` of each job `(cost, fn, args)`, in job order: the value
    a `FanOut` worker delivered, else the parent's own call (all of them
    below FORK_FLOOR_S), made in job order once every worker is reaped, so
    a job that fails raises here with its own error, and no worker outlives
    the call."""
    jobs = list(jobs)
    with contextlib.closing(FanOut(jobs)) as fan_out:
        got = fan_out.results()  # an interrupt too leaves no worker running
    return [got[i] if i in got else fn(*args) for i, (_, fn, args) in enumerate(jobs)]


def _run_queued(tasks, jobs):
    """Take job indices from the `tasks` pipe until it is empty, running
    each job; yields (index, value), or (index,) for a job that raised."""
    while index := os.read(tasks, 4):
        i = int.from_bytes(index, "little")
        _, fn, args = jobs[i]
        try:
            out = (i, fn(*args))
        except Exception:
            out = (i,)
        yield out


def _work(tasks, jobs, sender, inherited) -> None:
    """A FanOut worker: run the queued jobs (`_run_queued`), then send each
    (index, value) pickled, or (index,) for a job that raised; a value that
    does not pickle sends nothing. It first closes the pipe ends it
    `inherited`, so that once the parent is gone its send fails and it
    exits, rather than wait for ever holding the parent's open files (the
    output-directory lock among them)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers
    for receiver in inherited:
        receiver.close()
    sent = []
    for out in _run_queued(tasks, jobs):
        with contextlib.suppress(Exception):
            sent.append(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
    with contextlib.suppress(BrokenPipeError), sender:
        for data in sent:
            sender.send_bytes(data)
