"""Numbered trials on forked workers that take them from one task queue.

``in_order(trial, trials, n)`` yields ``trial(0)``, ``trial(1)``, ... in that
order, each as soon as it and every earlier result are in, while n workers
run the trials: this process (worker 0) and n - 1 bare ``os.fork`` children.
A worker takes its next trial when it is done with the last, so a worker that
draws cheap trials runs more of them, and the parent waits for a child only
once nothing is left for it to run.

The task queue is a pipe of fixed-width tokens, the first trial of every
chunk, big-endian in ``width`` bytes. The parent fills it before any fork in
one write of at most PIPE_BUF bytes, which neither blocks nor splits, and
closes its write end, so no worker holds one. A chunk is one trial while the
tokens of all trials fit in PIPE_BUF bytes, else ``ceil(trials / budget)``
trials, where budget = PIPE_BUF // width. Each worker reads one token at a
time until end of file. The pipe only ever holds whole tokens, so a read
never splits one, and each chunk goes to exactly one worker.

A child writes one ``marshal`` record ``(trial, result)`` per trial to its
own pipe, and before it writes the record it writes its worker number to a
notice pipe that all children share. The parent reads the notices without
blocking after each of its own trials and blocks on them once the queue is
empty, so it waits on one pipe only; for each notice it reads the next record
of that child. As the notice comes first, a record larger than a pipe holds
cannot deadlock: the child blocks only until the parent, woken by the notice,
reads the record. The parent keeps only the results it cannot yield yet.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys

from .errors import InternalInconsistencyError


def _taken(queue: tuple):
    """The trials of each chunk this process takes from the queue, until it is empty."""
    tasks, width, chunk, trials = queue
    while token := os.read(tasks, width):
        start = int.from_bytes(token, "big")
        yield from range(start, min(start + chunk, trials))


def _fork_worker(trial, w: int, queue: tuple, announce: int, readers: dict) -> None:
    """Fork worker w, which writes one record per trial it takes from the queue
    and announces each on the notice pipe's write end ``announce``."""
    r, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit
        code = 1
        try:
            os.close(r)
            for _, reader in readers.values():
                reader.close()
            notice = w.to_bytes(queue[1], "big")
            with open(wfd, "wb") as out:
                for i in _taken(queue):
                    result = trial(i)
                    os.write(announce, notice)
                    marshal.dump((i, result), out)
                    out.flush()
            code = 0
        except Exception:  # the one thing the child prints is its traceback
            import traceback  # here, so that a worker that does not fail never loads it

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(wfd)
    readers[w] = pid, open(r, "rb")


def _announced(notices: int, width: int, readers: dict, done: dict) -> bool:
    """Put into ``done`` the records of one read of notices; False at the end of
    the notice pipe, when every child has closed it."""
    try:
        data = os.read(notices, width << 10)
    except BlockingIOError:  # nothing announced yet
        return True
    for k in range(0, len(data), width):
        reader = readers[int.from_bytes(data[k:k + width], "big")][1]
        try:
            i, result = marshal.load(reader)
        except (EOFError, ValueError):  # the child died while writing it
            continue
        done[i] = result
    return bool(data)


def in_order(trial, trials: int, n: int):
    """Yield trial(i) for i = 0 .. trials - 1 in order, run by n workers.

    With n = 1 this process runs every trial and forks nothing; else each
    result must be a ``marshal`` value, and n must not exceed ``trials``. A
    child that exits nonzero, or a trial left without a result, raises
    ``InternalInconsistencyError``. On any exception, and when the generator
    is closed early, every child still running is killed and reaped.
    """
    if n == 1:
        yield from map(trial, range(trials))
        return
    width = (trials.bit_length() + 7) // 8  # holds a trial or worker number
    done: dict[int, object] = {}  # trial -> result, until yielded
    nxt = 0  # the next trial to yield
    readers: dict[int, tuple] = {}  # w -> (pid, reader) of each live child
    fds: list[int] = []  # the parent's ends of the task and notice pipes

    def ready():
        nonlocal nxt
        while nxt in done:
            yield done.pop(nxt)
            nxt += 1

    try:
        tasks, put = os.pipe()
        fds += tasks, put
        chunk = -(-trials // (os.fpathconf(put, "PC_PIPE_BUF") // width))
        os.write(put, b"".join(i.to_bytes(width, "big") for i in range(0, trials, chunk)))
        fds.remove(put)
        os.close(put)
        notices, announce = os.pipe()
        fds += notices, announce
        queue = tasks, width, chunk, trials
        for w in range(1, n):
            _fork_worker(trial, w, queue, announce, readers)
        fds.remove(announce)
        os.close(announce)
        os.set_blocking(notices, False)
        for i in _taken(queue):
            done[i] = trial(i)
            _announced(notices, width, readers, done)
            yield from ready()
        os.set_blocking(notices, True)
        while _announced(notices, width, readers, done):
            yield from ready()
        for w in range(1, n):
            pid, reader = readers[w]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reader.close()
            del readers[w]
            if code:
                missing = f"; trial {nxt} has no result" if nxt < trials else ""
                raise InternalInconsistencyError(f"worker {w} exited with code {code}{missing}")
        if nxt < trials:
            raise InternalInconsistencyError(f"trial {nxt} has no result")
    finally:
        for fd in fds:
            os.close(fd)
        for pid, reader in readers.values():  # left only by an exception
            # killed first, so that no child sees its pipe closed and reports it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()
