"""One work queue that a process and its forked workers pull from.

`run` computes `work(i)` for every index i below a count.  The indices wait
in an unlinked temp file whose one open file description the calling process
and procs - 1 forked workers share: each takes the next index by reading it
at the shared offset, which read(2) advances atomically (Linux >= 3.14), so
no two processes take the same index and none idles while indices are left.
The results come back in index order with the seconds each took.  Each
worker pickles, into an unlinked temp file of its own, every index it takes
and then (index, result, seconds) as soon as the work ends; that file is read
once the worker is reaped, so a worker that dies costs only the index it was
on.  A run needs a writable temp directory, found as `tempfile` finds one.

Workers are forked, so `work` is never pickled; its results are.  A worker
never returns to its caller and leaves through `os._exit`, so it flushes no
stdio buffer it inherited.
"""

from __future__ import annotations

import io
import os
import signal
import time
from contextlib import suppress
from typing import BinaryIO, Callable

_INDEX_BYTES = 4  # per queued index


def run(
    count: int, procs: int, work: Callable[[int], object], died: Callable[[int, str], object]
) -> list:
    """(work(i), seconds) for i in range(count), in order, over procs
    processes.  Where a worker died on index i, died(i, how it died) stands
    in for work(i)."""
    import tempfile

    results: list = [None] * count
    workers: list[tuple[int, BinaryIO]] = []  # (pid, result file) of each unreaped worker
    with tempfile.TemporaryFile() as queue:
        try:
            queue.write(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(count)))
            queue.seek(0)  # flushes the indices, and every process reads from the start
            for _ in range(procs - 1):
                workers.append(_fork(work, queue.fileno()))
            while (index := _take(queue.fileno())) is not None:
                results[index] = _timed(work, index)
            while workers:
                pid, out = workers[-1]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                workers.pop()
                with out:
                    out.seek(0)
                    _decode(out.read(), code, results, died)
        finally:
            for pid, out in workers:  # left only when this process raised
                with suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                out.close()
    # a worker killed between taking an index and announcing it wrote nothing for it
    return [
        result or (died(i, "worker died before announcing its index"), 0.0)
        for i, result in enumerate(results)
    ]


def _timed(work: Callable[[int], object], index: int) -> tuple:
    start = time.perf_counter()
    result = work(index)
    return result, time.perf_counter() - start


def _take(fd: int) -> int | None:
    """The next index off the queue; None once it is read to its end."""
    data = os.read(fd, _INDEX_BYTES)
    return int.from_bytes(data, "little") if data else None


def _fork(work: Callable[[int], object], queue: int) -> tuple[int, BinaryIO]:
    """Fork a worker that takes indices off the queue and pickles, for each,
    the index and then (index, work(index), seconds) into an unlinked temp
    file; return its pid and that file."""
    import pickle
    import tempfile

    out = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        out.close()
        raise
    if pid == 0:
        code = 1
        try:
            while (index := _take(queue)) is not None:
                pickle.dump(index, out)
                out.flush()
                pickle.dump((index, *_timed(work, index)), out)
                out.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, out


def _decode(data: bytes, code: int, results: list, died: Callable) -> None:
    """Fill in the results a finished worker sent.  For the index it
    announced last and sent no readable result for, died(index, how it died)
    stands in."""
    import pickle

    stream = io.BytesIO(data)
    running = None  # the index announced last, until its result is read
    try:
        while running is not None or stream.tell() < len(data):
            frame = pickle.load(stream)
            if isinstance(frame, int):
                running = frame
            else:
                index, result, seconds = frame
                results[index] = (result, seconds)
                running = None
    except Exception as exc:  # the stream ends before or inside that result
        if code < 0:
            why = f"worker killed by signal {-code}"
        elif code:
            why = f"worker exited with status {code}"
        else:
            why = f"undecodable worker result ({type(exc).__name__})"
        results[running] = (died(running, why), 0.0)
