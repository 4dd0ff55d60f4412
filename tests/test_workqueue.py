"""The shared work queue on its own; tests/test_suites.py covers it under the
suites: dead workers, interrupts, fork counts and process-count independence."""

import os
import signal

import pytest

from grothcrystal import workqueue


def _died(index, why):
    pytest.fail(f"no worker should die: {index} {why}")


@pytest.mark.parametrize("procs", [1, 2])
def test_queue_longer_than_a_pipe_buffer(procs):
    """20 000 indices are more than a 64 KiB pipe holds at once; every result
    still comes back in index order, and the run ends."""

    def too_long(signum, frame):
        raise TimeoutError("the run did not end")

    old = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(120)
    try:
        results = workqueue.run(20_000, procs, lambda i: i * i, _died)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [result for result, _ in results] == [i * i for i in range(20_000)]
    assert all(seconds >= 0 for _, seconds in results)
