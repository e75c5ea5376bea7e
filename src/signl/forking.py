"""When signl may start a second process, and how: the one probe and the one fork helper.

signl starts no thread.  A second process runs only where ``second_core_free``
holds, and only as a ``Child`` forked from this process: the corpus writer of
``featio.gen_synthetic``, pre-training's temporal-view worker and evaluate's
second scorer.  Where the probe fails, each of them does its work in this
process instead, with the same bits.
"""

from __future__ import annotations

import multiprocessing
import os
import signal


def second_core_free():
    """Whether a second process may run beside this one.  It holds when this
    process may use 2+ cores and runs exactly one OS thread.  Forking is safe only
    from one thread, and numpy's OpenBLAS starts a thread, which uses the second
    core, unless pinned to one (OPENBLAS_NUM_THREADS=1, which the ``signl``
    command sets unless the user has)."""
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc: stay in one process
        return False


class Child:
    """A forked child process running ``work(conn)`` on one end of a pipe, seen
    from this process, which holds the other end as ``conn``.

    The child's last (op, value) message is ("result", what ``work`` returned)
    or ("error", the exception it raised).  It leaves only through os._exit, so
    it runs none of this process's atexit or finally code, and exits 0 only once
    that message is sent.  ``recv`` raises a received error, and RuntimeError
    naming the exit status or signal of a child that ended without a result (a
    signal, or a value or error that does not pickle).  As a context manager the
    child is killed when the block is left on an exception, and reaped before
    the block ends either way, so no process outlives the block."""

    def __init__(self, name, work):
        self.name, self.status = name, None  # the exit code, once reaped
        self.conn, there = multiprocessing.Pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            self.conn.close()
            there.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                self.conn.close()
                try:
                    message = ("result", work(there))
                except Exception as exc:
                    message = ("error", exc)
                there.send(message)  # one that does not pickle ends the pipe: exit 1
                status = 0
            finally:
                os._exit(status)
        there.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None and self.status is None:
            os.kill(self.pid, signal.SIGKILL)
        self.conn.close()
        self._reap()

    def send(self, message):
        try:
            self.conn.send(message)
        except OSError:  # the child has left: raise its error, or how it ended
            self.recv()
            raise

    def recv(self):
        try:
            op, value = self.conn.recv()
        except (EOFError, OSError):
            code = self._reap()
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(f"the {self.name} ended without a result ({how})") from None
        if op == "error":
            raise value
        return value

    def _reap(self):
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status
