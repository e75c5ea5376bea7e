"""When signl may start a second process, and how: the one probe and the one fork helper.

signl starts no thread.  A second process runs only where ``second_core_free``
holds, and only as a ``Child`` forked from this process: the corpus writer of
``featio.gen_synthetic``, pre-training's temporal-view worker and evaluate's
second scorer.  Where the probe fails, each of them does its work in this
process instead, with the same bits.  While a child lives, it and this process
run on different CPUs: left to the scheduler, a fresh fork, or a process woken
over the pipe, often stays on its waker's CPU while the other one idles.
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
    command sets unless the user has).  While a ``Child`` lives, this process is
    pinned to one CPU, so the probe fails there and no child forks another."""
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc: stay in one process
        return False


def _current_cpu():
    """The CPU this process last ran on: field 39 of /proc/self/stat, counted after
    the parenthesised command name, which may hold spaces."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return int(fields[36])  # fields[0] is field 3, the state


class Child:
    """A forked child process running ``work(conn)`` on one end of a pipe, seen
    from this process, which holds the other end as ``conn``.

    The child's last (op, value) message is ("result", what ``work`` returned)
    or ("error", the exception it raised).  It leaves only through os._exit, so
    it runs none of this process's atexit or finally code, and exits 0 only once
    that message is sent, or once ``work`` returned after this process closed its
    end, when no one is left to take the result.  ``recv`` raises a received
    error, and RuntimeError naming the exit status or signal of a child that
    ended without a result (a signal, or a value or error that does not pickle).
    As a context manager the child is killed when the block is left on an
    exception, and reaped before the block ends either way, so no process
    outlives the block.

    Until it is reaped, the child runs on this process's CPUs but the one this
    process ran on at the fork, or on all of them if that is the only one, and
    this process runs on that one CPU; reaping restores this process's CPUs."""

    def __init__(self, name, work):
        self.name, self.status = name, None  # the exit code, once reaped
        self.cpus = os.sched_getaffinity(0)
        here = {_current_cpu()}
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
                    os.sched_setaffinity(0, self.cpus - here or self.cpus)
                    message = ("result", work(there))
                except Exception as exc:
                    message = ("error", exc)
                try:
                    there.send(message)  # one that does not pickle ends the pipe: exit 1
                except ConnectionError:  # this process closed its end: no one waits
                    if message[0] == "error":
                        raise
                status = 0
            finally:
                os._exit(status)
        there.close()
        os.sched_setaffinity(0, here)

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
            try:
                self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            finally:
                os.sched_setaffinity(0, self.cpus)
        return self.status
