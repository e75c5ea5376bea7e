"""When signl may use a second process, and how: the one probe and the one helper.

signl starts no thread.  A second process runs only where ``second_core_free``
holds, and only as this process's helper: one child, forked at the first use,
that serves each later call until the interpreter exits.  A call runs a
module-level function of signl on the helper; the function and its arguments
travel over the helper's pipe, so the helper reads nothing of this process's
state that changed after the fork, and every request carries what its call
needs.  The corpus writer of ``featio.gen_synthetic``, pre-training's
temporal-view worker and evaluate's second scorer are such calls.  Where the
probe fails, each of them does its work in this process instead, with the same
bits.  While a call runs, it and this process run on different CPUs: left to
the scheduler, a process woken over the pipe often stays on its waker's CPU
while the other one idles.  A call may also share a buffer with this process
(``share`` there, ``Call.shared`` here): a memfd that both map, whose one
descriptor crosses the pipe, so that an array the call writes is read here
without a copy.

A process that runs many stages, such as a benchmark or an ablation grid,
forks once in total: a fork per stage cost a few milliseconds, and left
copy-on-write faults on both sides of every stage that followed it.
"""

from __future__ import annotations

import atexit
import contextlib
import mmap
import multiprocessing
import os
import signal
from multiprocessing import reduction

_helper = None  # this process's helper, once forked
_caller = None  # in the helper: its end of the pipe


def second_core_free():
    """Whether a second process may run beside this one.  It holds when this
    process may use 2+ cores and runs exactly one OS thread.  Forking is safe only
    from one thread, and numpy's OpenBLAS starts a thread, which uses the second
    core, unless pinned to one (OPENBLAS_NUM_THREADS=1, which the ``signl``
    command sets unless the user has).  While a call runs, this process is
    pinned to one CPU, so the probe fails there and no call starts another."""
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc: stay in one process
        return False


def call(name, fn, *args):
    """A ``Call`` of ``fn(*args)`` on the helper, to use as a context manager, when
    ``second_core_free`` holds; otherwise a context whose value is None, and the
    caller does the work itself.  The probe gates every call, so a helper left
    from an earlier one is not used where the probe fails."""
    return Call(name, fn, *args) if second_core_free() else contextlib.nullcontext()


def caller():
    """In a call running on the helper, the pipe to the process that made it, over
    which the call may exchange messages with ``Call.send`` and ``Call.recv``."""
    return _caller


def share(nbytes):
    """In a call running on the helper, a zeroed buffer of ``nbytes`` that the call
    writes and the process that made it maps too, read-only, with ``Call.shared``:
    a memfd, whose size and descriptor are sent over ``caller()``.  Neither
    process keeps a descriptor of it; each mapping, and the descriptor ``mmap``
    holds, goes once no array views it."""
    fd = os.memfd_create("signl-shared", os.MFD_CLOEXEC)
    try:
        os.ftruncate(fd, nbytes)
        buffer = mmap.mmap(fd, nbytes)
        _caller.send(("shared", nbytes))
        reduction.send_handle(_caller, fd, os.getppid())
    finally:
        os.close(fd)
    return buffer


def shutdown():
    """Close the helper's pipe and wait for it to exit: its exit code (negative
    for a signal), or None when there is no helper.  An idle helper exits 0 once
    its pipe closes.  Runs at interpreter exit."""
    global _helper
    helper, _helper = _helper, None
    return helper.reap() if helper else None


def _forget():
    """In any child forked from this process, this process's helper is not the
    child's to use or to reap: the child closes its copy of the helper's pipe,
    so the helper still sees EOF when this process closes its own, and forks
    its own helper if it needs one."""
    global _helper
    if _helper:
        _helper.conn.close()
    _helper = None


atexit.register(shutdown)
os.register_at_fork(after_in_child=_forget)


def _current_cpu():
    """The CPU this process last ran on: field 39 of /proc/self/stat, counted after
    the parenthesised command name, which may hold spaces."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return int(fields[36])  # fields[0] is field 3, the state


class _Helper:
    """The helper process, seen from this process, which holds one end of its pipe
    as ``conn``.  The helper runs ``_serve`` on the other end and leaves only
    through os._exit, so it runs none of this process's atexit or finally code."""

    def __init__(self):
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
                _serve(there)
                status = 0
            finally:
                os._exit(status)
        there.close()
        self.status = None  # the exit code, once reaped

    def ended(self):
        """Whether the helper has exited: a helper that died between calls is
        reaped here, and one reaped elsewhere counts as ended."""
        if self.status is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = self.pid, 0
            if pid:
                self.conn.close()
                self.status = os.waitstatus_to_exitcode(status)
        return self.status is not None

    def reap(self, kill=False):
        """Close the pipe, after a SIGKILL if ``kill``, and wait for the helper to
        exit: its exit code."""
        if self.status is None:
            if kill:
                with contextlib.suppress(ProcessLookupError):  # reaped elsewhere
                    os.kill(self.pid, signal.SIGKILL)
            self.conn.close()
            try:
                self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            except ChildProcessError:  # reaped elsewhere
                self.status = 0
        return self.status


def _serve(conn):
    """The helper's loop: run each requested (fn, args) on the requested CPUs and
    send ("result", what it returned) or ("error", the exception it raised),
    until the caller's end closes.  A result or error that does not pickle
    raises here, and the helper exits 1."""
    global _caller
    _caller = conn
    while True:
        try:
            fn, args, cpus = conn.recv()
        except EOFError:
            return
        os.sched_setaffinity(0, cpus)
        try:
            message = ("result", fn(*args))
        except Exception as exc:
            message = ("error", exc)
        try:
            conn.send(message)
        except ConnectionError:  # the caller's end closed: no one waits
            return


class Call:
    """``fn(*args)`` running on this process's helper, seen from this process; the
    helper is forked first if there is none, or if it died since the last call.

    Messages of the call, besides its end, travel as ``send`` and ``recv`` here
    and over ``caller()`` there.  The call's last message is ("result", what
    ``fn`` returned) or ("error", the exception it raised): ``recv`` returns the
    one and raises the other, and RuntimeError naming the exit status or signal
    of a helper that ended without either (a signal, or a value or error that
    does not pickle), which is then dropped.  As a context manager, a block left
    normally waits for the call's end, dropping any message it left unread, and
    a block left on an exception kills and drops the helper, as does a start
    that fails once the call is sent: no call outlives its block, and no message
    the call left unread reaches the next.  A buffer the call shares (``shared``)
    is ``buffer`` until the call ends.

    Until the call ends, the helper runs on this process's CPUs but the one this
    process ran on when the call began, or on all of them if that is the only
    one, and this process runs on that one CPU; the call's end restores this
    process's CPUs."""

    def __init__(self, name, fn, *args):
        global _helper
        self.name, self.ended, self.buffer = name, False, None
        if _helper is None or _helper.ended():
            _helper = _Helper()
        self.helper = _helper
        self.cpus = os.sched_getaffinity(0)
        here = {_current_cpu()}
        self.send((fn, args, self.cpus - here or self.cpus))
        try:
            os.sched_setaffinity(0, here)
        except BaseException:  # the helper runs fn: drop it, or the next call reads its result
            self._drop(kill=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self._drop(kill=True)
        while not self.ended:
            self.recv()

    def send(self, message):
        try:
            self.helper.conn.send(message)
        except OSError:  # the helper has left: raise its error, or how it ended
            self.recv()
            raise

    def shared(self):
        """The buffer the call shares with ``share``, mapped read-only here, once the
        call sends it; the call's error, or how the helper ended, raises instead
        if the call ends first."""
        nbytes = self.recv()
        try:
            fd = reduction.recv_handle(self.helper.conn)
        except EOFError:  # the helper left between the size and the descriptor
            self.recv()
            raise
        try:
            self.buffer = mmap.mmap(fd, nbytes, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        return self.buffer

    def recv(self):
        try:
            op, value = self.helper.conn.recv()
        except (EOFError, OSError):
            code = self._drop(kill=False)
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(f"the {self.name} ended without a result ({how})") from None
        if op in ("result", "error"):
            self._end()
            if op == "error":
                raise value
        return value

    def _end(self):
        """Mark the call ended, let go of its buffer, which is unmapped once no
        array views it, and give this process its CPUs back."""
        self.ended, self.buffer = True, None
        os.sched_setaffinity(0, self.cpus)

    def _drop(self, kill):
        """End the call by dropping the helper: reap it, after a SIGKILL if
        ``kill``.  Returns its exit code."""
        global _helper
        if _helper is self.helper:
            _helper = None
        try:
            return self.helper.reap(kill)
        finally:
            self._end()
