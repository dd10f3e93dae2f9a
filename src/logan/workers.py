"""Forked worker processes: run a function over a list of items in children.

``ForkMap(fn, items)`` runs ``fn`` on each item in children forked from the
caller, one per usable CPU and at most one per item, and returns the
results in item order.  The children inherit ``fn`` and the items through
the fork, so nothing is pickled on the way out: only each item's index goes
to a child, over a pipe, and only its result or exception comes back,
pickled.  A child takes the next item as soon as it returns one, so a long
item holds up no other.  Used as a context manager, the children start on
entry, the caller may do its own work while they run (``parent_works``
leaves it a CPU), and the results are collected when it asks for them::

    with ForkMap(fn, items, parent_works=True) as results:
        ...  # the caller's own work
        values = results()

An item that raises makes no later item start, and ``results()`` raises
the exception of the first failing item in item order, as calling ``fn``
on the items one after another would; a child that dies is a failing item
that raises ``RuntimeError``.  Leaving the ``with`` block, by any exception
too, kills and reaps every child.  A child ends with ``os._exit`` whatever
happens, so it never unwinds into the caller's frames, and a child whose
caller has gone takes no further item.

``fn`` runs on every item in the calling process instead, when
``results()`` is called, where forking would not help or is not possible:
when one CPU is usable (or the caller is idle and there is one item), when
``os.fork`` is missing, and when the caller is a daemonic
``multiprocessing`` process, which may not have children.  The results are
the same either way.  Forking a process that runs other threads can leave a
lock held in the child forever, so do not use this from a multi-threaded
program.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Generic, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# The pipe ends that the caller holds for its live children, of every
# ForkMap in this process: a new child closes them all, so that no child
# keeps another's pipes open after the caller has gone.
_caller_fds: set[int] = set()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    # A caller can only be a daemonic multiprocessing process if
    # multiprocessing is loaded, so it is not imported here.
    mp = sys.modules.get("multiprocessing")
    return hasattr(os, "fork") and not (mp is not None and mp.current_process().daemon)


class _Child:
    """A forked child, seen from the caller: its pid, the pipe it reads
    item indices from and the pipe its results come back on."""

    def __init__(self, pid: int, tasks: int, results: int) -> None:
        self.pid = pid
        self.tasks: int | None = tasks
        self.reader = open(results, "rb")
        self.item: int | None = None
        self.reaped = False

    def send(self, index: int) -> None:
        self.item = index
        os.write(self.tasks, index.to_bytes(4, "little"))

    def stop(self) -> None:
        """Close the item pipe; the child exits when it reads its end."""
        if self.tasks is not None:
            _caller_fds.discard(self.tasks)
            os.close(self.tasks)
            self.tasks = None

    def receive(self) -> tuple[bool, Any]:
        """(True, value) or (False, exception) for the child's item."""
        import pickle

        header = self.reader.read(8)
        if len(header) == 8:
            size = int.from_bytes(header, "little")
            payload = self.reader.read(size)
            if len(payload) == size:
                return pickle.loads(payload)
        # end of file before a whole result: the child has died
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        code = os.waitstatus_to_exitcode(status)
        return False, RuntimeError(
            f"a worker process ended without returning a result (exit code {code})"
        )

    def close(self) -> None:
        """Kill the child if it still runs, reap it, and close its pipes."""
        import signal

        self.stop()
        _caller_fds.discard(self.reader.fileno())
        self.reader.close()
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reaped = True


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a RuntimeError that names it."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve(fn: Callable[[Any], Any], items: Sequence[Any], tasks: int, results: int) -> None:
    """A child's loop: read an item index, send back ``fn`` of that item,
    until the caller closes the item pipe or goes away."""
    import pickle

    with open(results, "wb") as out:
        while len(index := os.read(tasks, 4)) == 4:
            try:
                outcome = (True, fn(items[int.from_bytes(index, "little")]))
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent to the caller, which raises it
                payload = pickle.dumps((False, _portable(exc)), pickle.HIGHEST_PROTOCOL)
            out.write(len(payload).to_bytes(8, "little"))
            out.write(payload)
            out.flush()


def _fork_child(fn: Callable[[Any], Any], items: Sequence[Any], children: list[_Child]) -> None:
    """Fork one more child serving ``fn`` over ``items`` and add it to
    ``children``."""
    import signal

    tasks_read, tasks_write = os.pipe()
    results_read, results_write = os.pipe()
    _caller_fds.update((tasks_write, results_read))
    # No signal handler may run between the fork and the child's try, nor in
    # the caller before the child is in ``children``, where it is reaped.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                for fd in _caller_fds:
                    os.close(fd)
                _caller_fds.clear()
                _serve(fn, items, tasks_read, results_write)
                status = 0
            finally:
                os._exit(status)
        children.append(_Child(pid, tasks_write, results_read))
    except BaseException:
        _caller_fds.difference_update((tasks_write, results_read))
        os.close(tasks_write)
        os.close(results_read)
        raise
    finally:
        os.close(tasks_read)
        os.close(results_write)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class ForkMap(Generic[T, R]):
    """``fn`` over ``items`` in forked children; see the module docstring."""

    def __init__(
        self, fn: Callable[[T], R], items: Sequence[T], parent_works: bool = False
    ) -> None:
        self._fn = fn
        self._items = list(items)
        self._parent_works = parent_works
        self._children: list[_Child] = []
        self._busy: dict[int, _Child] = {}  # by result pipe
        self._outcomes: dict[int, tuple[bool, Any]] = {}  # by item
        self._sent = 0
        self._failed = len(self._items)  # the first failing item so far

    def _child_count(self) -> int:
        if not self._items or not _can_fork():
            return 0
        n = min(len(self._items), usable_cpus() - self._parent_works)
        # with the caller idle, one child would only move the work
        return n if n + self._parent_works > 1 else 0

    def __enter__(self) -> Callable[[], list[R]]:
        try:
            for _ in range(self._child_count()):
                try:
                    _fork_child(self._fn, self._items, self._children)
                except OSError:  # no more processes: the started ones share the items
                    break
            for child in self._children:
                self._dispatch(child)
        except BaseException:
            self._close()
            raise
        return self.results

    def __exit__(self, *exc_info: object) -> None:
        self._close()

    def _close(self) -> None:
        for child in self._children:
            child.close()

    def _dispatch(self, child: _Child) -> None:
        """Send ``child`` the next item, or stop it when none is left or an
        item has failed."""
        if self._sent < self._failed:
            try:
                child.send(self._sent)
            except BrokenPipeError:  # the child has died; receive() says so
                pass
            self._busy[child.reader.fileno()] = child
            self._sent += 1
        else:
            child.stop()

    def results(self) -> list[R]:
        """``fn`` of every item, in item order; call once."""
        if not self._children:
            return [self._fn(item) for item in self._items]
        import select

        outcomes = self._outcomes
        # wait for every item before the first failure
        while any(i not in outcomes for i in range(min(self._failed, self._sent))):
            ready, _, _ = select.select(list(self._busy), [], [])
            for fd in ready:
                child = self._busy.pop(fd)
                outcome = outcomes[child.item] = child.receive()
                if not outcome[0]:
                    self._failed = min(self._failed, child.item)
                if not child.reaped:
                    self._dispatch(child)
        if self._failed < len(self._items):
            raise outcomes[self._failed][1]
        return [outcomes[i][1] for i in range(len(self._items))]
