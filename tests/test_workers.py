import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import logan
from logan import workers
from logan.workers import ForkMap

from helpers import assert_no_child_left


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)


def pid_and_square(x):
    return os.getpid(), x * x


def test_results_come_back_in_item_order(two_cpus):
    """More items than children: every item once, in order, each from a
    child, as the in-process loop gives them."""
    items = list(range(7))
    with ForkMap(pid_and_square, items) as results:
        values = results()
    assert [square for _, square in values] == [x * x for x in items]
    assert os.getpid() not in {pid for pid, _ in values}
    assert_no_child_left()


def test_one_cpu_runs_in_process(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    with ForkMap(pid_and_square, [1, 2, 3], parent_works=True) as results:
        values = results()
    assert values == [(os.getpid(), 1), (os.getpid(), 4), (os.getpid(), 9)]


def test_a_failed_fork_leaves_the_items_to_the_started_children(two_cpus, monkeypatch):
    """When the second fork fails, the first child takes every item."""
    fork = os.fork
    forked = []

    def fork_once():
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forked.append(True)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    with ForkMap(pid_and_square, [1, 2, 3]) as results:
        values = results()
    assert [square for _, square in values] == [1, 4, 9]
    (pid,) = {pid for pid, _ in values}
    assert pid != os.getpid()
    assert_no_child_left()


def failing_late_and_early(x):
    if x == 1:
        time.sleep(0.3)
        raise ValueError("item 1 failed")
    if x == 2:
        raise KeyError("item 2 failed")
    return x


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_item_in_order_raises(monkeypatch, cpus):
    """Item 2 fails first in time, item 1 first in order: item 1's error is
    raised, as the in-process loop raises it."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="^item 1 failed$"):
        with ForkMap(failing_late_and_early, [0, 1, 2, 3]) as results:
            results()
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_unpicklable(x):
    raise Unpicklable(x, "more")


def test_an_error_that_does_not_pickle_is_named(two_cpus):
    with pytest.raises(RuntimeError, match="^Unpicklable: 0 and more$"):
        with ForkMap(raise_unpicklable, [0, 1]) as results:
            results()
    assert_no_child_left()


def test_interrupt_in_the_caller_kills_and_reaps_every_child(two_cpus):
    with pytest.raises(KeyboardInterrupt):
        with ForkMap(time.sleep, [60.0], parent_works=True):
            raise KeyboardInterrupt
    assert_no_child_left()


_ORPHAN = """
import os, sys, time
from logan import workers
workers.usable_cpus = lambda: 2
log = sys.argv[1]

def take(x):
    with open(log, "a") as fh:
        fh.write(f"{x}\\n")
    time.sleep(0.5)
    return x

with workers.ForkMap(take, list(range(6))) as results:
    time.sleep(0.2)
    os._exit(0)  # the caller goes while both children hold an item
"""


def test_a_child_whose_caller_has_gone_takes_no_further_item(tmp_path):
    log = tmp_path / "taken.txt"
    src = str(Path(logan.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", _ORPHAN, str(log)],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=60,
    )
    time.sleep(1.5)  # each child's item takes 0.5 s
    assert sorted(log.read_text().split()) == ["0", "1"]
