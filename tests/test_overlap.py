"""The contract of ``overlap.in_halves`` and ``overlap.settle``: where each
half runs, and what a failure leaves behind."""

import threading
import time

import pytest

from concf import overlap

from conftest import open_worker_gate, worker_started


def noting(events: list, fail: str | None = None, pause: str | None = None):
    """A half that notes its name and thread in ``events``: after 0.1 s when
    its name is ``pause``, and then raising when it is ``fail``."""

    def half(name):
        if name == pause:
            time.sleep(0.1)
        events.append((name, threading.current_thread().name))
        if name == fail:
            raise RuntimeError(f"{name} failed")

    return half


def shut_down_worker():
    """Let the open gate's worker finish what it holds, then drop it."""
    overlap._WORKERS.popitem()[1].shutdown(wait=True)


class TestWhereHalvesRun:
    def test_closed_gate_runs_here_then_there_on_the_calling_thread(self):
        events = []
        overlap.in_halves(None, noting(events), ("here",), ("there",))
        caller = threading.current_thread().name
        assert events == [("here", caller), ("there", caller)]

    def test_open_gate_runs_there_on_the_worker(self, open_gate):
        events = []
        overlap.in_halves(overlap.start_for(0), noting(events), ("here",), ("there",))
        assert worker_started()
        threads = dict(events)
        assert threads["here"] == threading.current_thread().name
        assert threads["there"].startswith("concf-step")

    @pytest.mark.parametrize("gate", ["closed", "open"])
    def test_an_empty_half_here_makes_no_call(self, gate, monkeypatch):
        if gate == "open":
            open_worker_gate(monkeypatch)
        events = []
        overlap.in_halves(overlap.start_for(0), noting(events), None, ("there",))
        assert [name for name, _ in events] == ["there"]

    def test_called_on_the_worker_both_halves_run_there(self, open_gate):
        events = []

        def job():
            overlap.in_halves(overlap.start_for(0), noting(events), ("here",), ("there",))
            return threading.current_thread().name

        try:
            worker = overlap.start_for(0)(job).result(timeout=30)
        finally:
            shut_down_worker()
        assert worker.startswith("concf-step")
        assert events == [("here", worker), ("there", worker)]


class TestFailure:
    def test_closed_gate_failed_here_never_runs_there(self):
        events = []
        with pytest.raises(RuntimeError, match="here failed"):
            overlap.in_halves(None, noting(events, fail="here"), ("here",), ("there",))
        assert [name for name, _ in events] == ["here"]

    def test_failed_here_cancels_a_there_that_has_not_started(self, open_gate):
        events, release = [], threading.Event()
        start = overlap.start_for(0)
        # the worker is busy, so ``there`` waits in its queue
        busy = start(release.wait, 30)
        try:
            with pytest.raises(RuntimeError, match="here failed"):
                overlap.in_halves(start, noting(events, fail="here"), ("here",), ("there",))
        finally:
            release.set()
            assert busy.result(timeout=30)
            shut_down_worker()
        assert [name for name, _ in events] == ["here"]

    @pytest.mark.parametrize("there_fails", [False, True])
    def test_failed_here_waits_for_a_running_there_and_raises_its_own_error(
            self, open_gate, there_fails):
        events, started = [], threading.Event()
        there = noting(events, fail="there" if there_fails else None, pause="there")

        def half(name):
            if name == "here":
                assert started.wait(timeout=30)
                events.append(("here", threading.current_thread().name))
                raise RuntimeError("here failed")
            started.set()
            there(name)  # still running when ``here`` fails

        with pytest.raises(RuntimeError, match="here failed"):
            overlap.in_halves(overlap.start_for(0), half, ("here",), ("there",))
        # ``there`` had ended before the error was raised
        assert [name for name, _ in events] == ["here", "there"]

    def test_failed_there_is_raised_after_here_ends(self, open_gate):
        events = []
        with pytest.raises(RuntimeError, match="there failed"):
            overlap.in_halves(overlap.start_for(0), noting(events, fail="there", pause="here"),
                              ("here",), ("there",))
        assert [name for name, _ in events] == ["there", "here"]

    def test_settle_cancels_what_has_not_started_and_waits_for_what_has(self, open_gate):
        events, running, release = [], threading.Event(), threading.Event()
        start = overlap.start_for(0)
        half = noting(events)

        def first():
            running.set()
            assert release.wait(timeout=30)
            half("first")

        jobs = [start(first), None, start(half, "second"), start(half, "third"),
                overlap.Deferred(half, "deferred")]
        try:
            assert running.wait(timeout=30)
            threading.Timer(0.1, release.set).start()
            overlap.settle(*jobs)
            assert jobs[0].done()
            assert jobs[2].cancelled() and jobs[3].cancelled()
        finally:
            release.set()
            shut_down_worker()
        assert [name for name, _ in events] == ["first"]
