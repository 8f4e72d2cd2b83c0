"""Test-side harness for concurrent first queries: a runner that releases n
threads at once and returns what each computed, and a phase 1 slow enough
to keep every thread's first query in flight together."""

import threading
import time

from hedgecert import lp


def run_together(n: int, work, timeout: float = 60) -> list:
    """[work(0), ..., work(n - 1)], each call in a thread of its own, all
    released together by a barrier that waits up to `timeout` seconds.
    Fails unless every thread has ended once each was joined for up to
    `timeout` seconds; a call that raised raises here, the first thread's
    first."""
    start = threading.Barrier(n, timeout=timeout)
    results, errors = [None] * n, [None] * n

    def run(i):
        try:
            start.wait()
            results[i] = work(i)
        except Exception as exc:  # raised again in the caller's thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads), f"a thread outlived its {timeout} s join"
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def slow_phase_one(monkeypatch) -> list:
    """The problems every phase 1 built from now on is for, in a list that
    grows as they are built; each sleeps 0.05 s first, so threads whose
    first query builds a face all find it unbuilt."""
    built = []

    class Slow(lp._Phase1):
        def __init__(self, p):
            built.append(p)
            time.sleep(0.05)
            super().__init__(p)

    monkeypatch.setattr(lp, "_Phase1", Slow)
    return built
