"""Test-side harness for concurrent first queries: a runner that releases n
threads at once and returns what each computed. `kept_store.spy_on_kept`
slows a build down, so every thread's first query is in flight together."""

import threading


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
