"""Record the answer digests the benchmark checks against.

    python3 bench/pin.py

Computes, without timing, the digest of the pinned rounds of every workload
for each of the pinned seeds (`worker.PINNED_SEEDS`), and writes them to
bench/pins.json. Run it only when the answers are meant to change: a pinned
digest that no longer matches makes a benchmark run report `correct: false`.
"""

from __future__ import annotations

import json

import worker


def main() -> int:
    log = worker.tracing.SolveLog()
    inputs = worker.OUT / "pin-inputs"  # apart from the files a run uses
    pins = {}
    for name in worker.workloads.WORKLOADS:
        pins[name] = {}
        for seed in worker.PINNED_SEEDS:
            digest, tally = worker.seed_digest(name, seed, log, inputs)
            if tally.failures:
                raise SystemExit(f"{name} seed {seed} fails its checks: {tally.failures}")
            pins[name][str(seed)] = digest
            print(name, seed, digest, flush=True)
    worker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
