"""Machine-speed calibration: a fixed loop shaped like the kicked runs.

Usage: python3 perfbench/calibrate.py
Prints one JSON object with the loop's ``wall_s`` and ``cpu_s``.

The loop convolves, multiplies and reduces 4001-element complex arrays from a
Python loop on a thread pool as wide as the CPU set, as zenomap's kicked runs
do, but it imports nothing from zenomap, so a change to the program cannot
move it. run.py runs it before every sample and expresses the end-to-end
times at a fixed reference speed (see README.md).
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SIZE = 4001
TAPS = 65
ITERATIONS = 1200
TASKS = 4


def _task(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = np.zeros(SIZE, dtype=complex)
    x[SIZE // 2] = 1.0
    w = rng.standard_normal(TAPS)
    w /= np.linalg.norm(w)
    flight = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, SIZE))
    offsets = np.arange(SIZE, dtype=float)
    acc = 0.0
    for _ in range(ITERATIONS):
        x = np.convolve(x, w, mode="same") * flight
        x = x * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, SIZE))
        acc += float(np.dot(offsets, x.real ** 2 + x.imag ** 2))
    return acc


def main() -> None:
    threads = len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    c0 = time.process_time()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(_task, range(TASKS)))
    print(json.dumps({"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}))


if __name__ == "__main__":
    main()
