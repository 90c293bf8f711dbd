"""Machine-speed probe, in a process that runs none of the library's code.

The machines this benchmark runs on are shared. For tens of seconds at a
time, neighbours slow memory-bound work by up to 40% (or speed it up by
10%) with no steal time to show for it, so two runs of one commit a minute
apart can differ by a third. A probe process started beside the work times
a fixed piece of numpy work between operations, while the measuring process
waits: a symmetric eigendecomposition, an FFT round trip and a loop of
small-array operations, the kinds of work the library does. Each timed
operation is divided by the probe time next to it and multiplied by
:data:`REFERENCE_MS`, which cancels the machine's drift. The probe imports
nothing from the library, so no change to the library can speed it up or
slow it down; a change that slows the library shows in full.

Run as a script, this file serves probes: after a warm-up it writes
``ready``, then for each line it reads on stdin runs the probe
:data:`REPEAT` times and writes the fastest run's nanoseconds on stdout.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, Optional

import numpy as np

#: Median probe reading (ms) on the machine the baseline in README.md was
#: recorded on (18.0-18.4 after fits, cDTW batches and set-up children).
#: Scaled times read as milliseconds on that machine at its usual speed; on
#: another machine they differ by a constant factor, which is the same for
#: a parent and a change measured there.
REFERENCE_MS = 18.3
#: Probe runs per reading; the fastest is the reading. The first run after
#: the measured work has cold caches and read up to 60% slow in one set-up
#: sample in five, and a slowdown never makes the probe faster.
REPEAT = 3


def at_reference_speed(times, probe_ns) -> np.ndarray:
    """``times`` (any unit), each divided by its probe, at the reference speed."""
    ratio = np.asarray(times, dtype=np.float64) / np.asarray(probe_ns, dtype=np.float64)
    return ratio * (REFERENCE_MS * 1e6)


def _inputs():
    rng = np.random.default_rng(0)
    sym = rng.standard_normal((320, 320))
    series = rng.standard_normal((400, 512))
    spectra = rng.standard_normal((400, 513)) + 1j * rng.standard_normal((400, 513))
    return sym + sym.T, series, spectra


def _probe(sym: np.ndarray, series: np.ndarray, spectra: np.ndarray) -> None:
    np.linalg.eigh(sym)
    np.fft.irfft(np.fft.rfft(series, 1024) * spectra, 1024).max(axis=1)
    a = np.zeros(64)
    for _ in range(3000):
        a = np.minimum(a + 1.0, a * 0.5 + 2.0)


def serve() -> None:
    inputs = _inputs()
    _probe(*inputs)
    print("ready", flush=True)
    for _ in sys.stdin:
        fastest = None
        for _ in range(REPEAT):
            start = time.perf_counter_ns()
            _probe(*inputs)
            elapsed = time.perf_counter_ns() - start
            fastest = elapsed if fastest is None else min(fastest, elapsed)
        print(fastest, flush=True)


class SpeedProbe:
    """A running probe process; :meth:`time_ns` takes one reading.

    The process is started with ``env`` (the caller's environment when
    ``None``) and is waited for on :meth:`close`.
    """

    def __init__(self, env: Optional[Dict[str, str]] = None) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            self._read("ready")
        except BaseException:
            self.close()
            raise

    def _read(self, expected: Optional[str] = None) -> str:
        line = self._proc.stdout.readline().strip()
        if not line or (expected is not None and line != expected):
            raise RuntimeError(f"speed probe failed (read {line!r})")
        return line

    def time_ns(self) -> int:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return int(self._read())

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
