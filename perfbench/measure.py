"""Child-process measurement and the order statistics the benchmark reports."""

from __future__ import annotations

import os
import selectors
import statistics
import subprocess
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildRun:
    """One finished child process: exit code, output, and its own usage."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> ChildRun:
    """Run ``argv`` to completion and read its resource usage from wait4.

    ``os.wait4`` reports the usage of exactly this child, unlike
    ``getrusage(RUSAGE_CHILDREN)``, whose peak RSS is the maximum over
    every child this process has ever reaped. A child still running after
    ``timeout`` seconds is killed and reported as timed out.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in selector.select(max(remaining, 0.1) if not timed_out else None):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=timed_out,
    )


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)
