"""Host and process readings from /proc: CPU steal, load, CPU time, peak RSS.

They explain a noisy sample rather than hide it: every run stores them next
to its timings. ``reference_s`` times a fixed kernel, the yardstick for the
host's speed at the moment a scenario runs.
"""
from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def driver_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def java_descendant(pid: int) -> int:
    """``pid`` itself or its first descendant whose command is ``java``."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                stat = (d / "stat").read_text()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            children.setdefault(ppid, []).append(int(d.name))
    todo = [pid]
    while todo:
        p = todo.pop(0)
        try:
            if Path(f"/proc/{p}/comm").read_text().strip() == "java":
                return p
        except OSError:
            pass
        todo.extend(children.get(p, []))
    raise RuntimeError(f"no java process under pid {pid}")


def reference_s() -> float:
    """Wall seconds of a fixed driver-side kernel: interpreted loops and
    small numpy calls, the mix the scenario's driver work has. It moves with
    the host's speed and not with the program, so a scenario's time divided
    by it moves much less with the host than the time itself."""
    import numpy as np

    t = time.perf_counter()
    x = np.arange(1536 * 8, dtype=float).reshape(1536, 8) % 97.0
    acc = 0.0
    for j in range(600):
        col = x[:, j % 8]
        order = np.argsort(col, kind="stable")
        acc += float(np.cumsum(col[order])[-1]) + float(np.bincount(order % 64).max())
        for i in range(500):
            acc += (i * j) % 7
    return time.perf_counter() - t


def noise_record(spark) -> dict:
    import numpy
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": spark.sparkContext.master,
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
