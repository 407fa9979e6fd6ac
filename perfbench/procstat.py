"""CPU time and peak RSS of a process, read from ``/proc`` (no psutil here)."""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU time of ``pid`` (all of its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        stat = fh.read()
    # the command name may hold spaces; fields resume after its ')'
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set size) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
