"""The smoke scripts' start-up wait, with a deadline that holds.

``smoke_service.py``, ``smoke_telemetry.py`` and ``smoke_shard.py`` start a
daemon and wait for the line it prints once it serves.  A plain
``readline`` on its stderr blocks until the next line, so a daemon that is
up but never prints the expected one would hang the smoke past its
deadline.  Here a reader thread drains the pipe, and the wait gives up when
the deadline passes.  The scripts run with ``benchmarks/`` on ``sys.path``.
"""

from __future__ import annotations

import queue
import re
import subprocess
import threading
import time

__all__ = ["wait_for_line"]


def wait_for_line(proc: subprocess.Popen, pattern: str, timeout: float) -> str | None:
    """The first line of ``proc``'s stderr that matches ``pattern``, or
    ``None`` if none does within ``timeout`` seconds or stderr closes first.

    The reader thread keeps draining stderr after the wait returns, so a
    daemon that logs a lot never blocks on a full pipe.
    """
    lines: queue.Queue[str] = queue.Queue()
    waiting = threading.Event()
    waiting.set()

    def drain() -> None:
        for line in proc.stderr:
            if waiting.is_set():
                lines.put(line)
        lines.put("")  # end of stream

    threading.Thread(target=drain, daemon=True).start()
    deadline = time.monotonic() + timeout
    try:
        while (left := deadline - time.monotonic()) > 0:
            try:
                line = lines.get(timeout=left)
            except queue.Empty:
                return None
            if not line:
                return None
            if re.search(pattern, line):
                return line
        return None
    finally:
        waiting.clear()
