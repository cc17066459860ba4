"""Run a ``repro`` CLI command with the benchmark's layer spans installed.

    python3 perfbench/shim.py OUT.json campaign worker --port 29268

The traced ``campaign`` rounds start their worker this way.  When the command
exits, OUT.json receives its per-layer self seconds, calls and bytes, and its
metrics-registry counters.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import repro.campaign.worker  # noqa: F401 - loaded before wrapping
    from repro import cli
    from repro.obs.metrics import get_registry

    from perfbench.harness import registry_counts
    from perfbench.layers import install
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    install(recorder, runner_layer="campaign.exec")
    try:
        return cli.main(argv)
    finally:
        out.write_text(
            json.dumps(
                {
                    "self_s": recorder.self_s,
                    "calls": recorder.calls,
                    "bytes": recorder.bytes,
                    "counts": registry_counts(get_registry()),
                }
            )
        )


if __name__ == "__main__":
    raise SystemExit(main())
