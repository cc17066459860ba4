"""Benchmark entry point.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 16 --trace 0

Prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  See ``perfbench/README.md``.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "service", "hunt", "campaign")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # The checkout's sources, never an installed copy; drop the script
    # directory so benchmark modules are only reachable as ``perfbench.*``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import importlib
    import json

    from perfbench import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    module = importlib.import_module(f"perfbench.{args.workload}")
    workload = getattr(module, args.workload.capitalize())
    return harness.run(workload, args, T0, end_to_end, per_layer)


if __name__ == "__main__":
    raise SystemExit(main())
