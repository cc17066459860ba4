"""The package imports with its declared runtime dependencies only.

``pyproject.toml`` declares numpy and networkx; scipy comes only with the
``dev`` extra and is needed only by ``compare_heuristics``.  networkx is
needed only by ``TaskGraph.to_networkx``.  Each runs in a fresh interpreter,
because this test process has long since loaded both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The entry points of every long-lived ``repro`` process: the CLI, campaign
#: workers and the scheduling daemon, plus the testbed package they load.
ENTRY_MODULES = (
    "repro.cli",
    "repro.campaign.worker",
    "repro.service.server",
    "repro.experiments",
)


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_entry_points_import_without_scipy():
    imports = "\n".join(f"import {m}" for m in ENTRY_MODULES)
    # A None entry makes every later ``import scipy...`` raise, as on an
    # install without the dev extra.
    proc = _run(f'import sys\nsys.modules["scipy"] = None\n{imports}\n')
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_scipy_nor_networkx():
    proc = _run(
        "import sys\n"
        "import repro.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
