"""The server suite leaks no socket or transport under ``python -X dev``.

Development mode shows every ``ResourceWarning``: a client reader left
open on an error response, or a connection the server accepted just
before shutdown and never closed, shows up in the suite's warning
summary even though every test passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_server_suite_is_clean_under_dev_mode():
    proc = subprocess.run(
        [
            sys.executable, "-X", "dev", "-m", "pytest", "-q",
            "-p", "no:cacheprovider", "tests/service/test_server.py",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "ResourceWarning" not in output, output
