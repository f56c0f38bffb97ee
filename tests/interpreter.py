"""The one way the tests start a child interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import sodkit

# the directory that holds the sodkit under test
SRC = str(Path(sodkit.__file__).resolve().parents[1])


def fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter, its text output captured.
    The child sees the caller's environment with env on top, and imports the
    sodkit under test whatever the caller's PYTHONPATH names."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": SRC}, timeout=120)
