"""Tooling that reaches into the package by name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/trace_child.py wraps library functions where their callers
    # bind them; a deleted or renamed name makes install() raise.  install()
    # patches modules globally, so it runs in a child process.
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from trace_child import Tracer, install; install(Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
