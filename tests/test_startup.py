"""Start-up cost: importing navrisk starts no idle BLAS worker threads.

navrisk/__init__.py defaults OPENBLAS_NUM_THREADS to 1 before numpy is
imported, because navrisk makes no BLAS call and the worker threads that
OpenBLAS starts at import only burn CPU.  A value already set is kept.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = ("import os, navrisk; print(os.environ['OPENBLAS_NUM_THREADS']); "
         "print(next(line.split()[1] for line in open('/proc/self/status') "
         "if line.startswith('Threads:')))")
BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "tensordot",
              "vdot"}


def import_navrisk(blas_threads=None):
    """(OPENBLAS_NUM_THREADS, thread count) seen by a fresh interpreter
    after `import navrisk`, started with the variable unset or as given."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, int(threads)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_import_starts_no_blas_threads():
    assert import_navrisk() == ("1", 1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_a_set_thread_count_is_kept():
    assert import_navrisk("2")[0] == "2"


def test_navrisk_makes_no_blas_call():
    """The reason for the default: no matrix product operator, and no
    dot/matmul/linalg/einsum/inner/tensordot/vdot, in any module."""
    found = []
    for path in sorted((SRC / "navrisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in BLAS_NAMES:
                found.append((path.name, getattr(node, "lineno", 0), name))
    assert found == []
