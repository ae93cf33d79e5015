"""Build and load _growth.c, the planner's compiled tree growth.

kernel() compiles the C99 source once per checkout with the constant
compiler COMPILER and FLAGS and loads it through ctypes.  The shared
library is cached in the package's __pycache__ under a name made from the
crc32 of the source, the flags, the interpreter's cache tag and the
machine, so an edited source or another platform gets its own file.  It
is written to a temporary file in that directory and moved into place, so
concurrent builds never load a partial file.  Where that directory is not
writable the library is built in a private temporary directory for this
process only.  Nothing is built or loaded until the first growth.

-ffp-contract=off keeps every a * b + c a rounded multiply and a rounded
add, as in numpy and CPython; no -ffast-math, which would reassociate.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

COMPILER = "cc"
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_growth.c")

_P, _D, _I = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
SIGNATURES = {
    "navrisk_edge_blockers": (_D, _D, _D, _D, _D, _D, _P, _I, _P, _I, _P),
    "navrisk_grow": (_P, _I, _D, _D, _D, _D, _D, _D, _I, _P, _I, _P, _I, _P,
                     _P, _P, _P, _P),
}


def _library_name(source: bytes) -> str:
    """The cache file name of the library built from source here."""
    key = b"\0".join((source, " ".join(FLAGS).encode(),
                      str(sys.implementation.cache_tag).encode(),
                      os.uname().machine.encode()))
    return f"_growth-{zlib.crc32(key):08x}.so"


def _compile(out: str):
    import subprocess   # only a build needs it
    cmd = [COMPILER, *FLAGS, "-o", out, str(SOURCE), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        raise OSError(f"cannot build the planner kernel: "
                      f"{' '.join(cmd)}: {e}") from e
    if proc.returncode != 0:
        raise OSError(f"cannot build the planner kernel: {' '.join(cmd)} "
                      f"exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return lib


@functools.cache
def kernel() -> ctypes.CDLL:
    """The loaded kernel, built on first use.  Raises OSError naming the
    compiler command and the tail of its output when the build fails."""
    source = SOURCE.read_bytes()
    cache = SOURCE.parent / "__pycache__"
    path = cache / _library_name(source)
    if path.is_file():
        return _load(str(path))
    try:
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError:   # not writable: a private build for this process
        private = tempfile.mkdtemp()
        try:
            lib_path = os.path.join(private, path.name)
            _compile(lib_path)
            return _load(lib_path)
        finally:   # a loaded library stays mapped once its file is gone
            shutil.rmtree(private, ignore_errors=True)
    os.close(fd)
    try:
        _compile(tmp)
        os.chmod(tmp, 0o755)   # mkstemp's 0600 would hide it from others
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return _load(str(path))
