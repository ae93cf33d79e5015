"""Build and load _growth.c, the planners' compiled kernel.

kernel() compiles the C99 source once per checkout with the constant
compiler COMPILER and FLAGS and loads it through ctypes.  The shared
library is cached in the package's __pycache__ under a name made from the
crc32 of the source, the flags, the interpreter's cache tag and the
machine, so an edited source or another platform gets its own file.  It
is written to a temporary file in that directory and moved into place, so
concurrent builds never load a partial file.  A build there then unlinks
the directory's other _growth-*.so files, which a process that has
loaded one keeps using; so a checkout shared by two interpreters (two
cache tags) rebuilds each time they alternate.  Where that directory is not
writable the library is cached the same way, under the same name, in
navrisk-<uid> under tempfile.gettempdir(), which is made 0700 and used
only while it is a directory that this user owns and no one else can
enter, and keeps every build.  Nothing is built or loaded until the
first plan or lattice walk.

-ffp-contract=off keeps every a * b + c a rounded multiply and a rounded
add, as in numpy and CPython; no -ffast-math, which would reassociate.
-pthread compiles and links for POSIX threads: navrisk_leave_one_out
spreads its tree growths over worker threads that it starts and joins
within the call, and ctypes releases the GIL for the call, so the
threads never wait on the interpreter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import stat
import sys
import zlib
from array import array

COMPILER = "cc"
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off",
         "-pthread")
SOURCE = os.path.join(os.path.dirname(__file__), "_growth.c")

_P, _D, _I = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
_Q = ctypes.c_int64
SIGNATURES = {   # name: (argument types, result type)
    "navrisk_leave_one_out": ((_P, _I, _D, _D, _D, _D, _D, _D, _D, _D, _I,
                               _P, _I, _P, _I, _I, _P, _P, _P, _P, _P, _P,
                               _P, _P, _I), _I),
    "navrisk_seed_state": ((_P, _I, _P, _I, _P, _I), None),
    "navrisk_uniform": ((_P, _I, _D, _D, _D, _D, _I, _P), None),
    "navrisk_sample_future": ((_P, _I, _P, _I, _D, _D, _I, _D, _D, _D, _D,
                               _D, _D, _P), _I),
    "navrisk_hypot_sum": ((_P, _I, _P, _I), _D),
    "navrisk_sum": ((_P, _I), _D),
    "navrisk_class_sum": ((_P, _I, _I, _I, _P), _D),
    "navrisk_path_clear": ((_P, _I, _I, _I, _P, _I, _P, _I, _I), _I),
    "navrisk_lattice": ((_P, _I, _P, _I, _D, _D, _D, _P, _P, _I, _I, _I, _P,
                         _P, _P, _I, _P, _I, _I, _P, _P, _P, _P, _P, _Q),
                        _Q),
}


def address(buf) -> int:
    """The address of the data of buf, an array.array, for a pointer
    argument; the caller keeps buf alive, and unresized, through the
    call."""
    return buf.buffer_info()[0]


def zeros(typecode: str, n: int) -> array:
    """A zeroed array of n items of typecode, for the kernel to write."""
    return array(typecode, [0]) * n


def seed_words(*ns: int) -> ctypes.Array:
    """The integers ns >= 0 as numpy's SeedSequence reads them, and as
    _growth.c's seed functions take them: each as uint32 words, least
    significant first, the one word 0 for 0, and the words of several
    concatenated, as SeedSequence reads a tuple spawn key."""
    words = []
    for n in map(int, ns):
        words += (n >> (32 * i) & 0xffffffff
                  for i in range(max(1, (n.bit_length() + 31) // 32)))
    return (ctypes.c_uint32 * len(words))(*words)


def _library_name(source: bytes) -> str:
    """The cache file name of the library built from source here."""
    key = b"\0".join((source, " ".join(FLAGS).encode(),
                      str(sys.implementation.cache_tag).encode(),
                      os.uname().machine.encode()))
    return f"_growth-{zlib.crc32(key):08x}.so"


def _compile(out: str):
    import subprocess   # only a build needs it
    cmd = [COMPILER, *FLAGS, "-o", out, SOURCE, "-lm"]
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
    for name, (argtypes, restype) in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def _user_cache() -> str:
    """The per-user cache directory, made 0700 if missing.  Raises OSError
    unless it is a directory (not a link) of this user's, closed to
    everyone else."""
    import tempfile   # only a cache outside the package needs it
    path = os.path.join(tempfile.gettempdir(), f"navrisk-{os.getuid()}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() \
            or st.st_mode & 0o077:
        raise OSError(f"cannot build the planner kernel: {path} is not a "
                      f"directory private to this user")
    return path


def _writable(directory: str) -> bool:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _build(path: str):
    """Compile into a temporary file beside path, then move it there."""
    import tempfile   # only a build needs it
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        _compile(tmp)
        os.chmod(tmp, 0o755)   # mkstemp's 0600 would hide it from others
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def kernel() -> ctypes.CDLL:
    """The loaded kernel, built on first use.  Raises OSError naming the
    compiler command and the tail of its output when the build fails."""
    with open(SOURCE, "rb") as f:
        name = _library_name(f.read())
    package = cache = os.path.join(os.path.dirname(SOURCE), "__pycache__")
    if not os.path.isfile(os.path.join(cache, name)) and not _writable(cache):
        cache = _user_cache()
    path = os.path.join(cache, name)
    if not os.path.isfile(path):
        _build(path)
        if cache == package:
            for old in os.listdir(cache):
                if old.startswith("_growth-") and old.endswith(".so") \
                        and old != name:
                    with contextlib.suppress(OSError):   # e.g. gone already
                        os.remove(os.path.join(cache, old))
    return _load(path)
