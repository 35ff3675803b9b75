"""Build, cache and load the compiled event loop (_kernel.c) through ctypes.

The library is compiled on first use, never at import, and written to the
package's __pycache__ under a name made from the SHA-256 of the source, the
compiler flags and the interpreter's cache tag; a cached build is reused.
The write is atomic (temporary file, then os.replace), so concurrent worker
processes can race on it safely. When no compiler is present, or the build
or the load fails, load() logs one warning and returns None, and the Python
event loop runs instead.
"""

from __future__ import annotations

import array
import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

from .graphs import Graph, edge_arrays, memo

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
# no -ffast-math or -march=native: the loop must round exactly as Python does
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBS = ("-lm",)

# return codes of ct_run_events, and stop codes of ct_run_replicates
LIMIT, T_MAX, ABSORBED, PAUSE = 0, 1, 2, 3
# why a run stopped, by stop code
STOP_REASONS = {ABSORBED: "absorbed", T_MAX: "t_max", LIMIT: "max_events"}
# largest event limit passed to the kernel, so that it fits an int64 with its
# trace points; more events than this would take centuries to run
MAX_EVENTS = 2**62
# events per chunk of the kernel's event log, from which per-event hooks are replayed
LOG_CHUNK = 4096

log = logging.getLogger(__name__)

_pointer, _int32, _int64, _double = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double
# argument types of the library's entry points, one per parameter in _kernel.c
SIGNATURES = {
    "ct_draw_uniform": [_pointer, _int32, ctypes.c_uint64],
    "ct_run_events": (
        [_pointer] * 4 + [_int32, _int32, _pointer, _int32] + [_pointer] * 10
        + [_int32, _pointer, _pointer, _double, _double, _int64, _int64]
    ),
    "ct_run_replicates": (
        [_pointer] * 4 + [_int32, _int32, _pointer, _int64, _double, _double, _int64]
        + [_pointer] * 5
    ),
}


def library_path() -> Path:
    """Cache file of the build of the current source, flags and interpreter."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(FLAGS + LIBS).encode())
    key.update(str(sys.implementation.cache_tag).encode())
    return CACHE_DIR / f"_kernel-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # unique per process and thread, so concurrent builds never share it
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        cmd = [COMPILER, *FLAGS, "-o", str(tmp), str(SOURCE), *LIBS]
        subprocess.run(cmd, check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def load():
    """The library's entry points by name, each typed from SIGNATURES; the
    library is built if not cached. None if unavailable."""
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
        functions = {name: getattr(lib, name) for name in SIGNATURES}
    except subprocess.CalledProcessError as exc:
        log.warning("event kernel failed to compile, using the Python loop:\n%s", exc.stderr)
        return None
    except (OSError, AttributeError) as exc:
        log.warning("event kernel unavailable, using the Python loop: %s", exc)
        return None
    for name, function in functions.items():
        function.argtypes = SIGNATURES[name]
        function.restype = ctypes.c_int
    return functions


def graph_pointers(g: Graph) -> tuple[int, ...]:
    """Addresses of graphs.edge_arrays(g), taken once per Graph.

    The incidence lists each vertex's edges in increasing index order, the
    order in which the Python loop visits them. The memo keeps the arrays
    alive while g is.
    """
    return memo(g, "kernel_pointers", _addresses)


def _addresses(g: Graph) -> tuple[int, ...]:
    return tuple(a.ctypes.data for a in edge_arrays(g))


def scratch(n: int, m: int, cap: int = 0, types: int = 0) -> tuple:
    """The scratch buffers (work, table, slots, census) of a kernel run on n
    vertices and m edges, with room for cap trace samples and `types` census
    types.

    `work` holds 2m + 625 int32 words: the active edges, their positions and
    the generator state. `table` holds the hash table that count_opinions in
    _kernel.c counts opinions in: the least power of two >= 2n uint64 words.
    A traced run (cap > 0) also takes `slots`, each vertex's table slot and
    the count per slot (n + len(table) int32 words), and a run with a census
    of types > 0 types `census`, the live census row and one copy per sample
    ((cap + 1) * (types + 2) int64 words); each is None when not asked for.
    Each is allocated at its exact size, so that a sanitizer sees its end.
    """
    work = array.array("i", [0]) * (2 * m + 625)
    table = array.array("Q", [0]) * (1 << (2 * n - 1).bit_length())
    slots = array.array("i", [0]) * (n + len(table)) if cap else None
    census = array.array("q", [0]) * ((cap + 1) * (types + 2)) if types else None
    return work, table, slots, census
