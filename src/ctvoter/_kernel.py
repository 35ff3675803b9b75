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

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np

from .graphs import Graph

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
# no -ffast-math or -march=native: the loop must round exactly as Python does
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBS = ("-lm",)

# return codes of ct_run_events
NO_MEMORY, LIMIT, T_MAX, ABSORBED, SAMPLE = -1, 0, 1, 2, 3
# largest event limit passed to the kernel, so that it fits an int64 with its
# trace points; more events than this would take centuries to run
MAX_EVENTS = 2**62

log = logging.getLogger(__name__)


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
    """The compiled ct_run_events, built if not cached; None if unavailable."""
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        run = ctypes.CDLL(str(path)).ct_run_events
    except subprocess.CalledProcessError as exc:
        log.warning("event kernel failed to compile, using the Python loop:\n%s", exc.stderr)
        return None
    except (OSError, AttributeError) as exc:
        log.warning("event kernel unavailable, using the Python loop: %s", exc)
        return None
    pointer, int32 = ctypes.c_void_p, ctypes.c_int32
    run.argtypes = (
        [pointer] * 4 + [int32, int32, pointer, int32] + [pointer] * 10
        + [ctypes.c_double, ctypes.c_double, ctypes.c_int64, int32]
    )
    run.restype = ctypes.c_int
    return run


_graph_pointers: dict[int, tuple] = {}


def graph_pointers(g: Graph) -> tuple[int, ...]:
    """Addresses of g's int32 arrays e1, e2, inc_start and inc_edge, built once per Graph.

    e1 and e2 are the edge endpoints; inc_start and inc_edge are the CSR
    incidence, which lists each vertex's edges in increasing index order, the
    order in which the Python loop visits them. The cache keeps the arrays
    alive while g is.
    """
    cached = _graph_pointers.get(id(g))
    if cached is None:
        ends = np.array(g.edges, dtype=np.int32).reshape(-1, 2)
        inc_edge = (np.argsort(ends.ravel(), kind="stable") // 2).astype(np.int32)
        inc_start = np.zeros(g.n_vertices + 1, dtype=np.int32)
        np.cumsum(np.bincount(ends.ravel(), minlength=g.n_vertices), out=inc_start[1:])
        kept = (ends[:, 0].copy(), ends[:, 1].copy(), inc_start, inc_edge)
        cached = (tuple(a.ctypes.data for a in kept), kept)
        _graph_pointers[id(g)] = cached
        # drop the entry when g is collected, before its id can be reused
        weakref.finalize(g, _graph_pointers.pop, id(g), None)
    return cached[0]
