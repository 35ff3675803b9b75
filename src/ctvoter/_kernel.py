"""Build, cache and load the compiled event loop (_kernel.c) through ctypes.

The library is compiled on first use, never at import, and written to the
package's __pycache__ under a name made from the SHA-256 of the source, the
compiler flags and the interpreter's cache tag; a cached build is reused.
The write is atomic (temporary file, then os.replace), so separate
processes, such as two CLI runs started at once, can race on it safely.
The kernel is required: when the source or the compiler is missing, or the
build or the load fails, load() raises OSError, which names the cause.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from .graphs import Graph, edge_arrays

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
# the loop must round exactly as Python does: -O3 only reorders and vectorises
# what IEEE-754 semantics allow, -ffp-contract=off forbids fused
# multiply-adds, and there is no -ffast-math, -Ofast,
# -funsafe-math-optimizations or -march=native
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
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

_pointer, _int32, _int64, _double = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double


class Run(ctypes.Structure):
    """struct ct_run of _kernel.c, field for field: a run's graph arrays and
    sizes, its parameters and seed, the addresses of its buffers (None for
    an observer it has not) and its counters. dynamics._kernel_run fills it."""

    _fields_ = [
        *((name, _pointer) for name in ("e1", "e2", "inc_start", "inc_edge")),
        ("n_vertices", _int32), ("n_edges", _int32), ("eps", _double), ("t_max", _double),
        ("max_events", _int64), ("until", _int64), ("seed", ctypes.c_uint64),
        *((name, _pointer) for name in ("ops", "weights", "work", "table", "slots", "trace_t")),
        ("trace", _pointer), ("census", _pointer), ("types", _int32),
        ("log_t", _pointer), ("log_edge", _pointer),
        *((name, _int64) for name in ("events", "active", "samples", "distinct", "extremists")),
        ("clock", _double),
    ]


# argument types of the library's entry points, one per parameter in _kernel.c;
# a struct ct_run is passed by its address
SIGNATURES = {
    "ct_draw_uniform": [_pointer, _int32, ctypes.c_uint64],
    "ct_run_events": [_pointer],
    "ct_run_replicates": [_pointer, _pointer, _int64, _pointer, _pointer],
    "ct_reaches_all": [_pointer] * 4 + [_int32, _pointer],
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
    library is built if not cached.

    Raises OSError naming the step that failed (reading the source, running
    the compiler, loading the library) and its cause, with the compiler's
    stderr when it ran and failed. A failure is not cached: the next call
    tries again.
    """
    step = "read the event kernel source"
    try:
        path = library_path()
        if not path.exists():
            step = f"compile the event kernel with {COMPILER}"
            _build(path)
        step = "load the event kernel"
        lib = ctypes.CDLL(str(path))
        functions = {name: getattr(lib, name) for name in SIGNATURES}
    except subprocess.CalledProcessError as exc:
        raise OSError(f"cannot {step} (exit {exc.returncode}):\n{exc.stderr.strip()}") from exc
    except (OSError, AttributeError) as exc:
        raise OSError(f"cannot {step}: {exc}") from exc
    for name, function in functions.items():
        function.argtypes = SIGNATURES[name]
        function.restype = ctypes.c_int
    return functions


def graph_pointers(g: Graph) -> tuple[int, ...]:
    """Addresses of graphs.edge_arrays(g), taken once per Graph.

    The incidence lists each vertex's edges in increasing index order, the
    order in which the kernel visits them. g keeps the arrays, and so
    the addresses valid, for as long as it lives.
    """
    return g.derived("kernel_pointers", _addresses)


def _addresses(g: Graph) -> tuple[int, ...]:
    return tuple(a.ctypes.data for a in edge_arrays(g))


def reaches_all(g: Graph) -> bool:
    """graphs.is_connected's search, run by ct_reaches_all over g's CSR incidence."""
    work = np.empty(2 * g.n_vertices, dtype=np.int32)
    return load()["ct_reaches_all"](*graph_pointers(g), g.n_vertices, work.ctypes.data) == 1


# this thread's last scratch set, as ((n, m, cap, types), buffers, addresses)
_kept = threading.local()


@contextlib.contextmanager
def scratch(n: int, m: int, cap: int = 0, types: int = 0):
    """The scratch buffers (work, table, slots, census) of a kernel run on n
    vertices and m edges, with room for cap trace samples and `types` census
    types, and their addresses; as (buffers, addresses).

    `work` holds 2m + 625 int32 words: the active edges, their positions and
    the generator state. `table` holds the hash table that count_opinions in
    _kernel.c counts opinions in: the least power of two >= 2n uint64 words.
    A traced run (cap > 0) also takes `slots`, each vertex's table slot and
    the count per slot (n + len(table) int32 words), and a run with a census
    of types > 0 types `census`, the live census row and one copy per sample
    ((cap + 1) * (types + 2) int64 words); each is None when not asked for.

    Each thread keeps its last set and hands it out again to a call with
    the same sizes, so a run on a large graph finds its pages warm; a call
    with other sizes frees the kept set before it allocates its own. The set
    is out of the keeping while a call uses it, so a call nested in an
    on_event hook gets a set of its own. The buffers are not cleared: the
    kernel writes each word before it reads it. Each is allocated at its
    exact size, so that a sanitizer sees its end.
    """
    key = (n, m, cap, types)
    kept = getattr(_kept, "set", None)
    # out of the keeping either way: a kept set of other sizes is freed
    # before the new one is allocated
    _kept.set = None
    if kept is None or kept[0] != key:
        kept = None
        table = np.empty(1 << (2 * n - 1).bit_length(), dtype=np.uint64)
        buffers = (
            np.empty(2 * m + 625, dtype=np.int32),
            table,
            np.empty(n + len(table), dtype=np.int32) if cap else None,
            np.empty((cap + 1) * (types + 2), dtype=np.int64) if types else None,
        )
        kept = (key, buffers, tuple(None if b is None else b.ctypes.data for b in buffers))
    try:
        yield kept[1], kept[2]
    finally:
        _kept.set = kept
