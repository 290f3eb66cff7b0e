"""The compiled kernel: `_kernel.c` loaded through ctypes.

On first import the C source is compiled with `cc -O2 -shared -fPIC
-pthread` into $XDG_CACHE_HOME/condchrom/ (default ~/.cache/condchrom/). The
library's file name carries a CRC of the source, the flags and the
interpreter's cache tag, so an edited source is rebuilt and a built one is
reused. Any failure to build or load raises ImportError with the compiler's
message, and `kernel._load` falls back to the pure kernel.

Semantics are those of _kernel_py.search_coloring, node counts included,
and malformed input raises the same ValueError: a req of the wrong length,
a neighbor id out of range, a loop or a repeated neighbor. The C search
keeps one of two state layouts, chosen by n and k alone, and both give the
same results. local_search is _kernel_py.local_search, move for move; the
pure module's TENURE and SEED are passed to it. max_clique is
_kernel_py.max_clique, step for step: the same members in the same order,
and the same ValueError for an id out of range or a loop. The C functions
check the ids themselves; the wrappers only build the arrays.

Each search_coloring call searches on as many threads as the process may
run on (`os.sched_getaffinity`), starting the helpers only once the search
has expanded SPAWN_AFTER nodes. Status, colouring and node count do not
depend on the thread count or on timing. The header of _kernel.c describes the
state layouts and how the search is split between threads.
"""

from __future__ import annotations

import ctypes
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate, chain

from ._kernel_py import (FOUND, NOT_SIMPLE, OUT_OF_RANGE, SEED, TENURE, check_req,
                         check_start)

# The C functions' statuses for malformed input.
_ERRORS = {-2: NOT_SIMPLE, -3: OUT_OF_RANGE}

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
_INT64_MAX = 2**63 - 1
# A search starts its helper threads once it has expanded this many nodes,
# well above the largest search of `table all` (87 nodes, M(fr:2) at r = 5;
# 632 over all its searches), so that small searches pay for no thread.
SPAWN_AFTER = 2**14


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "condchrom")


def _build() -> str:
    """Path of the compiled library, compiling it on a cache miss."""
    with open(_SOURCE, "rb") as fh:
        key = fh.read() + " ".join(_FLAGS).encode()
    key += str(sys.implementation.cache_tag).encode()
    cache = _cache_dir()
    lib = os.path.join(cache, f"_kernel-{zlib.crc32(key):08x}.so")
    if os.path.exists(lib):
        return lib
    import subprocess

    os.makedirs(cache, mode=0o700, exist_ok=True)
    tmp = f"{lib}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run(
            ["cc", *_FLAGS, "-o", tmp, _SOURCE], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise ImportError(
                f"cc exited {proc.returncode} compiling {_SOURCE}:\n{proc.stderr}"
            )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return lib


def _load():
    try:
        lib = ctypes.CDLL(_build())
    except OSError as e:
        raise ImportError(f"cannot build or load the C kernel: {e}") from e
    # Pointers are passed as the addresses of array.array buffers, which
    # the callers keep alive for the call.
    ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
    search, local = lib.condchrom_search, lib.condchrom_local_search
    clique = lib.condchrom_max_clique
    search.argtypes = [i32, ptr, ptr, ptr, i64, i64, i32, i64, ptr, ptr]
    local.argtypes = [i32, ptr, ptr, ptr, i32, ptr, i64, i64, ctypes.c_uint64, ptr]
    clique.argtypes = [i32, ptr, ptr, i32, ptr, ptr]
    search.restype = local.restype = clique.restype = ctypes.c_int
    return search, local, clique


_search, _local_search, _max_clique = _load()


def search_coloring(neighbors, req, k, budget):
    """(status, colors or None, nodes); see _kernel_py.search_coloring."""
    return _search_coloring(neighbors, req, k, budget, _cpus(), SPAWN_AFTER)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _csr(neighbors, req=None):
    """(indptr, indices, req) as arrays for the C kernel, which checks the
    ids; req stays None when it is not given."""
    if req is not None:
        check_req(req, len(neighbors))
        req = array("q", req)
    indptr = array("i", accumulate(map(len, neighbors), initial=0))
    # struct.pack reads the ids about twice as fast as array() does.
    try:
        packed = struct.pack(f"{indptr[-1]}i", *chain.from_iterable(neighbors))
    except struct.error:  # an id that does not fit in a C int
        raise ValueError(OUT_OF_RANGE) from None
    return indptr, array("i", packed), req


def _checked(status):
    """status, once it is no error of the C kernel's."""
    if status in _ERRORS:
        raise ValueError(_ERRORS[status])
    if status < 0:
        raise MemoryError("C kernel: allocation failed")
    return status


def max_clique(adj, floor=0):
    """Members of a maximum clique above `floor`, or []; see
    _kernel_py.max_clique."""
    n = len(adj)
    indptr, indices, _ = _csr(adj)
    out, size = array("i", bytes(4 * n)), array("i", [0])
    # A floor below 0 prunes as 0 does and one above n as n does.
    _checked(_max_clique(n, indptr.buffer_info()[0], indices.buffer_info()[0],
                         max(0, min(floor, n)), out.buffer_info()[0], size.buffer_info()[0]))
    return out[:size[0]].tolist()


def local_search(neighbors, req, k, start, max_moves):
    """(colors or None, moves); see _kernel_py.local_search."""
    check_start(neighbors, k, start)
    indptr, indices, req = _csr(neighbors, req)
    colors = array("i", start)
    moves = array("q", [0])
    status = _checked(_local_search(
        len(neighbors),
        indptr.buffer_info()[0],
        indices.buffer_info()[0],
        req.buffer_info()[0],
        k,
        colors.buffer_info()[0],
        max(-1, min(max_moves, _INT64_MAX)),
        TENURE,
        SEED,
        moves.buffer_info()[0],
    ))
    return (colors.tolist() if status == FOUND else None), moves[0]


def _search_coloring(neighbors, req, k, budget, threads, spawn_after):
    """search_coloring on up to `threads` threads, started after
    `spawn_after` nodes. The result does not depend on either."""
    n = len(neighbors)
    indptr, indices, req = _csr(neighbors, req)
    colors = array("i", bytes(4 * n))
    nodes = array("q", [0])
    # Every k < 1 fails at once and every budget < 0 stops at the first
    # node, so clamping both into int64 keeps the result.
    status = _checked(_search(
        n,
        indptr.buffer_info()[0],
        indices.buffer_info()[0],
        req.buffer_info()[0],
        max(0, min(k, _INT64_MAX)),
        max(-1, min(budget, _INT64_MAX)),
        threads,
        spawn_after,
        colors.buffer_info()[0],
        nodes.buffer_info()[0],
    ))
    if status == FOUND:
        return FOUND, colors.tolist(), nodes[0]
    return status, None, nodes[0]
