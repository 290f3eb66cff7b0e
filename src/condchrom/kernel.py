"""Backend selection for the kernel's three searches: the coloring search,
its local search and the maximum clique search behind every lower bound.

The compiled kernel (_kernel_c, built from _kernel.c on first use, one try
per process) is preferred when it loads; CONDCHROM_BACKEND=pure forces the
Python reference without touching the compiler, CONDCHROM_BACKEND=c fails
loudly if it cannot be built. Both backends implement identical semantics.
"""

from __future__ import annotations

import functools
import os

from . import _kernel_py
from ._kernel_py import BUDGET, FOUND, NONE  # search_coloring's statuses


@functools.cache
def _compiled():  # the _kernel_c module, or the ImportError of its one try
    try:
        from . import _kernel_c
    except ImportError as e:
        return e
    return _kernel_c


def _load():
    choice = os.environ.get("CONDCHROM_BACKEND", "auto")
    if choice not in ("auto", "c", "pure"):
        raise ValueError(f"CONDCHROM_BACKEND must be auto|c|pure, got {choice!r}")
    if choice in ("auto", "c"):
        c = _compiled()
        if not isinstance(c, ImportError):
            return c, "c"
        if choice == "c":
            raise c
    return _kernel_py, "pure"


_backend, BACKEND_NAME = _load()


def search_coloring(neighbors, req, k, budget=0):
    """(status, colors|None, nodes); see _kernel_py.search_coloring."""
    return _backend.search_coloring(neighbors, req, k, budget)


def local_search(neighbors, req, k, start, max_moves):
    """(colors|None, moves); see _kernel_py.local_search."""
    return _backend.local_search(neighbors, req, k, start, max_moves)


def max_clique(adj, floor=0):
    """Members of a maximum clique above `floor`, or []; see
    _kernel_py.max_clique."""
    return _backend.max_clique(adj, floor)


def backends():
    """All importable backends, for benchmarks and equivalence tests."""
    c = _compiled()
    return {"pure": _kernel_py} | ({} if isinstance(c, ImportError) else {"c": c})
