"""Backend selection for the coloring search kernel and its local search.

The compiled kernel (_kernel_c, built from _kernel.c on first use) is
preferred when it builds and loads; CONDCHROM_BACKEND=pure forces the Python
reference without touching the compiler, CONDCHROM_BACKEND=c fails loudly if
the C kernel cannot be built. Both backends implement identical semantics.
"""

from __future__ import annotations

import os

from . import _kernel_py
from ._kernel_py import BUDGET, FOUND, NONE  # search_coloring's statuses


def _load():
    choice = os.environ.get("CONDCHROM_BACKEND", "auto")
    if choice not in ("auto", "c", "pure"):
        raise ValueError(f"CONDCHROM_BACKEND must be auto|c|pure, got {choice!r}")
    if choice in ("auto", "c"):
        try:
            from . import _kernel_c

            return _kernel_c, "c"
        except ImportError:
            if choice == "c":
                raise
    return _kernel_py, "pure"


_backend, BACKEND_NAME = _load()


def search_coloring(neighbors, req, k, budget=0):
    """(status, colors|None, nodes); see _kernel_py.search_coloring."""
    return _backend.search_coloring(neighbors, req, k, budget)


def local_search(neighbors, req, k, start, max_moves):
    """(colors|None, moves); see _kernel_py.local_search."""
    return _backend.local_search(neighbors, req, k, start, max_moves)


def backends():
    """All importable backends, for benchmarks and equivalence tests."""
    out = {"pure": _kernel_py}
    try:
        from . import _kernel_c

        out["c"] = _kernel_c
    except ImportError:
        pass
    return out
