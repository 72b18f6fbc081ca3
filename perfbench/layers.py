"""Self time by layer from a ``cProfile`` profile of the timed regions.

Each Python function's self time goes to the layer of the module that
defines it.  A C function (``heapq.heappush``, ``list.append``, a numpy
ufunc) has no module of its own, so its self time is split among its
callers by what the profiler recorded per caller, and each share goes to
that caller's layer: a heap push inside the simulator is simulator work.
Stdlib and numpy Python code, and the benchmark's own code, are ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: Module path under ``src/repro`` -> layer; the first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("machine/simulator.py", "machine.sim"),
    ("machine/", "machine.model"),
    ("faults.py", "machine.model"),
    ("mpi/detector.py", "mpi.detector"),
    ("mpi/adaptive.py", "mpi.detector"),
    ("mpi/", "mpi"),
    ("apps/fft2d_hand.py", "mpi"),
    ("apps/cornerturn_hand.py", "mpi"),
    ("core/runtime/", "runtime"),
    ("kernels/", "runtime"),
    ("apps/workloads.py", "runtime"),
    ("core/codegen/", "codegen"),
    ("core/model/", "codegen"),
    ("apps/models.py", "codegen"),
    ("core/alter/", "alter"),
    ("analysis/", "analysis"),
    ("service/", "service"),
    ("perf/", "perf"),
    ("chaos/", "chaos"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + ("other",)


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer of a profiled function's source file."""
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "other"
    rel = filename[len(prefix):].replace(os.sep, "/")
    for head, layer in MODULE_LAYERS:
        if rel.startswith(head):
            return layer
    return "other"


def self_time_by_layer(stats: pstats.Stats, repro_dir: str) -> Dict[str, float]:
    """Seconds of self time per layer (every layer present, possibly 0)."""
    out = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if filename != "~":
            out[layer_of(filename, repro_dir)] += tt
            continue
        shared = 0.0
        for (caller_file, _l, _n), row in callers.items():
            out[layer_of(caller_file, repro_dir)] += row[2]
            shared += row[2]
        out["other"] += max(tt - shared, 0.0)
    return out


def function_stat(stats: pstats.Stats, module: str, name: str,
                  repro_dir: str) -> Tuple[int, float]:
    """(calls, cumulative seconds) of ``name`` defined in ``module`` (a path
    under ``src/repro``), summed over its definitions; (0, 0.0) if unseen."""
    path = os.path.join(repro_dir, *module.split("/"))
    calls, cum = 0, 0.0
    for (filename, _line, fname), (_cc, nc, _tt, ct, _callers) in stats.stats.items():
        if fname == name and filename == path:
            calls += nc
            cum += ct
    return calls, cum
