"""Layer map of the ``repro`` package and cProfile self-time attribution.

A *layer* is a named group of modules under ``src/repro/``. Every module
maps to exactly one layer: a file rule wins over its package rule, and the
tests require that no module falls through to :data:`FALLBACK`. Time spent
in code outside ``src/repro/`` (C builtins such as ``heapq.heappush`` or
``generator.send``, stdlib and numpy functions) is charged to the layers
that called it, in proportion to the self time recorded on each caller edge
of the profile, so the layer totals add up to the whole profiled time.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

#: single modules with a layer of their own, relative to ``src/repro/``
FILE_LAYERS: Dict[str, str] = {
    "simkit/core.py": "simkit.core",
    "simkit/network.py": "simkit.network",
    "simkit/rpc.py": "simkit.rpc",
    "simkit/disk.py": "simkit.disk",
    "blobseer/client.py": "blobseer.client",
    "blobseer/metadata.py": "blobseer.metadata",
    "core/translator.py": "core.translator",
    "common/payload.py": "common.payload",
    "common/intervals.py": "common.intervals",
    "__init__.py": "repro",
    "__main__.py": "repro",
    "cli.py": "repro",
    "calibration.py": "repro",
}

#: every other module goes to the layer of its top-level package
PACKAGE_LAYERS: Dict[str, str] = {
    "simkit": "simkit",
    "blobseer": "blobseer",
    "core": "core",
    "common": "common",
    "vmsim": "vmsim",
    "p2p": "p2p",
    "topo": "topo",
    "churn": "churn",
    "lineage": "lineage",
    "cloud": "cloud",
    "obs": "obs",
    "runner": "runner",
    "baselines": "baselines",
    "faults": "faults",
    "analysis": "repro",
}

#: layer of a module that no rule names (the tests forbid this case)
FALLBACK = "repro"
#: the benchmark's own code, and time no ``repro`` frame called
HARNESS = "harness"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([*FILE_LAYERS.values(), *PACKAGE_LAYERS.values(), HARNESS])
)

#: which end-to-end metric a gain in each layer should move on which
#: workloads, and the workloads where it should show no change
SHOULD_MOVE: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "simkit.core": {"wall_s": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "simkit.network": {"wall_s": ("multideploy", "rack-p2p"), "no_change": ("multisnapshot",)},
    "simkit.rpc": {"wall_s": ("multideploy", "rack-p2p")},
    "simkit.disk": {"wall_s": ("multisnapshot",)},
    "simkit": {"wall_s": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "blobseer.client": {"wall_s": ("multideploy", "multisnapshot")},
    "blobseer.metadata": {"wall_s": ("churn",)},
    "blobseer": {"wall_s": ("churn",)},
    "core.translator": {"wall_s": ("multideploy",)},
    "core": {"wall_s": ("multisnapshot",)},
    "common.payload": {"wall_s": ("multisnapshot",), "no_change": ("rack-p2p",)},
    "common.intervals": {"wall_s": ("multisnapshot",), "no_change": ("rack-p2p",)},
    "common": {"wall_s": ("multisnapshot",)},
    "vmsim": {"wall_s": ("multideploy", "rack-p2p", "churn")},
    "p2p": {"wall_s": ("rack-p2p",), "no_change": ("multideploy", "multisnapshot")},
    "topo": {"wall_s": ("rack-p2p",), "no_change": ("multideploy", "multisnapshot", "churn")},
    "churn": {"wall_s": ("churn",), "no_change": ("multideploy", "multisnapshot", "rack-p2p")},
    "lineage": {"wall_s": ("churn",), "no_change": ("multideploy", "multisnapshot", "rack-p2p")},
    "cloud": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "obs": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "runner": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "baselines": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "faults": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "repro": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
    "harness": {"no_change": ("multideploy", "multisnapshot", "rack-p2p", "churn")},
}


def module_layer(rel: str) -> Optional[str]:
    """Layer of the module at ``rel`` (POSIX path under ``src/repro/``), or
    None when no rule names it."""
    layer = FILE_LAYERS.get(rel)
    if layer is None and "/" in rel:
        layer = PACKAGE_LAYERS.get(rel.split("/", 1)[0])
    return layer


class Classifier:
    """Maps a profiled code location to a layer, or None for foreign code."""

    def __init__(self, repro_root: Path, harness_root: Path):
        self.repro_root = str(repro_root.resolve()) + "/"
        self.harness_root = str(harness_root.resolve()) + "/"
        self._cache: Dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        hit = self._cache.get(filename, ...)
        if hit is not ...:
            return hit
        layer = None
        if filename.startswith(self.repro_root):
            rel = filename[len(self.repro_root):]
            layer = module_layer(rel) or FALLBACK
        elif filename.startswith(self.harness_root):
            layer = HARNESS
        self._cache[filename] = layer
        return layer


Func = Tuple[str, int, str]


def attribute(stats: Dict[Func, tuple], classify) -> Dict[str, float]:
    """Split the profile's self time into layers (pstats ``Stats.stats``).

    A ``repro`` or harness function keeps its own self time. A foreign
    function's self time is split over its callers by the self time it
    spent under each caller (by call count when those are all zero), and a
    foreign caller passes its share up the same way. A function with no
    attributable caller is charged to :data:`HARNESS`.
    """
    memo: Dict[Func, Dict[str, float]] = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        totals = dict.fromkeys(LAYERS, 0.0)
        for func, row in stats.items():
            tt = row[2]
            if tt <= 0:
                continue
            for layer, w in _owners(func, stats, classify, memo, set()).items():
                totals[layer] = totals.get(layer, 0.0) + tt * w
        return totals
    finally:
        sys.setrecursionlimit(limit)


def _owners(func, stats, classify, memo, active) -> Dict[str, float]:
    got = memo.get(func)
    if got is not None:
        return got
    layer = classify(func[0])
    if layer is not None:
        memo[func] = {layer: 1.0}
        return memo[func]
    callers = stats[func][4] if func in stats else {}
    edges = [(c, e) for c, e in callers.items() if c not in active and c in stats]
    weights = [e[2] for _, e in edges]
    if not any(w > 0 for w in weights):
        weights = [e[0] for _, e in edges]
    total = float(sum(weights))
    out: Dict[str, float] = {}
    if total > 0:
        active.add(func)
        for (caller, _), w in zip(edges, weights):
            if w <= 0:
                continue
            for owner, share in _owners(caller, stats, classify, memo, active).items():
                out[owner] = out.get(owner, 0.0) + share * w / total
        active.discard(func)
    if not out:
        out = {HARNESS: 1.0}
    memo[func] = out
    return out


def ncalls(stats: Dict[Func, tuple], code) -> int:
    """Exact call count of a plain (non-generator) function in the profile."""
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    row = stats.get(key)
    return int(row[1]) if row is not None else 0
