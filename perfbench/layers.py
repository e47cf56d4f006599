"""Layer map of ``src/repro`` and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one layer: the most
specific entry that matches it.  A package entry (``repro.core.*``) covers
the package and its submodules; a module entry (``repro.units``) only
itself.  There is deliberately no catch-all: a module no entry
matches makes :func:`layer_of_module` raise, so new code cannot hide in an
"other" bucket (``test_layers.py`` checks the whole tree).

Self time of code outside ``src/repro`` (C built-ins, the standard
library, numpy, the benchmark's own frames) is charged to the layer that
called it, through the per-caller times pstats records; what no ``repro``
frame called is the benchmark's own harness time.
"""

from __future__ import annotations

from pathlib import Path

#: layer -> the modules it owns; ``pkg.*`` names a package and everything
#: in it, a plain name one module
LAYERS: dict[str, tuple[str, ...]] = {
    "simkernel": ("repro.simkernel.*",),
    "ethernet": ("repro.ethernet.*",),
    "core": ("repro.core.*", "repro.mx.*"),
    "offload": ("repro.core.offload", "repro.core.backends.*"),
    "ioat": ("repro.ioat.*",),
    "memory": ("repro.memory.*",),
    "mpi": ("repro.mpi.*", "repro.imb.*"),
    "fabric.network": ("repro.fabric.network", "repro.fabric.routing",
                       "repro.fabric.cost"),
    "fabric.mpi": ("repro.fabric.mpi",),
    "resilience": ("repro.fabric.resilience", "repro.faults.*",
                   "repro.health.*"),
    "obs": ("repro.obs.*",),
    # harness, configuration and offline tooling
    "support": ("repro", "repro.units", "repro.params", "repro.cluster.*",
                "repro.workloads.*", "repro.reporting.*", "repro.analysis.*",
                "repro.fabric", "repro.fabric.__main__", "repro.fabric.sweep"),
    # topology construction: the fabric part of set-up
    "setup": ("repro.fabric.spec", "repro.fabric.build"),
}

#: the layer of the benchmark's own frames (and of nothing in src/repro)
HARNESS = "harness"


class UnmappedModule(LookupError):
    """A module under src/repro that no layer owns."""


def _matches(entry: str, module: str) -> bool:
    if entry.endswith(".*"):
        pkg = entry[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == entry


def layer_matches(module: str) -> list[tuple[str, str]]:
    """Every ``(layer, entry)`` matching ``module``."""
    return [(layer, entry) for layer, entries in LAYERS.items()
            for entry in entries if _matches(entry, module)]


def layer_of_module(module: str) -> str:
    """The layer owning ``module``: the most specific (longest) matching
    entry wins."""
    found = layer_matches(module)
    if not found:
        raise UnmappedModule(f"{module} belongs to no layer of perfbench/layers.py")
    return max(found, key=lambda m: len(m[1]))[0]


def module_name(path: Path, src: Path) -> str:
    """Dotted module name of ``path``, a file under the ``src`` root."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def tree_modules(src: Path) -> list[str]:
    """Every module of the ``repro`` package under ``src``."""
    return sorted(module_name(p, src) for p in (src / "repro").rglob("*.py"))


def self_seconds(stats: dict, src: Path) -> dict[str, float]:
    """Self seconds per layer from a pstats ``stats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping each caller to its ``(cc, nc, tt, ct)`` share.
    """
    pkg = str((src / "repro").resolve()) + "/"
    src_root = src.resolve()
    own: dict[tuple, str] = {}

    def layer(func: tuple):
        if func not in own:
            path = func[0]
            own[func] = (layer_of_module(module_name(Path(path), src_root))
                         if path.startswith(pkg) else None)
        return own[func]

    mixes: dict[tuple, dict[str, float]] = {}

    def mix(func: tuple) -> dict[str, float]:
        """Share of each layer in the calls to foreign ``func``."""
        here = layer(func)
        if here is not None:
            return {here: 1.0}
        if func in mixes:
            return mixes[func]
        mixes[func] = {HARNESS: 1.0}  # recursion guard
        callers = stats[func][4] if func in stats else {}
        total = sum(c[2] for c in callers.values())
        out: dict[str, float] = {}
        for caller, c in callers.items():
            weight = c[2] / total if total > 0 else 1.0 / len(callers)
            for name, share in mix(caller).items():
                out[name] = out.get(name, 0.0) + weight * share
        mixes[func] = out or {HARNESS: 1.0}
        return mixes[func]

    out: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        here = layer(func)
        if here is not None:
            out[here] = out.get(here, 0.0) + tt
            continue
        charged = 0.0
        for caller, c in callers.items():
            for name, share in mix(caller).items():
                out[name] = out.get(name, 0.0) + c[2] * share
            charged += c[2]
        if tt > charged:  # top-level frames: nobody called them
            out[HARNESS] = out.get(HARNESS, 0.0) + tt - charged
    return out
