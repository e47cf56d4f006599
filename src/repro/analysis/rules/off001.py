"""OFF001: direct DMA-channel manipulation outside the backend layer.

PR 8 made the copy engine pluggable: every copy submission flows through a
:class:`~repro.core.backends.CopyBackend`, which is what lets the breaker
supervise lanes, the sanitizer watch cookies, and the fault injectors
reach every channel.  Code that constructs a
:class:`~repro.ioat.channel.DmaChannel`, calls ``channel.submit(...)`` or
reaches into ``channel.ring`` from outside that layer silently bypasses
all three — its descriptors have no breaker history, no observer, and no
fault coverage.

Three call shapes are flagged:

* ``DmaChannel(...)`` construction — resolved through import aliases
  (the dataflow engine's name resolution), so ``channel.DmaChannel(...)``
  after ``from repro.ioat import channel`` is caught too;
* ``<channel>.submit(...)`` on a channel-like receiver;
* ``<channel>.ring`` attribute access on a channel-like receiver.

*Channel-like* is the spelling heuristic HLT001 shares
(:func:`repro.analysis.lint.channel_like`): a name spelled
``ch``/``chan``/``channel`` (or ending in ``channel``), or an attribute
chain ending in one of those.  Endpoint eager rings (``ep.ring``) and
process pools (``pool.submit``) never look like that.

Sanctioned homes — the backend implementations, the I/OAT package itself,
the health and fault layers, and the analysis tooling — are skipped by
path.  Raw-engine measurement loops elsewhere suppress deliberate use
with ``# noqa: OFF001``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleSource, Rule, channel_like, register_rule

#: module paths allowed to touch channels directly (substring match on the
#: /-normalized path).  Note repro/core/offload.py is deliberately absent:
#: the offload manager must go through its backend.
_SANCTIONED = (
    "repro/core/backends/",
    "repro/ioat/",
    "repro/health/",
    "repro/faults/",
    "repro/analysis/",
)

@register_rule
class OffloadBypassRule(Rule):
    code = "OFF001"
    summary = "direct DMA-channel manipulation bypasses the copy-backend layer"

    def check(self, module: ModuleSource,
              project=None) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        if any(part in norm for part in _SANCTIONED):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = module.dotted_name(node.func)
                if dotted is not None and dotted.split(".")[-1] == "DmaChannel":
                    yield module.finding(
                        self.code, node,
                        "'DmaChannel(...)' constructed outside the backend "
                        "layer: lanes belong in a CopyBackend "
                        "(repro.core.backends) so health, sanitizers and "
                        "fault injection can reach them",
                    )
                    continue
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "submit"):
                    receiver = channel_like(node.func.value)
                    if receiver is not None:
                        yield module.finding(
                            self.code, node,
                            f"direct '{receiver}.submit(...)' bypasses the "
                            f"copy-backend layer; submit copies through "
                            f"CopyBackend.submit_fragment",
                        )
            elif isinstance(node, ast.Attribute) and node.attr == "ring":
                receiver = channel_like(node.value)
                if receiver is not None:
                    yield module.finding(
                        self.code, node,
                        f"direct '{receiver}.ring' access reaches into the "
                        f"descriptor ring; ring management belongs to the "
                        f"backend layer (repro.core.backends)",
                    )
