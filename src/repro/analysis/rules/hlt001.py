"""HLT001: channel fault/offload decisions bypassing the health layer.

The circuit breaker (:mod:`repro.health.breaker`, DESIGN.md §12) is only
sound if it *sees* every channel-health event and *gates* every offload
decision.  Two call shapes silently break that contract:

* ``channel.fail(...)`` called directly — the channel aborts its pending
  descriptors, but nothing in supervision recorded why, and fault
  schedules become unreproducible.  Faults belong in a
  :class:`~repro.faults.plan.FaultPlan` armed through the injector layer;
  runtime degradation belongs in :mod:`repro.health`.
* ``should_offload(...)`` called from outside the offload manager — the
  breaker's memcpy-only verdict lives inside that method; re-deriving the
  decision elsewhere (or caching its result) reintroduces submissions to
  channels the breaker already tripped.

Only *channel-like* receivers are matched for ``.fail``: a name spelled
``ch``/``chan``/``channel`` (or ending in ``channel``), or an attribute
chain ending in ``channel`` (``state.channel``, ``self._channel``).  The
simkernel's ``Process.fail``/``Event.fail`` never look like that, so the
event machinery stays clean without pragmas.

Sanctioned homes — the health package, the fault-injection layer, the
offload manager and the channel implementation itself — are skipped by
path; anywhere else, suppress a deliberate exception with
``# noqa: HLT001``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleSource, Rule, channel_like, register_rule

#: module paths allowed to touch these APIs directly (substring match on
#: the /-normalized path)
_SANCTIONED = (
    "repro/health/",
    "repro/faults/",
    "repro/core/offload.py",
    "repro/ioat/channel.py",
    "repro/ioat/engine.py",
)

@register_rule
class HealthBypassRule(Rule):
    code = "HLT001"
    summary = "channel fail()/should_offload() call bypasses the circuit breaker"

    def check(self, module: ModuleSource,
              project=None) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        if any(part in norm for part in _SANCTIONED):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "fail":
                receiver = channel_like(node.func.value)
                if receiver is not None:
                    yield module.finding(
                        self.code, node,
                        f"direct '{receiver}.fail()' bypasses the health "
                        f"layer: inject faults through a FaultPlan "
                        f"(repro.faults) so the circuit breaker records them",
                    )
            elif attr == "should_offload":
                yield module.finding(
                    self.code, node,
                    "'should_offload()' outside the offload manager "
                    "re-derives a breaker-gated decision; route copies "
                    "through OffloadManager.copy_fragment instead",
                )
