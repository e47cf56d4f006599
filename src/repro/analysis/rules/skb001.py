"""SKB001: skbuff allocated from a pool but never freed or handed off.

Every skbuff from :meth:`SkbuffPool.alloc_rx`/:meth:`alloc_tx` must reach
exactly one of: ``skb.free()``, a call that takes ownership (a hand-off
via an argument, such as ``pending.append(skb)``), a return/yield, or a
store into longer-lived state.  The deferred-release discipline of §III-B
makes these hand-offs easy to drop on error paths — the exact bug this rule
exists for.

Deliberately conservative: configuring the buffer (``skb.data_len = n``,
``skb.add_frag(...)``) does *not* count as a release, because filling a
buffer and then dropping it is precisely the leak.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    name_escapes,
    own_nodes,
    register_rule,
)

_ALLOC_METHODS = ("alloc_rx", "alloc_tx")


@register_rule
class SkbuffLeakRule(Rule):
    code = "SKB001"
    summary = "skbuff allocated from a pool is never freed or handed off"

    def check(self, module: ModuleSource,
              project=None) -> Iterator[Finding]:
        for fn in module.functions():
            for node in own_nodes(fn):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                call = node.value
                if isinstance(call, (ast.Await, ast.YieldFrom)):
                    call = call.value
                if not (
                    isinstance(target, ast.Name)
                    and isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _ALLOC_METHODS
                ):
                    continue
                name = target.id
                if not name_escapes(fn, name, binding=node, release_attrs=("free",)):
                    yield module.finding(
                        self.code, node,
                        f"skbuff '{name}' from {call.func.attr}() is never freed, "
                        f"returned, or handed off in '{fn.name}'",
                    )
