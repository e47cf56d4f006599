"""Myrinet Express wire protocol and the native MX/MXoE baseline stack.

Open-MX speaks the MXoE wire format so that commodity-Ethernet hosts can
interoperate with Myri-10G boards running the native firmware (§II-A).  This
package holds:

* :mod:`~repro.mx.wire` — the packet vocabulary shared by both stacks
  (tiny/small/medium eager, rendezvous, the pull protocol, notify/acks);
* :mod:`~repro.mx.native` — the native-MX baseline: matching and data
  deposit happen "in firmware" on the NIC, so the host never copies —
  the comparison target of Figs. 3, 8, 11 and 12.
"""
