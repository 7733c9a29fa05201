"""Connection modules: the pluggable bottom of the ChannelAdapter.

``Connection`` is the transport-independence seam the paper calls out
(section 3, "Transport independence"): the ChannelAdapter never names a
protocol; a Connection moves envelopes between principals.

One implementation ships: :class:`SimConnection` hands each envelope to
its node environment's ``send``. Every substrate's environment offers
that method — the simulator's ``SimNodeEnv`` and the real-clock
substrates' ``NodeEnv`` (:mod:`repro.runtime.host`) alike.
"""

from __future__ import annotations

from typing import Any

from repro.transport.wire import WireEnvelope


class Connection:
    """Moves wire envelopes from this principal to others."""

    def transmit(self, dst: Any, envelope: WireEnvelope) -> None:
        raise NotImplementedError


class SimConnection(Connection):
    """Connection over a node environment's ``send``.

    On the simulator (:class:`repro.sim.kernel.SimNodeEnv`) delivery
    latency and drops come from the kernel's installed network model.
    """

    def __init__(self, env) -> None:
        self._env = env

    def transmit(self, dst: Any, envelope: WireEnvelope) -> None:
        self._env.send(dst, envelope, size_bytes=envelope.size_bytes)
