"""Fault scripts, plans, and per-node injectors.

The flow is: ``ScenarioSpec.faults`` → :meth:`FaultPlan.from_spec` →
one :class:`ReplicaFaultScript` per faulted ``(service, index)`` →
two :class:`FaultInjector` instances per faulted replica (one for the
voter principal, one for the driver).  The injector is the only runtime
object; scripts and plans are pure data derived from the spec, so the
process substrate rebuilds the identical plan inside each worker from
the spec JSON it received in its spawn payload.

A node with no script pays nothing: the hosting node classes guard every
hook with ``if self._fault is not None`` and never wrap their
environment, so the fault machinery is zero-cost when no faults are
configured (the fig7/8/9 benchmark gate depends on this).

Fault kinds implemented here (``crash`` and ``link`` keep their existing
substrate-native mechanisms — partition kill / never-spawn and the sim
network's ``FaultyLink``):

``byzantine``
    ``mode="equivocate"``: while primary, send the true pre-prepare to
    *f* backups and a conflicting variant (same slot, different batch
    digest) to the remaining 2f — neither digest can gather a prepared
    certificate at 2f+1 replicas, so ordering stalls until the CLBFT
    view-change timer fires and a correct primary re-issues the prepared
    batch.  ``mode="mute"``: swallow the primary's pre-prepares (and any
    new-view it would lead), the paper's slow-drip primary.
    ``mode="corrupt"``: garble the executor's replies so the replica
    contributes non-matching result copies.
``delay``
    Defer every outbound message by ``delay_us`` (+ deterministic
    jitter), preserving send order per node.
``partition``
    Drop traffic crossing the declared group split until
    ``heal_after_us``.  Only the minority side is scripted: every
    crossing message has a scripted endpoint, so gating that side's
    sends *and* receives severs the cut completely.
``restart``
    A crash window: between ``down_after_us`` and ``up_after_us`` the
    replica drops all I/O and timer firings, then rejoins: its peers'
    normal-case traffic and the primary's re-sent NEW-VIEW bring it into
    a view the group installed meanwhile, and the next stable checkpoint
    carries its log over the batches it missed (their application
    effects are not transferred).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.clbft.messages import NewView, PrePrepare, batch_digest
from repro.common.errors import ConfigurationError
from repro.common.metrics import METRICS
from repro.perpetual.messages import LocalResult
from repro.sim.rng import DeterministicRng

#: Byzantine behaviours understood by ``FaultSpec(kind="byzantine")``.
BYZANTINE_MODES = ("equivocate", "corrupt", "mute")

#: First element of the timer tags the injector arms for deferred sends.
#: Hosting nodes route any tag consumed by :meth:`FaultInjector.on_timer`
#: away from their own timer dispatch.
FAULT_DEFER_TAG = "fault-defer"


@dataclass(frozen=True)
class ReplicaFaultScript:
    """Everything one replica's injectors need, derived from the spec.

    Multiple fault declarations targeting the same replica merge into one
    script (e.g. a delayed *and* equivocating primary).
    """

    service: str
    index: int
    #: One of :data:`BYZANTINE_MODES`, or ``None``.
    byzantine_mode: str | None = None
    #: Defer every outbound message by this much (0 = no delay fault).
    delay_us: int = 0
    #: Uniform extra jitter on top of ``delay_us`` (deterministic rng).
    delay_jitter_us: int = 0
    #: Peers (node names) unreachable during the partition window.
    blocked_peers: frozenset = frozenset()
    block_start_us: int = 0
    block_heal_us: int = 0
    #: Restart window; ``None`` means no restart fault.
    down_from_us: int | None = None
    down_until_us: int | None = None


class FaultPlan:
    """Per-replica fault scripts for one scenario."""

    def __init__(self, scripts: dict) -> None:
        self._scripts = scripts

    @property
    def empty(self) -> bool:
        return not self._scripts

    def script_for(self, service: str, index: int) -> ReplicaFaultScript | None:
        return self._scripts.get((service, index))

    @classmethod
    def from_spec(cls, spec: Any) -> "FaultPlan":
        """Build the plan from a validated :class:`ScenarioSpec`.

        ``crash`` and ``link`` faults are handled by substrate-native
        machinery and contribute nothing here.
        """
        merged: dict = {}

        def patch(service: str, index: int, **changes: Any) -> None:
            cur = merged.get((service, index))
            if cur is None:
                cur = ReplicaFaultScript(service=service, index=index)
            merged[(service, index)] = replace(cur, **changes)

        for fault in spec.all_faults():
            if fault.kind == "byzantine":
                patch(fault.service, fault.index,
                      byzantine_mode=fault.params.get("mode", "equivocate"))
            elif fault.kind == "delay":
                patch(fault.service, fault.index,
                      delay_us=int(fault.params["delay_us"]),
                      delay_jitter_us=int(fault.params.get("jitter_us", 0)))
            elif fault.kind == "partition":
                cls._add_partition(patch, spec, fault)
            elif fault.kind == "restart":
                patch(fault.service, fault.index,
                      down_from_us=int(fault.params.get("down_after_us", 0)),
                      down_until_us=int(fault.params["up_after_us"]))
        return cls(merged)

    @staticmethod
    def _add_partition(patch: Any, spec: Any, fault: Any) -> None:
        # Import here: voter.py never imports this package, so the naming
        # helpers living there are safe to use without a cycle.
        from repro.perpetual.voter import driver_name, voter_name

        decl = spec.service(fault.service)
        side = {int(i) for i in fault.params["side"]}
        others = [i for i in range(decl.n) if i not in side]
        blocked = frozenset(
            name
            for i in others
            for name in (voter_name(fault.service, i),
                         driver_name(fault.service, i))
        )
        start = int(fault.params.get("start_after_us", 0))
        heal = int(fault.params["heal_after_us"])
        for i in side:
            patch(fault.service, i, blocked_peers=blocked,
                  block_start_us=start, block_heal_us=heal)


class _FaultyEnv:
    """Environment wrapper interposing the injector on the send path.

    Everything except ``send``/``local_deliver`` passes straight through
    to the substrate's real environment, so the wrapped object still
    satisfies the shared node-environment surface (``set_timer``,
    ``now_us``, ``charge``, ``node_id``, ...).
    """

    __slots__ = ("_fault", "_env")

    def __init__(self, fault: "FaultInjector", env: Any) -> None:
        self._fault = fault
        self._env = env

    def send(self, dst: Any, msg: Any, size_bytes: int = 256) -> None:
        if not self._fault.intercept_send(dst, msg, size_bytes):
            self._env.send(dst, msg, size_bytes=size_bytes)

    def local_deliver(self, dst: Any, msg: Any) -> None:
        msg = self._fault.intercept_local(msg)
        if msg is not None:
            self._env.local_deliver(dst, msg)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._env, name)


class FaultInjector:
    """Runtime fault state for one protocol principal (voter or driver).

    Hosting nodes call four hooks:

    - :meth:`wrap_env` at attach time (send-side interposition);
    - :meth:`deliver_ok` at the top of ``on_message`` (receive gate);
    - :meth:`on_timer` at the top of ``on_timer`` (deferred-send release
      and down-window timer suppression);
    - :meth:`clbft_multicast_plan` from the voter's agreement multicast
      (equivocation / mute).
    """

    def __init__(self, script: ReplicaFaultScript, role: str) -> None:
        self.script = script
        self.role = role
        self._env: Any = None
        self._rng = DeterministicRng(
            0, f"fault/{script.service}/{script.index}/{role}")
        self._deferred: dict = {}
        self._defer_seq = 0

    # -- wiring -----------------------------------------------------------

    def wrap_env(self, env: Any) -> _FaultyEnv:
        self._env = env
        return _FaultyEnv(self, env)

    # -- window predicates ------------------------------------------------

    def _down(self, now_us: int) -> bool:
        s = self.script
        return (s.down_from_us is not None
                and s.down_from_us <= now_us < s.down_until_us)

    def _blocked(self, peer: Any, now_us: int) -> bool:
        s = self.script
        return (bool(s.blocked_peers)
                and s.block_start_us <= now_us < s.block_heal_us
                and str(peer) in s.blocked_peers)

    # -- send path --------------------------------------------------------

    def intercept_send(self, dst: Any, msg: Any, size_bytes: int) -> bool:
        """True if the injector consumed the send (dropped or deferred)."""
        now = self._env.now_us()
        if self._down(now) or self._blocked(dst, now):
            METRICS.faults_injected += 1
            return True
        if self.script.delay_us > 0:
            self._defer_seq += 1
            delay = self.script.delay_us
            if self.script.delay_jitter_us > 0:
                delay += self._rng.randint(0, self.script.delay_jitter_us)
            self._deferred[self._defer_seq] = (dst, msg, size_bytes)
            self._env.set_timer((FAULT_DEFER_TAG, self._defer_seq), delay)
            METRICS.faults_injected += 1
            return True
        return False

    def intercept_local(self, msg: Any) -> Any | None:
        """Pass, drop, or mutate a co-located local delivery."""
        if self._down(self._env.now_us()):
            METRICS.faults_injected += 1
            return None
        if (self.role == "driver"
                and self.script.byzantine_mode == "corrupt"
                and isinstance(msg, LocalResult)):
            METRICS.faults_injected += 1
            return LocalResult(request_id=msg.request_id,
                               result=["#garbled", str(msg.request_id)])
        return msg

    # -- receive path -----------------------------------------------------

    def deliver_ok(self, src: Any) -> bool:
        now = self._env.now_us()
        if self._down(now) or self._blocked(src, now):
            METRICS.faults_injected += 1
            return False
        return True

    # -- timers -----------------------------------------------------------

    def on_timer(self, tag: Any) -> bool:
        """True if the tag belonged to the fault layer (or the node is
        down and must not compute)."""
        if (isinstance(tag, tuple) and len(tag) == 2
                and tag[0] == FAULT_DEFER_TAG):
            item = self._deferred.pop(tag[1], None)
            if item is not None:
                dst, msg, size_bytes = item
                now = self._env.now_us()
                if not (self._down(now) or self._blocked(dst, now)):
                    self._env.send(dst, msg, size_bytes=size_bytes)
            return True
        if self._down(self._env.now_us()):
            METRICS.faults_injected += 1
            return True
        return False

    # -- agreement multicast ----------------------------------------------

    def clbft_multicast_plan(
        self, msg: Any, receivers: list, replica: Any
    ) -> list | None:
        """Byzantine rewrite of an agreement multicast.

        Returns ``None`` for the honest default, or a list of
        ``(recipients, message)`` sends (possibly empty = swallow).
        """
        mode = self.script.byzantine_mode
        if mode not in ("equivocate", "mute"):
            return None
        if isinstance(msg, PrePrepare) and msg.requests and replica.is_primary:
            if mode == "mute":
                METRICS.faults_injected += 1
                return []
            f = replica.config.f
            if f >= 1 and len(receivers) > f:
                ordered = sorted(receivers, key=str)
                variant_requests = msg.requests + (msg.requests[0],)
                variant = PrePrepare(
                    view=msg.view,
                    seqno=msg.seqno,
                    digest=batch_digest(variant_requests),
                    requests=variant_requests,
                )
                METRICS.faults_injected += 1
                # f backups see the true batch, 2f see the conflicting
                # variant: neither digest can reach a 2f-prepare
                # certificate, so every correct backup stalls into a view
                # change, which re-issues the variant's prepared batch.
                return [(ordered[:f], msg), (ordered[f:], variant)]
        if mode == "mute" and isinstance(msg, NewView):
            # A mute replica never helps lead a view either.
            METRICS.faults_injected += 1
            return []
        return None


def require_supported_kinds(spec: Any, unsupported: tuple, runtime: str) -> None:
    """Raise ConfigurationError if the spec declares fault kinds the
    named runtime cannot enforce (e.g. sim-only ``link`` faults)."""
    for fault in spec.all_faults():
        if fault.kind in unsupported:
            raise ConfigurationError(
                f"{runtime} runtime does not support {fault.kind!r} faults "
                f"(simulator-only); remove them from scenario "
                f"{spec.name!r} or run with --runtime sim"
            )
