"""Hot-path performance counters.

The wire fast path (encode-once multicast, memoized digests, batched MAC
vectors, the tuple-heap kernel) exists to make the simulated hot path
fast; these counters make the savings *assertable* rather than anecdotal.
Tests reset the global :data:`METRICS` object, run a scenario, and assert
the operation counts — e.g. that a multicast to ``n`` receivers performs
exactly one canonical encode and one payload digest, where the seed
implementation performed ``n`` of each.

Counting is deliberately cheap (plain integer bumps on a module-global)
so leaving it enabled in benchmarks does not distort what it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Metrics:
    """Operation counters for the serialization/crypto/kernel stack."""

    #: Full canonical encodes actually performed (one canonical-codec walk).
    encode_calls: int = 0
    #: Encodes answered from a :class:`~repro.common.encoding.WireBlob`.
    encode_cache_hits: int = 0
    #: SHA-256 payload digests actually computed.
    digest_calls: int = 0
    #: Digests answered from a blob's memoized value.
    digest_cache_hits: int = 0
    #: HMAC tag computations (signing and verifying sides both count).
    mac_computations: int = 0
    #: Authenticator verifications attempted.
    mac_verifications: int = 0
    #: Multicast operations (one authenticated payload, many receivers).
    multicasts: int = 0
    #: Wire envelopes handed to a connection for transmission.
    envelopes_sent: int = 0
    #: Events executed by the simulation kernel.
    events_processed: int = 0
    #: Heap rebuilds that dropped cancelled timer entries.
    heap_compactions: int = 0
    #: Driver-side request retransmissions (responder rotation + rearm).
    retransmissions: int = 0
    #: CLBFT view changes completed (new view entered) across replicas.
    view_changes: int = 0
    #: Fault-injection actions applied by the adversary layer (drops,
    #: deferrals, corruptions, equivocations, mutes).
    faults_injected: int = 0
    #: Cache entries evicted by checkpoint-driven garbage collection.
    cache_evictions: int = 0
    #: Batch envelopes flushed onto the wire (one MAC vector each).
    batches_sent: int = 0
    #: Protocol messages carried inside those batch envelopes.
    batch_messages: int = 0
    #: Driver requests issued through the sharding router tier.
    requests_routed: int = 0
    #: Routed requests whose target lived outside the caller's home
    #: group (they travel the nested-invocation path across groups).
    cross_group_calls: int = 0

    def reset(self) -> None:
        """Zero every counter (tests call this before a measured region)."""
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, convenient for asserting deltas."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Process-global counters. Single-threaded simulator semantics: the
#: threaded runtime only bumps integers, so races merely undercount.
METRICS = Metrics()
