"""Shared kernel: identifiers, errors, quorum arithmetic, configuration.

Everything in this package is dependency-free and usable by every other
subsystem (crypto, transport, CLBFT, Perpetual, the SOAP engine, and the
simulation substrate).

Contract: :mod:`repro.common.encoding` owns the canonical codec and the
encode-once blob (``docs/architecture.md``); everything else here
is pure, deterministic, and substrate-free.
"""

from repro.common.config import ReplicationConfig, ServiceSpec
from repro.common.encoding import canonical_encode, decode_payload, encode_payload
from repro.common.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    RequestAborted,
    TransportError,
)
from repro.common.ids import NodeId, ReplicaId, RequestId, ServiceId
from repro.common.quorum import (
    agreement_quorum,
    fault_bound,
    group_size,
    matching_request_quorum,
    reply_bundle_quorum,
    weak_certificate,
)

__all__ = [
    "AuthenticationError",
    "ConfigurationError",
    "NodeId",
    "ProtocolError",
    "ReplicaId",
    "ReplicationConfig",
    "ReproError",
    "RequestAborted",
    "RequestId",
    "ServiceId",
    "ServiceSpec",
    "TransportError",
    "agreement_quorum",
    "canonical_encode",
    "decode_payload",
    "encode_payload",
    "fault_bound",
    "group_size",
    "matching_request_quorum",
    "reply_bundle_quorum",
    "weak_certificate",
]
