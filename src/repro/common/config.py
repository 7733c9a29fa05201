"""Replication and deployment configuration.

Mirrors the paper's ``replicas.xml`` static mapping (section 5.2): because
UDDI does not resolve replicated endpoint references, each deployment
carries a static table from service name to the replica group description.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import NodeId, ReplicaId, ServiceId
from repro.common.quorum import fault_bound, validate_group


@dataclass(frozen=True)
class ReplicationConfig:
    """Degree of replication of one service group.

    ``n`` is the replica count; ``f`` the tolerated Byzantine faults.
    Paper configurations use n in {1, 4, 7, 10} giving f in {0, 1, 2, 3}.
    """

    n: int
    f: int

    def __post_init__(self) -> None:
        validate_group(self.n, self.f)

    @classmethod
    def for_group_size(cls, n: int) -> "ReplicationConfig":
        """Config tolerating the maximum faults a group of ``n`` allows."""
        return cls(n=n, f=fault_bound(n))

    @classmethod
    def for_fault_bound(cls, f: int) -> "ReplicationConfig":
        """Minimal group (``3f + 1``) tolerating ``f`` faults."""
        return cls(n=3 * f + 1, f=f)

    @property
    def is_replicated(self) -> bool:
        return self.n > 1


@dataclass(frozen=True)
class ServiceSpec:
    """One service's entry in a deployment's topology: its name and
    replication degree (the paper's ``replicas.xml`` row)."""

    service: ServiceId
    replication: ReplicationConfig

    @property
    def n(self) -> int:
        return self.replication.n

    @property
    def f(self) -> int:
        return self.replication.f

    def replicas(self) -> list[ReplicaId]:
        return [ReplicaId(self.service, i) for i in range(self.n)]

    def voters(self) -> list[NodeId]:
        return [NodeId(r, NodeId.VOTER) for r in self.replicas()]

    def drivers(self) -> list[NodeId]:
        return [NodeId(r, NodeId.DRIVER) for r in self.replicas()]


def make_spec(name: str, n: int) -> ServiceSpec:
    """The entry of service ``name`` replicated ``n`` times, tolerating
    the most faults ``n`` allows."""
    return ServiceSpec(
        service=ServiceId(name),
        replication=ReplicationConfig.for_group_size(n),
    )
