"""Unit tests for replication configuration and service specs."""

import pytest

from repro.common.config import ReplicationConfig, make_spec
from repro.common.errors import ConfigurationError
from repro.common.ids import NodeId, ServiceId


class TestReplicationConfig:
    def test_for_group_size(self):
        config = ReplicationConfig.for_group_size(7)
        assert config.n == 7
        assert config.f == 2

    def test_for_fault_bound(self):
        config = ReplicationConfig.for_fault_bound(3)
        assert config.n == 10
        assert config.f == 3

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(n=3, f=1)

    def test_overprovisioned_accepted(self):
        assert ReplicationConfig(n=10, f=1).f == 1

    def test_is_replicated(self):
        assert not ReplicationConfig.for_group_size(1).is_replicated
        assert ReplicationConfig.for_group_size(4).is_replicated


class TestServiceSpec:
    def test_replicas_and_nodes(self):
        spec = make_spec("pge", 4)
        assert spec.n == 4
        assert spec.f == 1
        assert len(spec.replicas()) == 4
        assert [v.role for v in spec.voters()] == [NodeId.VOTER] * 4
        assert [d.role for d in spec.drivers()] == [NodeId.DRIVER] * 4

    def test_service_identity(self):
        spec = make_spec("bank", 1)
        assert spec.service == ServiceId("bank")
