"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.crypto.keys import KeyStore
from repro.sim.kernel import Simulator
from repro.sim.network import LanModel


@pytest.fixture
def keys() -> KeyStore:
    return KeyStore.for_deployment("test")


@pytest.fixture
def sim() -> Simulator:
    simulator = Simulator()
    simulator.set_network(LanModel())
    return simulator
