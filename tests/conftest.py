"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.crypto.keys import KeyStore
from repro.scenario.sim import Deployment
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


@pytest.fixture
def deployment() -> Deployment:
    return Deployment(name="test-deployment")


def run_until(deployment: Deployment, predicate, seconds: float = 60.0,
              step_events: int = 2000) -> bool:
    """Drive a deployment until ``predicate()`` or the time budget ends."""
    deadline_us = deployment.sim.now_us + int(seconds * 1_000_000)
    while deployment.sim.now_us <= deadline_us:
        if predicate():
            return True
        processed = deployment.sim.run(
            until_us=deadline_us, max_events=step_events
        )
        if processed == 0:
            break
    return predicate()
