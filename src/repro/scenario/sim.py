"""The simulator substrate: ``SimRuntime``.

:class:`SimRuntime` executes a declarative
:class:`~repro.scenario.spec.ScenarioSpec` on the discrete-event kernel
through the shared deploy loop of :mod:`repro.scenario.local`.
Experiments, examples and integration tests all deploy onto the
simulator this way; an application only a test needs registers its own
app kind through :func:`repro.scenario.apps.register_app`.

The simulator is the only substrate with a modelled network, so it is
also the only one honouring latency parameters and ``link`` faults;
``crash`` faults cut the replica's voter and driver off the network (a
crashed machine never speaks again).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.scenario.local import LocalRuntime
from repro.scenario.spec import ScenarioSpec
from repro.sim.kernel import Simulator, US_PER_S
from repro.sim.network import (
    FaultyLink,
    LanModel,
    NetworkModel,
    PartitionModel,
    UniformLatency,
)


def build_network(spec: ScenarioSpec) -> tuple[NetworkModel, PartitionModel | None]:
    """The network model a spec describes, with fault wrappers applied.

    Returns the outermost model plus the partition layer (present only
    when the spec injects crash faults).
    """
    params = dict(spec.network.params)
    if spec.network.kind == "lan":
        model: NetworkModel = LanModel(**params)
    elif spec.network.kind == "uniform":
        model = UniformLatency(**params)
    else:
        raise ConfigurationError(f"unknown network kind {spec.network.kind!r}")

    link_faults = [f for f in spec.all_faults() if f.kind == "link"]
    if link_faults:
        faulty = FaultyLink(model)
        for fault in link_faults:
            rule = dict(fault.params)
            src = rule.pop("src", "*")
            dst = rule.pop("dst", "*")
            faulty.add_rule(src, dst, **rule)
        model = faulty

    partition: PartitionModel | None = None
    if any(f.kind == "crash" for f in spec.all_faults()):
        partition = PartitionModel(model)
        model = partition
    return model, partition


class SimRuntime(LocalRuntime):
    """Executes scenarios on the deterministic discrete-event kernel.

    Every service of the spec — all groups of a sharded one — is
    deployed onto one :class:`~repro.sim.kernel.Simulator` carrying the
    spec's network; a crash fault cuts the replica off that network.
    """

    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        self.sim: Simulator | None = None
        self._partition: PartitionModel | None = None

    def _node_table(self, spec: ScenarioSpec) -> Simulator:
        network, self._partition = build_network(spec)
        self.sim = Simulator()
        self.sim.set_network(network)
        return self.sim

    def _crash(self, node: str) -> None:
        self._partition.kill(node)

    def _run_for(self, seconds: float) -> None:
        self.sim.run(
            until_us=self.sim.now_us + int(seconds * US_PER_S),
            max_events=self._spec.max_events,
        )

    def _clock(self) -> tuple[int, int]:
        return self.sim.now_us, self.sim.events_processed

    def shutdown(self) -> None:
        """Nothing to release: the simulator is plain in-process state."""
