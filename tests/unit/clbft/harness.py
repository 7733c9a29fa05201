"""In-memory CLBFT test harness: a group of replicas with a controllable
message bus (no simulator, no crypto) for precise protocol-level tests."""

from __future__ import annotations

from typing import Any, Callable

from repro.clbft.config import GroupConfig
from repro.clbft.messages import ClientRequest
from repro.clbft.replica import ClbftReplica


class Bus:
    """Deterministic message bus with optional drop/capture rules."""

    def __init__(self) -> None:
        self.queue: list[tuple[int, int, Any]] = []  # (src, dst, msg)
        self.drop: Callable[[int, int, Any], bool] = lambda s, d, m: False
        self.log: list[tuple[int, int, Any]] = []

    def post(self, src: int, dst: int, msg: Any) -> None:
        self.log.append((src, dst, msg))
        if not self.drop(src, dst, msg):
            self.queue.append((src, dst, msg))


class Timers:
    """Manual timers: tests fire them explicitly."""

    def __init__(self) -> None:
        self.armed: dict[tuple[int, str], int] = {}

    def binder(self, index: int):
        def set_timer(tag: str, delay_us: int) -> None:
            self.armed[(index, tag)] = delay_us

        def cancel_timer(tag: str) -> None:
            self.armed.pop((index, tag), None)

        return set_timer, cancel_timer

    def is_armed(self, index: int, tag: str) -> bool:
        return (index, tag) in self.armed


class Group:
    """n CLBFT replicas over a Bus, executing an append log."""

    def __init__(self, n: int, **config_overrides) -> None:
        defaults = dict(view_change_timeout_us=1_000)
        defaults.update(config_overrides)
        self.config = GroupConfig(n=n, **defaults)
        self.bus = Bus()
        self.timers = Timers()
        self.executed: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        self.replicas: list[ClbftReplica] = []
        for i in range(n):
            set_timer, cancel_timer = self.timers.binder(i)
            self.replicas.append(
                ClbftReplica(
                    config=self.config,
                    index=i,
                    execute=self._executor(i),
                    multicast=self._multicaster(i),
                    send_to=self._sender(i),
                    set_timer=set_timer,
                    cancel_timer=cancel_timer,
                )
            )

    def _executor(self, i: int):
        def execute(seqno: int, request: ClientRequest):
            self.executed[i].append((seqno, request.op))

        return execute

    def _multicaster(self, i: int):
        def multicast(msg: Any) -> None:
            for j in range(self.config.n):
                if j != i:
                    self.bus.post(i, j, msg)

        return multicast

    def _sender(self, i: int):
        def send_to(j: int, msg: Any) -> None:
            if j == i:
                self.replicas[i].on_message(i, msg)
            else:
                self.bus.post(i, j, msg)

        return send_to

    # -- driving ---------------------------------------------------------

    def deliver_all(self, max_rounds: int = 10_000) -> None:
        rounds = 0
        while self.bus.queue and rounds < max_rounds:
            src, dst, msg = self.bus.queue.pop(0)
            self.replicas[dst].on_message(src, msg)
            rounds += 1

    def submit(self, op: Any, client: str = "client", timestamp: int = 1,
               to: list[int] | None = None) -> ClientRequest:
        request = ClientRequest(client=client, timestamp=timestamp, op=op)
        targets = to if to is not None else list(range(self.config.n))
        for i in targets:
            self.replicas[i].submit(request)
        return request

    def fire_timer(self, index: int, tag: str = "clbft-view-change") -> None:
        if self.timers.is_armed(index, tag):
            self.timers.armed.pop((index, tag))
            self.replicas[index].on_timer(tag)

    def executed_ops(self, index: int) -> list[Any]:
        return [op for _, op in self.executed[index]]
