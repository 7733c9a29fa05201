"""Exception hierarchy for the Perpetual-WS reproduction.

All library exceptions derive from :class:`ReproError` so a downstream
application can catch everything the middleware may raise with a single
``except`` clause while still distinguishing the failure classes the paper
cares about (authentication failures, protocol violations by faulty
replicas, and deterministic request aborts).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """Raised for invalid deployment or replication configuration.

    Examples: a replica group whose size is not ``3f + 1``, a service name
    that is not in the deployment topology, or a scenario spec that
    fails validation.
    """


class ProtocolError(ReproError):
    """Raised when a message violates the CLBFT or Perpetual protocol.

    Correct replicas raise (and then discard the offending message) rather
    than acting on protocol-violating input; a :class:`ProtocolError`
    escaping to the caller indicates a local logic bug, not a remote fault.
    """


class AuthenticationError(ReproError):
    """Raised when a MAC authenticator or reply bundle fails verification."""


class TransportError(ReproError):
    """Raised by Connection/ChannelAdapter modules on delivery failure."""


class RequestAborted(ReproError):
    """Raised to the application when an outgoing request was aborted.

    The Perpetual voter group agrees deterministically on aborts (paper
    section 4.2), so every correct calling replica raises this for the same
    request at the same logical point.
    """

    def __init__(self, request_id: str, reason: str = "timeout") -> None:
        super().__init__(f"request {request_id} aborted: {reason}")
        self.request_id = request_id
        self.reason = reason


class SimulationError(ReproError):
    """Raised by the discrete-event kernel on scheduling misuse."""


class ExecutorViolation(ReproError):
    """Raised when an application executor breaks the deterministic model.

    The Perpetual-WS programming model (paper section 4.1) requires a
    single deterministic thread of computation; this error flags effects
    that the middleware cannot serve deterministically (e.g. consuming a
    reply for a request that was never sent).
    """
