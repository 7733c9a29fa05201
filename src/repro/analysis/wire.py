"""Wire-contract rules: encode once, digest once, sign through the channel.

The canonical codec + :class:`~repro.common.encoding.WireBlob` are the
single serialisation boundary: a multicast encodes its payload exactly
once and digests it exactly once, which the METRICS counters can only
*observe* at runtime. These rules make the contract structural — protocol
code that encodes, digests, or builds envelopes by hand is flagged at
review time, not after a perf regression.

Suppressions (``# analysis: allow(WIRE00x) — reason``) mark the
deliberate exceptions: match-key derivations cached on the message
object they key, MAC-input bytes both ends must derive independently,
and the per-payload decode and digest of stage-2 request items.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ImportMap, Rule, SourceFile, Violation, register

#: Modules that *are* the wire layer: the codec itself, the envelope
#: framing, the signing channel, and the pipe transport of the process
#: substrate (its router/worker frames are wire plumbing, not protocol).
CODEC_MODULES = (
    "common/encoding.py",
    "transport/wire.py",
    "transport/channel.py",
    "clbft/messages.py",
    "crypto/digest.py",
    "scenario/process.py",
    "analysis/",
)

#: Modules allowed to call the binary envelope codec: the transport layer
#: that owns it and the one substrate boundary that frames a hop with it.
HOP_CODEC_MODULES = (
    "transport/",
    "scenario/process.py",
    "analysis/",
)

#: Modules allowed to call the digest helpers directly: the crypto
#: layer and the wire layer's own memoized digest properties.
DIGEST_MODULES = (
    "crypto/",
    "common/encoding.py",
    "transport/",
    "analysis/",
)

#: Modules allowed to construct WireEnvelope: the signing path and the
#: envelope codec.
ENVELOPE_MODULES = (
    "transport/channel.py",
    "transport/wire.py",
    "analysis/",
)

_CODEC_NAMES = frozenset(
    (
        "encode_message",
        "decode_message",
        "decode_perpetual",
        "canonical_encode",
        "encode_payload",
        "decode_payload",
    )
)

_HOP_CODEC_NAMES = frozenset(("envelope_to_bytes", "envelope_from_bytes"))

#: The plain-data envelope form: transport/ keeps it, but no protocol message
#: embeds an envelope — a stage-2 item carries payload bytes and
#: authenticators, never a whole envelope.
EMBED_CODEC_MODULES = (
    "transport/",
    "analysis/",
)

_EMBED_CODEC_NAMES = frozenset(("envelope_to_wire", "envelope_from_wire"))

_DIGEST_NAMES = frozenset(("digest", "digest_hex"))


def _allowed(module: str, allowlist: tuple[str, ...]) -> bool:
    return any(
        module == entry or (entry.endswith("/") and module.startswith(entry))
        for entry in allowlist
    )


def _named_calls(src: SourceFile, names: frozenset[str]) -> Iterator[ast.Call]:
    """Calls made directly through one of ``names``.

    Only ``Name`` callees count: passing a codec as an argument
    (``decode=decode_perpetual``) hands it to the channel, which is the
    sanctioned path.
    """
    for node in ast.walk(src.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names
        ):
            yield node


@register
class DirectCodecRule(Rule):
    id = "WIRE001"
    title = "no direct codec calls outside the wire layer"
    rationale = (
        "Every encode outside ChannelAdapter/WireBlob is a second walk "
        "over the same message — the encode-once contract the METRICS "
        "counters pin at runtime. Send objects (or WireBlobs) through "
        "the channel; inject a decoder via the decode= parameter. "
        "The binary envelope form (envelope_to_bytes/envelope_from_bytes) "
        "is narrower still: transport/ and scenario/process.py only; the "
        "plain-data envelope form (envelope_to_wire/envelope_from_wire) is "
        "transport/ only, so no message can embed an envelope."
    )

    #: ``(callee names, modules that may call them, what to do instead)``.
    _SEAMS = (
        (
            _CODEC_NAMES,
            CODEC_MODULES,
            "outside the wire layer — route through ChannelAdapter/WireBlob "
            "(wire_blob) or suppress with a justification",
        ),
        (
            _HOP_CODEC_NAMES,
            HOP_CODEC_MODULES,
            "outside transport/ and the process substrate boundary — an "
            "envelope takes its binary form only where a transport hop "
            "frames it",
        ),
        (
            _EMBED_CODEC_NAMES,
            EMBED_CODEC_MODULES,
            "outside transport/ — no message embeds an envelope; carry the "
            "payload bytes and auth_to_wire(envelope.auth) instead",
        ),
    )

    def applies_to(self, module: str) -> bool:
        return any(
            not _allowed(module, allowlist) for _, allowlist, _ in self._SEAMS
        )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for names, allowlist, advice in self._SEAMS:
            if _allowed(src.module, allowlist):
                continue
            for node in _named_calls(src, names):
                yield src.violation(
                    self, node, f"direct {node.func.id}() call {advice}"
                )


@register
class DirectDigestRule(Rule):
    id = "WIRE002"
    title = "no direct digest calls outside the wire/crypto layer"
    rationale = (
        "WireBlob.digest and WireEnvelope.payload_digest cache one "
        "digest per message; a bare digest()/digest_hex() call "
        "recomputes per caller and silently defeats the digest-once "
        "contract. A derived key must be cached on the object it is "
        "derived from (functools.cached_property, or "
        "repro.common.encoding.derived from a higher layer) and "
        "documented with a suppression."
    )

    def applies_to(self, module: str) -> bool:
        return not _allowed(module, DIGEST_MODULES)

    def check(self, src: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(src.tree)
        # Only flag names actually imported from the crypto digest
        # module — an unrelated local helper named ``digest`` is not a
        # wire-contract concern.
        digest_names = frozenset(
            name
            for name, origin in imports.names.items()
            if origin
            in ("repro.crypto.digest.digest", "repro.crypto.digest.digest_hex")
        )
        if not digest_names:
            return
        for node in _named_calls(src, digest_names):
            yield src.violation(
                self,
                node,
                f"direct {node.func.id}() call — share "
                "WireBlob.digest/payload_digest or cache it on the object "
                "it is derived from, then suppress with a justification",
            )


@register
class EnvelopeConstructionRule(Rule):
    id = "WIRE003"
    title = "no envelope construction outside the signing path"
    rationale = (
        "An envelope built by hand bypasses ChannelAdapter.multicast_to "
        "— the only place the authenticator, the encode-once blob, and "
        "the cost model meet. Envelopes come from the channel (sending) "
        "or the wire codec (decoding); anything else forges the "
        "codec's invariants. BatchEnvelope is held to the same rule: "
        "batches exist only on the sanctioned ChannelAdapter.flush / "
        "open_batch path, where the single batch MAC is computed and "
        "verified."
    )

    def applies_to(self, module: str) -> bool:
        return not _allowed(module, ENVELOPE_MODULES)

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("WireEnvelope", "BatchEnvelope")
            ):
                yield src.violation(
                    self,
                    node,
                    f"{node.func.id} constructed outside the signing path "
                    "— send through ChannelAdapter or decode via "
                    "the wire codec",
                )
