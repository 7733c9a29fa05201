"""Unit tests for the Figure 2 feature matrix."""

from repro.baselines.features import (
    ASYNC_COMM,
    BFT_WS,
    DYNAMIC_DISCOVERY,
    FAULT_ISOLATION,
    FEATURE_MATRIX,
    HOST_INFO,
    LONG_RUNNING,
    LOW_CRYPTO,
    PERPETUAL_WS,
    PROPERTIES,
    REPLICATED_INTEROP,
    SWS,
    SYSTEMS,
    THEMA,
    TRANSPORT_INDEP,
    UNMODIFIED_PASSIVE,
    render_matrix,
    supports,
)


class TestMatrixShape:
    def test_complete(self):
        assert len(FEATURE_MATRIX) == len(SYSTEMS) * len(PROPERTIES)

    def test_nine_properties_four_systems(self):
        assert len(PROPERTIES) == 9
        assert len(SYSTEMS) == 4


class TestPaperClaims:
    """Each test transcribes one row of section 3 / Figure 2."""

    def test_replicated_interop(self):
        assert supports(PERPETUAL_WS, REPLICATED_INTEROP)
        assert supports(SWS, REPLICATED_INTEROP)
        assert not supports(THEMA, REPLICATED_INTEROP)
        assert not supports(BFT_WS, REPLICATED_INTEROP)

    def test_fault_isolation_unique_to_perpetual(self):
        assert supports(PERPETUAL_WS, FAULT_ISOLATION)
        for other in (THEMA, BFT_WS, SWS):
            assert not supports(other, FAULT_ISOLATION)

    def test_long_running_unique_to_perpetual(self):
        assert supports(PERPETUAL_WS, LONG_RUNNING)
        for other in (THEMA, BFT_WS, SWS):
            assert not supports(other, LONG_RUNNING)

    def test_async_unique_to_perpetual(self):
        assert supports(PERPETUAL_WS, ASYNC_COMM)
        for other in (THEMA, BFT_WS, SWS):
            assert not supports(other, ASYNC_COMM)

    def test_host_info_unique_to_perpetual(self):
        assert supports(PERPETUAL_WS, HOST_INFO)

    def test_low_crypto_mac_systems(self):
        assert supports(PERPETUAL_WS, LOW_CRYPTO)
        assert supports(THEMA, LOW_CRYPTO)
        assert not supports(BFT_WS, LOW_CRYPTO)
        assert not supports(SWS, LOW_CRYPTO)

    def test_transport_independence(self):
        assert supports(PERPETUAL_WS, TRANSPORT_INDEP)
        assert supports(BFT_WS, TRANSPORT_INDEP)
        assert not supports(THEMA, TRANSPORT_INDEP)

    def test_everyone_supports_unmodified_passive(self):
        for system in SYSTEMS:
            assert supports(system, UNMODIFIED_PASSIVE)

    def test_dynamic_discovery_only_sws(self):
        assert supports(SWS, DYNAMIC_DISCOVERY)
        assert not supports(PERPETUAL_WS, DYNAMIC_DISCOVERY)

    def test_implemented_claims_carry_probes(self):
        for prop in PROPERTIES:
            claim = FEATURE_MATRIX[(PERPETUAL_WS, prop)]
            if claim.supported:
                assert claim.probe, f"{prop} has no executable probe"

    def test_render_matrix_contains_everything(self):
        table = render_matrix()
        for system in SYSTEMS:
            assert system in table
        for prop in PROPERTIES:
            assert prop in table

