"""Unit tests for ``perpetual://`` endpoint-reference resolution."""

from repro.ws.registry import service_name


class TestRegistry:
    def test_service_name_extraction(self):
        assert service_name("perpetual://bank/3") == "bank"
        assert service_name("bank") == "bank"
