"""The TPC-W web interactions, their CPU costs, and the traffic mixes.

TPC-W defines fourteen web interactions; the paper's open-source Java
implementation exposes them as "twelve distinct web pages" (admin pages
are typically excluded from the mix, as here). Per-interaction CPU costs
model servlet work plus the MySQL queries behind each page on the paper's
testbed class — browsing pages are cheap, search and best-sellers scan
more, and the buy pages write.

Mixes: the canonical TPC-W *shopping* mix sends ~1% of traffic through
Buy Confirm, but the paper states that "around 5-10% of the total traffic
received by the bookstore results in requests being issued to an external
Payment Gateway Emulator"; :data:`PAPER_MIX` therefore shifts weight
toward the ordering pages to land the payment fraction in that band
(a deliberate substitution for the canonical mix).
"""

from __future__ import annotations

from dataclasses import dataclass

HOME = "home"
NEW_PRODUCTS = "new_products"
BEST_SELLERS = "best_sellers"
PRODUCT_DETAIL = "product_detail"
SEARCH_REQUEST = "search_request"
SEARCH_RESULTS = "search_results"
SHOPPING_CART = "shopping_cart"
CUSTOMER_REGISTRATION = "customer_registration"
BUY_REQUEST = "buy_request"
BUY_CONFIRM = "buy_confirm"
ORDER_INQUIRY = "order_inquiry"
ORDER_DISPLAY = "order_display"

ALL_INTERACTIONS = (
    HOME, NEW_PRODUCTS, BEST_SELLERS, PRODUCT_DETAIL, SEARCH_REQUEST,
    SEARCH_RESULTS, SHOPPING_CART, CUSTOMER_REGISTRATION, BUY_REQUEST,
    BUY_CONFIRM, ORDER_INQUIRY, ORDER_DISPLAY,
)

#: Servlet + database CPU per page, microseconds (testbed-class model).
CPU_COST_US = {
    HOME: 8_000,
    NEW_PRODUCTS: 18_000,
    BEST_SELLERS: 22_000,
    PRODUCT_DETAIL: 6_000,
    SEARCH_REQUEST: 4_000,
    SEARCH_RESULTS: 20_000,
    SHOPPING_CART: 10_000,
    CUSTOMER_REGISTRATION: 6_000,
    BUY_REQUEST: 12_000,
    BUY_CONFIRM: 16_000,
    ORDER_INQUIRY: 5_000,
    ORDER_DISPLAY: 12_000,
}


@dataclass(frozen=True)
class Mix:
    """A static interaction mix: page -> probability weight."""

    name: str
    weights: tuple[tuple[str, float], ...]

    def pages(self) -> list[str]:
        return [page for page, _ in self.weights]

    def probabilities(self) -> list[float]:
        return [weight for _, weight in self.weights]

    def fraction_of(self, page: str) -> float:
        total = sum(w for _, w in self.weights)
        for p, w in self.weights:
            if p == page:
                return w / total
        return 0.0


#: The canonical TPC-W shopping mix (WIPS).
SHOPPING_MIX = Mix(
    name="shopping",
    weights=(
        (HOME, 16.00),
        (NEW_PRODUCTS, 5.00),
        (BEST_SELLERS, 5.00),
        (PRODUCT_DETAIL, 17.00),
        (SEARCH_REQUEST, 20.00),
        (SEARCH_RESULTS, 17.00),
        (SHOPPING_CART, 11.60),
        (CUSTOMER_REGISTRATION, 3.00),
        (BUY_REQUEST, 2.60),
        (BUY_CONFIRM, 1.20),
        (ORDER_INQUIRY, 0.75),
        (ORDER_DISPLAY, 0.85),
    ),
)

#: The paper's configuration: payment traffic in the 5-10% band.
PAPER_MIX = Mix(
    name="paper",
    weights=(
        (HOME, 14.00),
        (NEW_PRODUCTS, 5.00),
        (BEST_SELLERS, 5.00),
        (PRODUCT_DETAIL, 15.00),
        (SEARCH_REQUEST, 16.00),
        (SEARCH_RESULTS, 14.00),
        (SHOPPING_CART, 11.00),
        (CUSTOMER_REGISTRATION, 4.00),
        (BUY_REQUEST, 7.00),
        (BUY_CONFIRM, 7.00),
        (ORDER_INQUIRY, 1.00),
        (ORDER_DISPLAY, 1.00),
    ),
)

#: The canonical TPC-W ordering mix (WIPSo).
ORDERING_MIX = Mix(
    name="ordering",
    weights=(
        (HOME, 9.12),
        (NEW_PRODUCTS, 0.46),
        (BEST_SELLERS, 0.46),
        (PRODUCT_DETAIL, 12.35),
        (SEARCH_REQUEST, 14.53),
        (SEARCH_RESULTS, 13.08),
        (SHOPPING_CART, 13.53),
        (CUSTOMER_REGISTRATION, 12.86),
        (BUY_REQUEST, 12.73),
        (BUY_CONFIRM, 10.18),
        (ORDER_INQUIRY, 0.25),
        (ORDER_DISPLAY, 0.45),
    ),
)
