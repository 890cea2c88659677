"""Pricing engine for one-period single-node power markets with start-up costs.

Exact commitment and dispatch, convex-hull (uplift-minimizing) prices, and
capped-dual prices that shrink uplift further when oversized units distort
the hull.
"""

from .cost_analysis import (
    Interval,
    ec_min,
    hull_cost,
    profit,
    supply_correspondence,
)
from .dual_pricing import (
    PriceSet,
    UpliftReport,
    aggregate_supply,
    dual_value,
    price_set,
    uplifts,
)
from .errors import (
    DomainError,
    InfeasibleError,
    PricingError,
    SchemaError,
    SizeError,
    StalePriceError,
    UnknownFormatError,
    ValidationError,
)
from .market_model import (
    GeneratorSpec,
    MarketInstance,
    PiecewiseLinear,
    Quadratic,
    parse_instance,
)
from .mchp import (
    DiagnosticsReport,
    MchpResult,
    classify_lnmgu,
    diagnostics,
    mchp_price_set_limit,
    mchp_uplifts,
)
from .primal_solver import (
    DispatchSolution,
    economic_dispatch,
    solve_primal,
)
from .report import (
    PricingReport,
    SweepRow,
    load_sweep,
    render_report,
    render_sweep,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsReport",
    "DispatchSolution",
    "DomainError",
    "GeneratorSpec",
    "InfeasibleError",
    "Interval",
    "MarketInstance",
    "MchpResult",
    "PiecewiseLinear",
    "PriceSet",
    "PricingError",
    "PricingReport",
    "Quadratic",
    "SchemaError",
    "SizeError",
    "StalePriceError",
    "SweepRow",
    "UnknownFormatError",
    "UpliftReport",
    "ValidationError",
    "aggregate_supply",
    "classify_lnmgu",
    "diagnostics",
    "dual_value",
    "ec_min",
    "economic_dispatch",
    "hull_cost",
    "load_sweep",
    "mchp_price_set_limit",
    "mchp_uplifts",
    "parse_instance",
    "price_set",
    "profit",
    "render_report",
    "render_sweep",
    "run_pipeline",
    "solve_primal",
    "supply_correspondence",
    "uplifts",
]
