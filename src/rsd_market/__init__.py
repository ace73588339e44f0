"""Serial dictatorship with monetary transfers: mechanisms, prices, simulation."""

from .equilibrium import (
    PriceVector,
    brute_force_optimal,
    ce_prices,
    max_welfare_allocation,
    trade_surplus,
    transfers_from_prices,
    verify_ce,
)
from .errors import InternalInvariantError, PreconditionError
from .housing import (
    BatchReport,
    HousingInstance,
    SimConfig,
    SimReport,
    WealthModel,
    augmented_valuations,
    batch_run,
    generate_instance,
    public_valuations,
    run_housing_sim,
    small_tau_bound,
    tax_incidence_check,
    transaction_cost_sweep,
)
from .market import (
    Allocation,
    MarketInstance,
    Outcome,
    TradeRecord,
    load_instance,
    pareto_dominates,
    save_instance,
    total_welfare,
    utilities,
    validate_outcome,
)
from .mechanisms import (
    TradePolicy,
    TransactionCost,
    expost_ce_transfers,
    expost_pairwise_transfers,
    interim_feasibility_check,
    interim_transfers,
    pairwise_aftermarket,
    serial_dictatorship,
    ttc,
)
from .scenarios import Scenario, get_scenario, scenario_names
from .two_agent import (
    OfferDistribution,
    PointMass,
    TruncatedNormal,
    Uniform,
    ValueDistribution,
    acceptance_probability,
    first_mover_expected_utility,
    offer_distribution,
    optimal_offer,
    seller_expected_payoff,
    simulate_first_mover_game,
)

__version__ = "0.1.0"
