"""Supporting prices on random markets, and why bilateral stability is weaker.

First half: draw random integer markets, reshuffle the picked items to the
welfare optimum, read off the minimal supporting prices, and confirm the
brute-force enumeration agrees with the assignment solver every time.

Second half: the classic three-agent table where no single swap is viable yet
the allocation sits four welfare units below the optimum.
"""

import numpy as np

from rsd_market import (
    MarketInstance,
    brute_force_optimal,
    ce_prices,
    expost_ce_transfers,
    get_scenario,
    max_welfare_allocation,
    serial_dictatorship,
    total_welfare,
    trade_surplus,
    verify_ce,
)

rng = np.random.default_rng(7)

print("=== random markets: solver vs enumeration ===")
for trial in range(5):
    n = int(rng.integers(3, 7))
    market = MarketInstance.from_matrix(rng.integers(0, 50, (n, n)).astype(float))
    order = tuple(int(j) for j in rng.permutation(n))

    picks = serial_dictatorship(market, order).allocation
    outcome = expost_ce_transfers(market, order)
    prices = ce_prices(market, picks, outcome.allocation)
    _, oracle_welfare = brute_force_optimal(market)

    solver_welfare = total_welfare(market, outcome.allocation)
    assert solver_welfare == oracle_welfare
    assert verify_ce(market, picks, outcome.allocation, prices)
    print(
        f"n={n}: picks {picks.assignment} -> optimum {outcome.allocation.assignment}, "
        f"welfare {solver_welfare:.0f}, prices {prices.prices.tolist()}, "
        f"transfers sum {sum(outcome.transfers):+.0f}"
    )

print()
print("=== a bilateral dead end ===")
scenario = get_scenario("example-4.1")
market = scenario.instance
print("valuations:")
print(market.dense_matrix())

stuck = serial_dictatorship(market, scenario.default_order).allocation
print("allocation after picks:", stuck.assignment)
for j, k in ((0, 1), (0, 2), (1, 2)):
    surplus = trade_surplus(market, stuck, j, k)
    print(f"  swap {j}<->{k}: joint surplus {surplus:+.0f} -> "
          f"{'viable' if surplus > 0 else 'no deal'}")

best = max_welfare_allocation(market)
print("stuck welfare:", total_welfare(market, stuck),
      "| optimal:", total_welfare(market, best), "at", best.assignment)
print("moral: pairwise stability is not efficiency; a three-way reshuffle "
      "(or centralized prices) is needed.")
