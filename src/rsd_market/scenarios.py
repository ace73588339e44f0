"""Built-in regression scenarios with small, hand-checkable payoff tables.

Each entry bundles an instance with the pick order under which it exhibits
its characteristic behavior.  The catalog keys are stable identifiers used by
the command line and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, validate_order


@dataclass(frozen=True)
class Scenario:
    instance: MarketInstance
    default_order: tuple[int, ...]


# name -> (valuations, budgets, default order)
_CATALOG = {
    # Plain picks are stable item-wise, yet a paid swap helps both agents.
    "example-3.1": (
        [[2, 1], [10, 1]],
        [5, 5],
        (0, 1),
    ),
    # Bilateral trading stalls 4 welfare units short of the optimum.
    "example-4.1": (
        [[5, 0, 10], [0, 4, 0], [-10, 0, 5]],
        [0, 0, 0],
        (0, 2, 1),
    ),
    # Honest picking is dominated by buying the deep pocket's favorite.
    "example-4.2": (
        [[20, 10, 10, 10], [10, 200, 10, 10], [10, 10, 10, 10], [10, 10, 10, 10]],
        [0, 500, 0, 0],
        (0, 1, 2, 3),
    ),
    # The optimum needs a three-way rotation no single backward swap induces.
    "example-5.1": (
        [[10, 9, 0], [0, 10, 9], [4, 0, 1]],
        [0, 0, 0],
        (0, 1, 2),
    ),
    # A latecomer's single paid swap restores the welfare optimum.
    "example-5.2": (
        [[10, 9, 0, 0], [0, 10, 9, 0], [4, 0, 1, 0], [0, 0, 100, 0]],
        [0, 0, 0, 0],
        (0, 1, 2, 3),
    ),
    # Shared preferences collapse the transfer stage to a no-op.
    "identical-preferences": (
        [[85, 63, 51, 26]] * 4,
        [0, 0, 0, 0],
        (0, 1, 2, 3),
    ),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def get_scenario(name: str) -> Scenario:
    try:
        matrix, budgets, order = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(_CATALOG)}"
        ) from None
    instance = MarketInstance.from_matrix(np.asarray(matrix, dtype=float), budgets)
    return Scenario(instance, validate_order(order, instance.n_agents))
