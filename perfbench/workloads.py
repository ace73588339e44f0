"""The four benchmark workloads: inputs from a seed, one op, and its output check.

Every workload is a closed loop with one client: op ``i + 1`` starts after op
``i`` has returned. The inputs of op ``i`` are a pure function of the
workload seed and ``i``; the program receives only those inputs.

Why these four:

* ``housing-large`` is the paper's headline configuration (README/C15
  defaults at 4,000 agents). Each replication builds 4·n hashed valuation
  rows of n cells, so the hash + ``ndtri`` row kernel dominates. 10,000
  agents has the same per-cell profile at about four times the op time.
* ``housing-ladder`` runs ``batch_run`` over 1,000-agent replications with
  C13's power-law wealth ladder and a fixed fee. Rows are short, so the cost
  moves to per-agent Python work in the pick pass and the aftermarket, and
  budgets and fees block trades. It is the only workload that runs the
  worker pool (2 workers), so work moved onto a second core shows here.
* ``ce-dense`` runs the CE-price mechanism on dense markets, with no
  hashing. Two tie-heavy integer markets run per normal-valued market: the
  two families each take about half the time, a tie-break that is slow on
  ties shows, and the median op stays inside one family.
* ``two-agent`` runs ``optimal_offer`` over a sweep of the offerer's value,
  with a ``first_mover_expected_utility`` call after every three. The same
  two distributions recur, so recomputed acceptance curves are shared work
  that only this workload has. The 3:1 mix keeps the median on
  ``optimal_offer`` calls on one distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from rsd_market import equilibrium, housing, market, mechanisms, suite, two_agent
from rsd_market.market import Allocation, MarketInstance, Outcome


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint64)[0] >> 1)


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


class Workload:
    """One op kind. Runs are whole repeats of a ``mix`` of ops."""

    name = ""
    mix = 1
    digest_ops = 1  # the first ops of every run, hashed into the output digest
    nominal_op_s = 1.0  # sizes the traced run; a constant, so it is deterministic

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed

    def family(self, i: int) -> str:
        return self.name

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def run_repeat(self, inp):
        """The op run again for the determinism check; the same op by default."""
        return self.run(inp)

    def check(self, inp, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def digest(self, h, inp, out) -> None:
        raise NotImplementedError

    def reports(self, out) -> list[housing.SimReport]:
        """The replication reports inside one op's output."""
        return []

    def warm_up(self) -> None:
        raise NotImplementedError

    def traced_ops(self, seconds: float) -> int:
        """Ops in the traced run: each runs untraced and traced once."""
        mixes = math.floor(seconds / (2.0 * self.mix * self.nominal_op_s))
        return max(self.digest_ops, self.mix * mixes)


# ---------------------------------------------------------------------------
# Housing
# ---------------------------------------------------------------------------


class _CellLookup:
    """Valuation backend answering single-cell reads from a precomputed table.

    The output checks read a few cells per agent and per trade. Reading them
    through ``MarketInstance.value`` would rebuild a whole hashed row per cell;
    this backend reads them with ``values``, which is bit-identical, in one call.
    """

    def __init__(self, base, agents: np.ndarray, items: np.ndarray) -> None:
        self.base = base
        vals = base.values(agents, items)
        self.table = {(int(a), int(i)): float(v) for a, i, v in zip(agents, items, vals)}

    @property
    def n_agents(self) -> int:
        return self.base.n_agents

    @property
    def n_items(self) -> int:
        return self.base.n_items

    def row(self, agent: int) -> "_LazyRow":
        return _LazyRow(self, agent)


class _LazyRow:
    __slots__ = ("lookup", "agent")

    def __init__(self, lookup: _CellLookup, agent: int) -> None:
        self.lookup = lookup
        self.agent = agent

    def __getitem__(self, item) -> float:
        return self.lookup.table[(self.agent, int(item))]


def check_report(config: housing.SimConfig, report: housing.SimReport) -> list[str]:
    """Outcome invariants, trade soundness, permutation, no-loser bound."""
    n = config.n_agents
    inst = housing.generate_instance(config, report.seed).market
    final = report.final_assignment
    endowment = report.treatment_endowment
    agents = [np.arange(n), np.arange(n)]
    items = [final, endowment]
    for rec in report.trades:
        agents.append(np.array([rec.proposer, rec.proposer, rec.counterparty, rec.counterparty]))
        items.append(np.array([rec.item_acquired, rec.item_given, rec.item_given, rec.item_acquired]))
    lookup = _CellLookup(inst.valuations, np.concatenate(agents), np.concatenate(items))
    checked = MarketInstance(valuations=lookup, budgets=inst.budgets)
    outcome = Outcome(Allocation.from_array(final), tuple(report.transfers), report.trades)

    # trade_log_soundness runs market.validate_outcome first.
    problems = suite.trade_log_soundness(checked, outcome)
    if not np.array_equal(np.sort(final), np.arange(n)):
        problems.append("final assignment is not a permutation")
    own_final = np.array([checked.value(j, int(final[j])) for j in range(n)])
    own_endow = np.array([checked.value(j, int(endowment[j])) for j in range(n)])
    scale = float(report.budgets0.max()) + float(np.abs(np.concatenate([own_final, own_endow])).max())
    worst = float(report.trade_stage_delta.min())
    if worst < -1e-9 * scale:
        problems.append(f"trade stage created a loser: {worst!r} < -1e-9 * {scale!r}")
    return problems


def digest_report(h, report: housing.SimReport) -> None:
    _hash_arrays(
        h,
        report.baseline_assignment,
        report.treatment_endowment,
        report.final_assignment,
        report.transfers,
        report.fees,
        report.welfare_baseline,
        report.welfare_endowment,
        report.welfare_treatment,
        report.delta,
        report.trade_stage_delta,
        report.histogram_counts,
        report.histogram_edges,
    )
    h.update(repr([tuple(vars(r).values()) for r in report.trades]).encode())


class _Housing(Workload):
    """An op returns one or more replication reports, each checked alike."""

    config: housing.SimConfig

    def make_input(self, i: int) -> int:
        return op_seed(self.seed, i)

    def check(self, inp, out) -> list[str]:
        return [p for r in self.reports(out) for p in check_report(self.config, r)]

    def digest(self, h, inp, out) -> None:
        for r in self.reports(out):
            digest_report(h, r)


class HousingLarge(_Housing):
    name = "housing-large"
    digest_ops = 2
    nominal_op_s = 3.0

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.config = housing.SimConfig(n_agents=200 if tiny else 4000)

    def run(self, inp: int) -> housing.SimReport:
        return housing.run_housing_sim(self.config, inp)

    def reports(self, out) -> list[housing.SimReport]:
        return [out]

    def warm_up(self) -> None:
        housing.run_housing_sim(housing.SimConfig(n_agents=50), 0)


def ladder_config(groups: int) -> housing.SimConfig:
    """C13's wealth ladder: ``groups`` income groups of 10, base 1.01**10."""
    wealth = housing.WealthModel(kind="power-law", n_groups=groups, base=1.01**10, agents_per_group=10)
    return housing.SimConfig(
        n_agents=groups * 10,
        wealth=wealth,
        cost=mechanisms.TransactionCost("fixed", 25.0),
    )


class HousingLadder(_Housing):
    name = "housing-ladder"
    digest_ops = 2
    nominal_op_s = 2.3
    workers = 2

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.config = ladder_config(10 if tiny else 100)
        self.reps = 2 if tiny else 4

    def run(self, inp: int, workers: int | None = None) -> housing.BatchReport:
        return housing.batch_run(self.config, self.reps, inp, parallelism=workers or self.workers)

    def run_repeat(self, inp: int) -> housing.BatchReport:
        # Results must not depend on the worker count.
        return self.run(inp, workers=1)

    def reports(self, out) -> list[housing.SimReport]:
        return list(out.reports)

    def warm_up(self) -> None:
        housing.batch_run(ladder_config(10), 2, 0, parallelism=self.workers)


# ---------------------------------------------------------------------------
# CE-price mechanism on dense markets
# ---------------------------------------------------------------------------


class CeDense(Workload):
    name = "ce-dense"
    mix = 3
    digest_ops = 3
    nominal_op_s = 0.7

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n_normal = 12 if tiny else 120
        self.n_ties = 24 if tiny else 240

    def family(self, i: int) -> str:
        return "normal" if i % 3 == 2 else "ties"

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        if self.family(i) == "normal":
            n = self.n_normal
            values = rng.normal(100.0, 30.0, size=(n, n))
        else:
            n = self.n_ties
            values = rng.integers(0, 5, size=(n, n)).astype(np.float64)
        order = tuple(int(j) for j in rng.permutation(n))
        return MarketInstance.from_matrix(values), order

    def run(self, inp) -> Outcome:
        instance, order = inp
        return mechanisms.expost_ce_transfers(instance, order)

    def _prices(self, inp, out) -> tuple[Allocation, equilibrium.PriceVector]:
        instance, order = inp
        endowment = Allocation.from_array(mechanisms.sd_assignment(instance.valuations, order))
        return endowment, equilibrium.ce_prices(instance, endowment, out.allocation)

    def check(self, inp, out) -> list[str]:
        instance, _ = inp
        endowment, prices = self._prices(inp, out)
        problems = market.validate_outcome(instance, out)
        if not equilibrium.verify_ce(instance, endowment, out.allocation, prices):
            problems.append("prices do not support the allocation")
        if out.transfers != equilibrium.transfers_from_prices(endowment, out.allocation, prices):
            problems.append("transfers are not read off the supporting prices")
        matrix = instance.dense_matrix()
        cols = np.array(sorted(endowment.items()))
        rows, picked = linear_sum_assignment(matrix[:, cols], maximize=True)
        optimum = float(matrix[rows, cols[picked]].sum())
        welfare = market.total_welfare(instance, out.allocation)
        if abs(welfare - optimum) > 1e-9 * max(1.0, abs(optimum)):
            problems.append(f"welfare {welfare!r} differs from the assignment optimum {optimum!r}")
        return problems

    def digest(self, h, inp, out) -> None:
        _, prices = self._prices(inp, out)
        _hash_arrays(h, out.allocation.to_array(), np.array(out.transfers), prices.prices)

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        mechanisms.expost_ce_transfers(MarketInstance.from_matrix(rng.normal(size=(6, 6))), range(6))


# ---------------------------------------------------------------------------
# Two-agent bargaining
# ---------------------------------------------------------------------------

DISTRIBUTIONS = (
    ("uniform:0,1", two_agent.Uniform(0.0, 1.0)),
    ("truncnorm:0,1,0.6,0.2", two_agent.TruncatedNormal(0.0, 1.0, 0.6, 0.2)),
)


class TwoAgent(Workload):
    name = "two-agent"
    mix = 8
    digest_ops = 8
    nominal_op_s = 0.52

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n_draws = 2_000 if tiny else 100_000
        self.v2a = 0.6 + 0.4 * float(np.random.default_rng([seed]).random())

    def family(self, i: int) -> str:
        return "first-mover" if i % 4 == 3 else "offer"

    def make_input(self, i: int):
        # Every fourth op is a first-mover call, alternating between the two
        # distributions. Of the three offers before it, one is on the uniform
        # and two on the truncated normal. In sorted latency the mix of eight
        # is then 2 uniform offers, 4 truncnorm offers and 2 first-mover
        # calls, so the median op sits in the middle of the truncnorm offers.
        if self.family(i) == "offer":
            spec, dist = DISTRIBUTIONS[0 if i % 4 == 0 else 1]
        else:
            spec, dist = DISTRIBUTIONS[(i // 4) % 2]
        rng = np.random.default_rng([self.seed, i])
        if self.family(i) == "offer":
            return "offer", spec, dist, (self.v2a, self.v2a * rng.uniform(0.05, 0.95))
        v1a, v1b = (float(v) for v in dist.sample(rng, 2))
        return "first-mover", spec, dist, (v1a, v1b, op_seed(self.seed, i))

    def run(self, inp):
        kind, _, d, args = inp
        if kind == "offer":
            v2a, v2b = args
            return two_agent.optimal_offer(v2a, v2b, d, d)
        v1a, v1b, seed = args
        return two_agent.first_mover_expected_utility(v1a, v1b, d, d, d, d, self.n_draws, seed)

    def check(self, inp, out) -> list[str]:
        kind, spec, d, args = inp
        problems = []
        if kind == "offer":
            v2a, v2b = args
            t = out.t_star
            if spec.startswith("uniform") and abs(out.acceptance - (1.0 - (1.0 - t) ** 2 / 2.0)) > 1e-7:
                problems.append(f"acceptance {out.acceptance!r} at t*={t!r} misses 1-(1-t)^2/2")
            for other in (0.0, d.width, max(0.0, t - 1e-2), min(d.width, t + 1e-2)):
                if two_agent.seller_expected_payoff(v2a, v2b, d, d, other) > out.expected_payoff + 1e-9:
                    problems.append(f"offer {other!r} pays more than t*={t!r}")
            return problems
        # The first mover's expected utility is that of the pick it makes.
        v1a, v1b, seed = args
        choice = out.best_choice
        eu, se = (out.eu_choose_a, out.se_choose_a) if choice == "A" else (out.eu_choose_b, out.se_choose_b)
        mean, sim_se = two_agent.simulate_first_mover_game(v1a, v1b, d, d, d, d, choice, self.n_draws, seed + 1)
        if abs(eu - mean) > 4.0 * math.hypot(se, sim_se) + 1e-12:
            problems.append(f"first-mover EU {choice} {eu!r} vs rollout {mean!r} ± {sim_se!r}")
        return problems

    def digest(self, h, inp, out) -> None:
        if inp[0] == "offer":
            values = (out.t_star, out.expected_payoff, out.acceptance)
        else:
            values = (out.eu_choose_a, out.eu_choose_b, out.se_choose_a, out.se_choose_b)
        _hash_arrays(h, np.array(values))
        h.update(repr(inp[:2]).encode())

    def warm_up(self) -> None:
        # A full-size offer on each distribution family: the first such call in
        # a process is several times slower. The parameters differ from the
        # workload's, so nothing computed here is one of its answers.
        for d in (two_agent.Uniform(0.0, 2.0), two_agent.TruncatedNormal(0.0, 2.0, 1.0, 0.5)):
            two_agent.optimal_offer(1.5, 0.5, d, d)


WORKLOADS = {w.name: w for w in (HousingLarge, HousingLadder, CeDense, TwoAgent)}
