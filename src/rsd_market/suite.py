"""Regression suite: every release criterion as an executable check.

Each criterion records into one :class:`CriterionResult`: ``expect`` collects
a failure without stopping the criterion, ``note`` a measured value.
``run_paper_suite`` runs the criteria in order, timing each and printing one
pass/fail line per criterion with its failures and notes.  The same functions
back ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from . import equilibrium, housing, market, mechanisms, scenarios, two_agent
from .market import Allocation, MarketInstance, Outcome, replay_trade_log


@dataclass
class CriterionResult:
    cid: str
    title: str
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def details(self) -> list[str]:
        return self.failures + self.notes

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def note(self, message: str) -> None:
        self.notes.append(message)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {status} ({self.seconds:6.2f}s) {self.title}"


# ---------------------------------------------------------------------------
# Shared generators and checkers
# ---------------------------------------------------------------------------


def random_integer_instance(
    rng: np.random.Generator, n: int, low: int = -10, high: int = 51
) -> MarketInstance:
    values = rng.integers(low, high, size=(n, n)).astype(float)
    return MarketInstance.from_matrix(values)


def _random_markets(
    seed: int, trials: int
) -> Iterator[tuple[MarketInstance, tuple[int, ...]]]:
    """``trials`` random integer markets of 2 to 8 agents, each with a random pick order."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        inst = random_integer_instance(rng, n)
        yield inst, tuple(int(j) for j in rng.permutation(n))


def trade_log_soundness(
    instance: MarketInstance,
    outcome: Outcome,
    *,
    buyer_strict: bool = True,
    atol: float = 1e-9,
) -> list[str]:
    """Check per-trade mutual benefit and overall weak dominance over the
    pre-trade state, accounting for transaction fees on the seller side."""
    problems = market.validate_outcome(instance, outcome, atol=max(atol, 1e-9))
    try:
        pre_allocation, _ = replay_trade_log(outcome)
    except ValueError:
        return problems  # ``validate_outcome`` names the inconsistent step
    # A log that replays backwards hands each trade the items its parties hold.
    for rec in outcome.trade_log:
        buyer_gain = (
            instance.value(rec.proposer, rec.item_acquired)
            - instance.value(rec.proposer, rec.item_given)
            - rec.price
        )
        seller_gain = (
            instance.value(rec.counterparty, rec.item_given)
            - instance.value(rec.counterparty, rec.item_acquired)
            + rec.price
            - rec.cost
        )
        if buyer_strict and not buyer_gain > atol:
            problems.append(f"step {rec.step}: buyer gain {buyer_gain!r} not strictly positive")
        if buyer_gain < -atol:
            problems.append(f"step {rec.step}: buyer worse off by {buyer_gain!r}")
        if seller_gain < -atol:
            problems.append(f"step {rec.step}: seller worse off by {seller_gain!r}")
    # Cash endowments enter both sides equally, so compare item value plus net
    # transfer: added to a large budget, a sub-ulp difference would round to
    # a spurious loss (or hide a real one).
    fees = outcome.seller_costs()
    pre = np.array([instance.value(j, item) for j, item in enumerate(pre_allocation.assignment)])
    post = (
        np.array([instance.value(j, item) for j, item in enumerate(outcome.allocation.assignment)])
        + np.asarray(outcome.transfers, dtype=np.float64)
        - fees
    )
    if np.any(post < pre - atol):
        worst = float(np.min(post - pre))
        problems.append(f"final outcome not weakly dominant over pre-trade (worst {worst!r})")
    return problems


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_01(check: CriterionResult) -> None:
    """Two-agent paid-swap scenario: picks, equilibrium transfers, CE point."""
    sc = scenarios.get_scenario("example-3.1")
    inst = sc.instance
    sd = mechanisms.serial_dictatorship(inst, (0, 1))
    u_sd = market.utilities(inst, sd)
    check.expect(tuple(u_sd) == (7.0, 6.0), f"plain pick utilities {tuple(u_sd)} != (7, 6)")

    ce = mechanisms.expost_ce_transfers(inst, (0, 1))
    check.expect(ce.allocation.assignment == (1, 0), f"CE allocation {ce.allocation.assignment}")
    welfare = market.total_welfare(inst, ce.allocation)
    check.expect(welfare == 11.0, f"CE welfare {welfare} != 11")
    u_ce = market.utilities(inst, ce)
    check.expect(
        bool(np.all(u_ce >= u_sd)),
        f"CE utilities {u_ce.tolist()} not weakly above {u_sd.tolist()}",
    )
    check.note(f"CE transfers {ce.transfers}, utilities {u_ce.tolist()}")

    endow = sd.allocation
    interior = np.array([2.0, 0.0])
    check.expect(
        equilibrium.verify_ce(inst, endow, ce.allocation, interior),
        "interior transfer point (price 2 on the contested item) rejected",
    )


def criterion_02(check: CriterionResult) -> None:
    """Bilateral dead end: stable yet four units below the optimum."""
    sc = scenarios.get_scenario("example-4.1")
    inst = sc.instance
    out = mechanisms.expost_pairwise_transfers(inst, sc.default_order)
    check.expect(out.allocation.assignment == (2, 0, 1), f"allocation {out.allocation.assignment}")
    check.expect(len(out.trade_log) == 0, f"{len(out.trade_log)} trades executed")
    welfare = market.total_welfare(inst, out.allocation)
    check.expect(welfare == 10.0, f"stable welfare {welfare} != 10")
    surpluses = {}
    for j, k in ((0, 1), (0, 2), (1, 2)):
        surplus = equilibrium.trade_surplus(inst, out.allocation, j, k)
        surpluses[(j, k)] = surplus
        check.expect(surplus <= 0, f"pair {(j, k)} viable: surplus {surplus}")
    check.note(f"pair surpluses {surpluses}")
    _, best = equilibrium.brute_force_optimal(inst)
    check.expect(best == 14.0, f"enumerated optimum {best} != 14")


def criterion_03(check: CriterionResult) -> None:
    """Sequential transfers: the miss and the one-trade rescue."""
    miss = scenarios.get_scenario("example-5.1")
    _, miss_opt = equilibrium.brute_force_optimal(miss.instance)
    check.expect(miss_opt == 22.0, f"optimum {miss_opt} != 22")
    for model in ("myopic", "lookback-strategic"):
        out = mechanisms.interim_transfers(miss.instance, miss.default_order, model)
        w = market.total_welfare(miss.instance, out.allocation)
        check.expect(
            w == 21.0 and len(out.trade_log) == 0,
            f"{model}: welfare {w}, trades {len(out.trade_log)} (want 21, 0)",
        )

    rescue = scenarios.get_scenario("example-5.2")
    for model in ("myopic", "lookback-strategic"):
        out = mechanisms.interim_transfers(rescue.instance, rescue.default_order, model)
        w = market.total_welfare(rescue.instance, out.allocation)
        check.expect(
            out.allocation.assignment == (0, 1, 3, 2), f"{model}: {out.allocation.assignment}"
        )
        check.expect(w == 120.0, f"{model}: welfare {w} != 120")
        check.expect(len(out.trade_log) == 1, f"{model}: {len(out.trade_log)} trades")
        if out.trade_log:
            rec = out.trade_log[0]
            check.expect(
                (rec.proposer, rec.counterparty) == (3, 2),
                f"{model}: trade parties {(rec.proposer, rec.counterparty)}",
            )


def criterion_04(check: CriterionResult) -> None:
    """Manipulation premium: 20 + split * 190, dominant at every split."""
    # In example-4.2 the first picker values room 0 at 20 and everything else
    # at 10; the second values room 1 at 200 and everything else at 10 and can
    # pay.  Honest, the first picker takes room 0.  Manipulating, they grab
    # room 1 and sell it back for room 0 at the policy price.
    value = scenarios.get_scenario("example-4.2").instance.value
    honest = value(0, 0)
    check.expect(honest == 20.0, "honest branch payoff moved")
    for k in range(11):
        lam = k / 10
        viable, price = mechanisms.bilateral_price(
            value(0, 1) - value(0, 0), value(1, 1) - value(1, 0), mechanisms.TradePolicy(lam)
        )
        check.expect(bool(viable), f"split {lam}: resale not viable")
        resale = honest + float(price)
        expected = 20.0 + lam * 190.0
        check.expect(resale == expected, f"split {lam}: resale payoff {resale} != {expected}")
        check.expect(resale >= honest, f"split {lam}: manipulation not weakly dominant")
        if lam == 0.5:
            check.expect(resale == 115.0, f"midpoint payoff {resale} != 115")
    check.note("resale transfer at 0.5 split: 95")


def criterion_05(check: CriterionResult) -> None:
    """Equilibrium transfers hit the enumerated optimum on 500 random markets."""
    welfare_ok = prices_ok = 0
    trials = 500
    for inst, order in _random_markets(20240517, trials):
        out = mechanisms.expost_ce_transfers(inst, order)
        _, best = equilibrium.brute_force_optimal(inst)
        if market.total_welfare(inst, out.allocation) == best:
            welfare_ok += 1
        endow = mechanisms.serial_dictatorship(inst, order).allocation
        prices = equilibrium.ce_prices(inst, endow, out.allocation)
        if equilibrium.verify_ce(inst, endow, out.allocation, prices):
            prices_ok += 1
        if abs(sum(out.transfers)) > 0:
            check.expect(False, "transfer sum not exactly zero on an integer market")
    check.expect(welfare_ok == trials, f"welfare optimal on {welfare_ok}/{trials}")
    check.expect(prices_ok == trials, f"supporting prices verified on {prices_ok}/{trials}")
    check.note(f"{welfare_ok}/{trials} optimal, {prices_ok}/{trials} price-supported")


def criterion_06(check: CriterionResult) -> None:
    """Cycle trading after truthful picks never trades (200 random markets)."""
    ok = 0
    trials = 200
    for inst, order in _random_markets(61803, trials):
        endow = mechanisms.serial_dictatorship(inst, order).allocation
        if mechanisms.ttc(inst, endow).assignment == endow.assignment:
            ok += 1
    check.expect(ok == trials, f"no-trade fixed point on {ok}/{trials}")
    check.note(f"{ok}/{trials} identity reallocations")


def criterion_07(check: CriterionResult) -> None:
    """Identical preferences collapse bilateral trading to plain picks."""
    rng = np.random.default_rng(1729)
    ok = 0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        row = rng.integers(0, 100, size=n).astype(float)
        inst = MarketInstance.from_matrix(np.tile(row, (n, 1)))
        order = tuple(int(j) for j in rng.permutation(n))
        sd = mechanisms.serial_dictatorship(inst, order)
        pw = mechanisms.expost_pairwise_transfers(inst, order)
        if (
            pw.allocation.assignment == sd.allocation.assignment
            and pw.transfers == sd.transfers
            and len(pw.trade_log) == 0
        ):
            ok += 1
    check.expect(ok == trials, f"equivalence held on {ok}/{trials}")
    check.note(f"{ok}/{trials} exact matches, zero trades")


def criterion_08(check: CriterionResult) -> None:
    """Every logged trade is mutually beneficial and the result dominates the
    pre-trade state: bilateral, sequential, and simulated aftermarkets."""
    examined = 0
    for inst, order in _random_markets(4242, 60):
        for policy in (
            mechanisms.TradePolicy(),
            mechanisms.TradePolicy(surplus_split=0.25, seller_reservation_floor=False),
            mechanisms.TradePolicy(surplus_split=0.0, pairwise_mode="single-pass"),
        ):
            out = mechanisms.expost_pairwise_transfers(inst, order, policy)
            problems = trade_log_soundness(inst, out, buyer_strict=policy.surplus_split < 1)
            for p in problems:
                check.expect(False, f"pairwise {policy.pairwise_mode}: {p}")
            examined += len(out.trade_log)
        for model in ("myopic", "lookback-strategic"):
            out = mechanisms.interim_transfers(inst, order, model)
            for p in trade_log_soundness(inst, out):
                check.expect(False, f"interim {model}: {p}")
            examined += len(out.trade_log)

    cfg = housing.SimConfig(n_agents=500)
    rep = housing.run_housing_sim(cfg, seed=2718)
    outcome = Outcome(
        allocation=Allocation.from_array(rep.final_assignment),
        transfers=tuple(float(t) for t in rep.transfers),
        trade_log=rep.trades,
    )
    # Values here are order-1e4 floats, so give the checks commensurate slack.
    inst = housing.generate_instance(cfg, rep.seed).market
    for p in trade_log_soundness(inst, outcome, atol=1e-6):
        check.expect(False, f"housing aftermarket: {p}")
    examined += rep.trade_count
    check.expect(examined > 300, f"only {examined} trades examined")
    check.note(f"{examined} logged trades checked")


def criterion_09(check: CriterionResult) -> None:
    """When one-swap correction stays feasible, lookahead play is optimal."""
    rng = np.random.default_rng(5151)
    found = 0
    attempts = 0
    matched = 0
    while found < 50 and attempts < 4000:
        attempts += 1
        n = int(rng.integers(2, 7))
        inst = MarketInstance.from_matrix(rng.integers(0, 1000, size=(n, n)).astype(float))
        order = tuple(int(j) for j in rng.permutation(n))
        if not mechanisms.interim_feasibility_check(inst, order):
            continue
        found += 1
        out = mechanisms.interim_transfers(
            inst, order, "lookback-strategic", mechanisms.GAIN_ALIGNED
        )
        _, best = equilibrium.brute_force_optimal(inst)
        if market.total_welfare(inst, out.allocation) == best:
            matched += 1
    check.expect(found >= 50, f"collected only {found} feasible instances")
    check.expect(matched == found, f"optimal welfare on {matched}/{found}")
    check.note(f"{found} feasible instances out of {attempts} sampled; {matched} optimal")


def criterion_10(check: CriterionResult) -> None:
    """Two-player bargaining: closed form, boundary offer, monotone offers,
    and the first-mover decomposition against a direct game rollout."""
    u = two_agent.Uniform(0.0, 1.0)

    ts = np.linspace(0.0, 1.0, 101)
    worst = max(
        abs(two_agent.acceptance_probability(u, u, float(t)) - (1 - (1 - t) ** 2 / 2))
        for t in ts
    )
    check.expect(worst <= 1e-6, f"closed-form acceptance mismatch {worst:.2e}")
    check.note(f"closed-form acceptance max error {worst:.2e}")

    boundary = two_agent.optimal_offer(0.5, 0.5, u, u)
    check.expect(abs(boundary.t_star) <= 1e-4, f"boundary offer {boundary.t_star!r} != 0")

    v2b = 0.1
    gaps = np.linspace(0.04, 0.8, 20)
    offers = [two_agent.optimal_offer(v2b + d, v2b, u, u).t_star for d in gaps]
    monotone = all(b >= a - 1e-5 for a, b in zip(offers, offers[1:]))
    check.expect(monotone, f"offer curve not weakly increasing: {offers}")
    check.note(f"offer range over gap grid: [{offers[0]:.5f}, {offers[-1]:.5f}]")

    draws = 100_000
    fm = two_agent.first_mover_expected_utility(0.9, 0.2, u, u, u, u, draws, seed=90210)
    for choice, eu, se in (
        ("A", fm.eu_choose_a, fm.se_choose_a),
        ("B", fm.eu_choose_b, fm.se_choose_b),
    ):
        sim_eu, sim_se = two_agent.simulate_first_mover_game(
            0.9, 0.2, u, u, u, u, choice, draws, seed=777 + ord(choice)
        )
        tol = max(3.0 * float(np.hypot(se, sim_se)), 1e-6)
        check.expect(
            abs(eu - sim_eu) <= tol,
            f"choice {choice}: decomposition {eu:.5f} vs rollout {sim_eu:.5f} (tol {tol:.5f})",
        )
        check.note(f"choice {choice}: {eu:.5f} vs {sim_eu:.5f} (3se tol {tol:.5f})")


def criterion_11(check: CriterionResult) -> None:
    """Fee-split irrelevance, and small fees leaving the swap set unchanged."""
    rng = np.random.default_rng(9090)
    incidence_ok = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        inst = random_integer_instance(rng, n, low=0, high=100)
        j, j_other = rng.choice(n, size=2, replace=False)
        i_keep, i_give, i_get = (int(x) for x in rng.choice(n, size=3, replace=False))
        tau = float(rng.integers(0, 40))
        if housing.tax_incidence_check(
            inst, int(j), int(j_other), (i_keep, i_give, i_get), tau, [0.0, tau / 2, tau]
        ):
            incidence_ok += 1
    check.expect(incidence_ok == 100, f"split-irrelevance held on {incidence_ok}/100")

    reproduced = 0
    examined = 0
    attempts = 0
    policy = replace(housing.HOUSING_POLICY, budget_enforced=False)
    cfg = housing.SimConfig(n_agents=40)
    while examined < 50 and attempts < 300:
        attempts += 1
        inst = housing.generate_instance(cfg, seed=600_000 + attempts).market
        order = housing.replication_order(cfg, seed=600_000 + attempts)
        endow = mechanisms.serial_dictatorship(inst, order).allocation
        base_alloc, _, base_log = mechanisms.pairwise_aftermarket(inst, endow, order, policy)
        gamma_star = housing.small_tau_bound(inst, base_log)
        if gamma_star == np.inf:
            continue
        examined += 1
        tau = mechanisms.TransactionCost("fixed", gamma_star / 2)
        taxed_alloc, _, taxed_log = mechanisms.pairwise_aftermarket(
            inst, endow, order, policy, tau
        )
        swaps = [(r.proposer, r.counterparty, r.item_acquired, r.item_given) for r in base_log]
        taxed = [(r.proposer, r.counterparty, r.item_acquired, r.item_given) for r in taxed_log]
        if swaps == taxed and base_alloc.assignment == taxed_alloc.assignment:
            reproduced += 1
    check.expect(examined == 50, f"only {examined} trading instances found")
    check.expect(reproduced == examined, f"swap set reproduced on {reproduced}/{examined}")
    check.note(f"{reproduced}/{examined} aftermarkets unchanged at half the headroom")


_DESK_MASTER_SEED = 20240612


def criterion_12(check: CriterionResult) -> None:
    """Desk-scale welfare experiment: positive gains, (almost) no losers."""
    # scipy.stats costs about 0.5 s and 20 MB to import; only C12 and C13 use it.
    from scipy import stats as scipy_stats

    cfg = housing.SimConfig(n_agents=1000)
    batch = housing.batch_run(cfg, 20, master_seed=_DESK_MASTER_SEED)
    positive = int(np.sum(batch.gains > 0))
    check.expect(positive == 20, f"positive total gain in {positive}/20 replications")

    pooled_stage = batch.pooled_trade_stage_delta
    # Tolerance absorbs float rounding on sellers who net exactly zero.
    stage_neg = float(np.mean(pooled_stage < -1e-6))
    check.expect(stage_neg <= 0.01, f"transfer-stage losers fraction {stage_neg:.4f} > 1%")

    two_arm_neg = batch.negative_delta_fraction
    pooled = batch.pooled_delta
    skew = float(scipy_stats.skew(pooled[np.abs(pooled) > 1e-9]))
    check.note(f"mean gain {batch.mean_gain:,.0f}, median {batch.median_gain:,.0f}")
    check.note(f"transfer-stage losers: {stage_neg:.4%}; vs truthful-pick arm: {two_arm_neg:.4%}")
    check.note(f"nonzero-delta skewness {skew:+.3f} (left skew reported, not asserted)")


def criterion_13(check: CriterionResult) -> None:
    """Wealth ladder: gains rise with budget and bend logarithmically."""
    # scipy.stats costs about 0.5 s and 20 MB to import; only C12 and C13 use it.
    from scipy import stats as scipy_stats

    # The stated miniature (100 groups at ratio 1.01) spans budgets [1, 2.7]
    # against prices spanning thousands, which degenerates the experiment; a
    # range-preserving miniature strides the full ladder instead.  Both are
    # run; the stated one is reported, the faithful one asserted.
    stated = housing.WealthModel(
        kind="power-law", n_groups=100, base=1.01, agents_per_group=10
    )
    stride = housing.WealthModel(
        kind="power-law", n_groups=100, base=1.01**10, agents_per_group=10
    )
    for label, wealth, assertive in (("stated", stated, False), ("strided", stride, True)):
        cfg = housing.SimConfig(n_agents=1000, wealth=wealth)
        batch = housing.batch_run(cfg, 20, master_seed=777_000)
        budgets = np.concatenate([r.budgets0 for r in batch.reports])
        delta = batch.pooled_delta
        rho, pval = scipy_stats.spearmanr(budgets, delta)
        groups = np.concatenate([np.arange(1000) // 10 for _ in batch.reports])
        group_budget = np.array([budgets[groups == g][0] for g in range(100)])
        group_delta = np.array([float(delta[groups == g].mean()) for g in range(100)])
        r2 = {}
        for name, x in (("linear", group_budget), ("log", np.log(group_budget))):
            coef = np.polyfit(x, group_delta, 1)
            resid = group_delta - np.polyval(coef, x)
            r2[name] = 1.0 - float(resid @ resid) / float(
                ((group_delta - group_delta.mean()) ** 2).sum()
            )
        check.note(
            f"{label} ladder: spearman {rho:+.3f} (p={pval:.2g}), "
            f"R2 log {r2['log']:.3f} vs linear {r2['linear']:.3f}"
        )
        if assertive:
            check.expect(rho > 0, f"{label}: spearman {rho:+.4f} not positive")
            check.expect(
                r2["log"] > r2["linear"],
                f"{label}: log fit R2 {r2['log']:.3f} <= linear {r2['linear']:.3f}",
            )


def criterion_14(check: CriterionResult) -> None:
    """Friction sweep: gains fade monotonically and die past the bound.

    The zero-fee row must equal a plain run on the same seed, which is C12's
    first replication.
    """
    cfg = housing.SimConfig(n_agents=1000)
    seed = market.derive_seed(_DESK_MASTER_SEED, 0)
    inst = housing.generate_instance(cfg, seed)
    bound = housing.prohibitive_cost_bound(inst)
    taus = [0.0, 5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 150.0, 300.0, 1000.0, bound]
    rows = housing.transaction_cost_sweep(cfg, taus, seed)

    baseline_gain = housing.run_housing_sim(cfg, seed).total_gain
    check.expect(
        rows[0].total_gain == baseline_gain,
        f"zero-friction gain {rows[0].total_gain!r} != welfare run {baseline_gain!r}",
    )
    gains = [r.total_gain for r in rows]
    check.expect(
        all(b <= a + 1e-9 for a, b in zip(gains, gains[1:])),
        f"gain not nonincreasing along the sweep: {gains}",
    )
    check.expect(
        rows[-1].total_gain == 0.0 and rows[-1].trades == 0,
        f"prohibitive row gain {rows[-1].total_gain}, trades {rows[-1].trades}",
    )
    check.note("gains along sweep: " + ", ".join(f"{g:,.0f}" for g in gains))
    check.note(f"trades along sweep: {[r.trades for r in rows]}")


def criterion_15(check: CriterionResult) -> None:
    """Full-scale replication: fast, lean, and bit-for-bit reproducible."""
    cfg = housing.SimConfig(n_agents=10_000)
    tracemalloc.start()
    t0 = time.perf_counter()
    first = housing.run_housing_sim(cfg, seed=4096)
    first_time = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    t0 = time.perf_counter()
    second = housing.run_housing_sim(cfg, seed=4096)
    second_time = time.perf_counter() - t0

    check.expect(first_time < 600, f"first replication took {first_time:.1f}s")
    check.expect(second_time < 600, f"second replication took {second_time:.1f}s")
    check.expect(peak < 2e9, f"peak traced memory {peak / 1e9:.2f} GB")
    identical = (
        np.array_equal(first.delta, second.delta)
        and np.array_equal(first.transfers, second.transfers)
        and np.array_equal(first.final_assignment, second.final_assignment)
        and first.trades == second.trades
    )
    check.expect(identical, "replications with the same seed differ")
    check.note(
        f"times {first_time:.1f}s / {second_time:.1f}s, peak {peak / 1e6:.0f} MB, "
        f"{first.trade_count} trades, gain {first.total_gain:,.0f}"
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


_CRITERIA: list[tuple[str, str, Callable[[CriterionResult], None]]] = [
    ("C01", "paid swap beats plain picks and is a valid equilibrium point", criterion_01),
    ("C02", "bilateral trading can stall below the optimum", criterion_02),
    ("C03", "sequential transfers miss, then a latecomer rescues", criterion_03),
    ("C04", "grabbing the rival's favorite pays 20 + split*190", criterion_04),
    ("C05", "equilibrium transfers are welfare-optimal on 500 random markets", criterion_05),
    ("C06", "cycle trading after truthful picks is a no-op", criterion_06),
    ("C07", "identical preferences reduce trading to plain picks", criterion_07),
    ("C08", "every logged trade is mutually beneficial", criterion_08),
    ("C09", "feasible one-swap correction implies optimal play", criterion_09),
    ("C10", "two-player offers: closed form, monotonicity, decomposition", criterion_10),
    ("C11", "fee splits never flip a trade; small fees change nothing", criterion_11),
    ("C12", "desk-scale simulation gains are positive with (near) no losers", criterion_12),
    ("C13", "gains grow with budget, logarithmically", criterion_13),
    ("C14", "friction sweep: monotone decay to zero", criterion_14),
    ("C15", "full scale: fast, lean, reproducible", criterion_15),
]


def run_criterion(cid: str) -> CriterionResult:
    """Run one criterion on its own, printing nothing."""
    return run_paper_suite(only=[cid], printer=lambda line: None)[0]


def run_paper_suite(
    only: Iterable[str] | None = None,
    skip: Iterable[str] | None = None,
    printer: Callable[[str], None] = print,
) -> list[CriterionResult]:
    """Run the acceptance criteria in order, one summary line each.

    Each criterion runs on its own, so its result does not depend on which
    others ran.  An id in ``only`` or ``skip`` that names no criterion raises
    ``ValueError`` before anything runs.
    """
    wanted = set(only) if only else None
    skipped = set(skip) if skip else set()
    unknown = sorted(((wanted or set()) | skipped) - {cid for cid, _, _ in _CRITERIA})
    if unknown:
        raise ValueError(f"unknown criterion ids: {', '.join(map(repr, unknown))}")
    results = []
    for cid, title, fn in _CRITERIA:
        if (wanted is not None and cid not in wanted) or cid in skipped:
            continue
        result = CriterionResult(cid, title)
        t0 = time.perf_counter()
        fn(result)
        result.seconds = time.perf_counter() - t0
        results.append(result)
        printer(result.line())
        for line in result.details:
            printer(f"    {line}")
    return results
