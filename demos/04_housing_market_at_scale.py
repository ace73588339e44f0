"""A desk-scale housing market: who gains from the aftermarket, and what
frictions cost.

Runs the two-arm simulation (truthful picks vs resale-informed picks plus a
budget-constrained aftermarket), then repeats the experiment on an unequal
wealth ladder, and finally sweeps a fixed per-trade fee upward until all
trading dies.
"""

import numpy as np
from scipy import stats

from rsd_market import SimConfig, WealthModel, batch_run, run_housing_sim, transaction_cost_sweep
from rsd_market.housing import generate_instance, prohibitive_cost_bound

N_AGENTS = 1000
SEED = 2026

# %% Equal budgets: the transfer stage only creates winners.
config = SimConfig(n_agents=N_AGENTS)
report = run_housing_sim(config, SEED)
print(f"agents/rooms: {N_AGENTS}, trades executed: {report.trade_count}")
print(f"total welfare gain over truthful picks: {report.total_gain:,.0f}")
print(f"gain from the transfer stage alone:     {report.trade_stage_gain:,.0f}")
print(f"agents hurt by the transfer stage:      "
      f"{int((report.trade_stage_delta < -1e-6).sum())}")
print(f"agents below the truthful-pick arm:     {int((report.delta < 0).sum())} "
      "(pick-stage noise, see README)")

q = np.percentile(report.trade_stage_delta[report.trade_stage_delta > 1e-6], [25, 50, 75])
print(f"gain quartiles among traders: {q.round(1).tolist()}")

# %% Unequal budgets: gains rise with wealth, but logarithmically.
ladder = WealthModel(kind="power-law", n_groups=100, base=1.01**10, agents_per_group=10)
wealth_batch = batch_run(SimConfig(n_agents=N_AGENTS, wealth=ladder), 10, master_seed=SEED)
budgets = np.concatenate([r.budgets0 for r in wealth_batch.reports])
delta = wealth_batch.pooled_delta
rho, _ = stats.spearmanr(budgets, delta)
print()
print(f"wealth ladder spans [{budgets.min():.0f}, {budgets.max():.0f}] dollars")
print(f"rank correlation between budget and welfare gain: {rho:+.3f}")
groups = np.concatenate([np.arange(N_AGENTS) // 10 for _ in wealth_batch.reports])
for g in (0, 25, 50, 75, 99):
    sel = groups == g
    print(f"  group {g:3d} (budget {budgets[sel][0]:10,.1f}): "
          f"mean gain {delta[sel].mean():8.1f}")
print("doubling a big budget buys much less than doubling a small one.")

# %% Frictions: a fixed per-trade fee thins the market monotonically.
print()
bound = prohibitive_cost_bound(generate_instance(config, SEED))
taus = [0.0, 10.0, 40.0, 90.0, 150.0, 300.0, bound]
print("fixed fee | total gain | trades")
for row in transaction_cost_sweep(config, taus, SEED):
    print(f"{row.tau:9,.0f} | {row.total_gain:10,.0f} | {row.trades}")
print("past the prohibitive bound the market is plain serial dictatorship again.")
