"""Command-line interface.

Subcommands: ``mech run``, ``equilibrium solve``, ``oracle check``,
``two-agent solve``, ``two-agent first-mover``, ``sim housing``,
``sim sweep``, ``paper-suite``.  Results print as JSON (or CSV files for the
simulation commands); exit codes are 0 success, 2 usage error, 3 bad
input/precondition, 4 internal invariant breach.

A ``--config`` file (JSON object or ``key = value`` lines) supplies defaults
for the chosen subcommand; explicit flags override it, and unknown keys are
rejected as usage errors.  A malformed instance, endowment or config file is
bad input (exit 3).  ``RSD_MARKET_SEED`` supplies a seed when none is given;
failing that, a fresh seed is generated and logged so the run stays
replayable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import secrets
import sys
from pathlib import Path

import numpy as np

from . import equilibrium, housing, market, mechanisms, scenarios, suite, two_agent
from .errors import InternalInvariantError


def _emit(payload: dict, path: Path | None = None) -> None:
    """Print ``payload`` as JSON, or write it to ``path``, ``schema_version`` first."""
    text = json.dumps({"schema_version": market.SCHEMA_VERSION, **payload}, indent=2)
    if path is None:
        print(text)
    else:
        path.write_text(text + "\n")


def _env_seed() -> int | None:
    env = os.environ.get("RSD_MARKET_SEED")
    try:
        return int(env) if env else None
    except ValueError:
        raise ValueError(f"RSD_MARKET_SEED must be an integer, got {env!r}") from None


def _check_seeds(seed: int | None) -> None:
    """Refuse a negative seed from the flag or the environment, used or not."""
    for value in (seed, _env_seed()):
        if value is not None and value < 0:
            raise ValueError(f"seed must be nonnegative, got {value}")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = _env_seed()
    if seed is not None:
        return seed
    generated = secrets.randbits(48)
    print(f"note: no seed given; using generated seed {generated}", file=sys.stderr)
    return generated


def _parse_order(text: str, n_agents: int) -> tuple[int, ...]:
    return market.validate_order([int(x) for x in text.split(",")], n_agents)


def _load_market(args: argparse.Namespace) -> tuple[market.MarketInstance, tuple[int, ...] | None]:
    if getattr(args, "scenario", None):
        sc = scenarios.get_scenario(args.scenario)
        return sc.instance, sc.default_order
    if getattr(args, "instance", None):
        return market.load_instance(args.instance), None
    raise ValueError("provide --instance FILE or --scenario NAME")


def _allocation_json(allocation: market.Allocation) -> list[int | None]:
    return [None if i is None else int(i) for i in allocation.assignment]


# ---------------------------------------------------------------------------
# mech run
# ---------------------------------------------------------------------------


# The ``mech run`` settings as parser arguments; each default is written here only.
_SETTINGS = {
    "--lambda": dict(dest="surplus_split", type=float, default=0.5,
                     help="seller's share of the trade surplus"),
    "--floor": dict(dest="floor", choices=["on", "off"], default="on",
                    help="clamp seller reservations at zero"),
    "--mode": dict(dest="mode", choices=["fixed-point", "single-pass"], default="fixed-point"),
    "--tau": dict(dest="tau", default="none", help="transaction cost: none|fixed:X|prop:R"),
    "--agent-model": dict(dest="agent_model", choices=["myopic", "lookback-strategic"],
                          default="lookback-strategic"),
    "--budget-enforced": dict(dest="budget_enforced", choices=["on", "off"], default="off",
                              help="no trader pays more cash than it holds"),
}
# The settings each mechanism applies; any other must keep its default.  The
# serial dictatorships move no money, so a budget holds for them trivially.
_APPLIES = {
    "sd": {"--budget-enforced"},
    "rsd": {"--budget-enforced"},
    "rsd-ttc": {"--budget-enforced"},
    "expost-ce": set(),
    "expost-pairwise": {"--lambda", "--floor", "--mode", "--tau", "--budget-enforced"},
    "interim": {"--lambda", "--floor", "--agent-model", "--budget-enforced"},
}


def _cmd_mech_run(args: argparse.Namespace) -> int:
    name = args.mechanism
    cost = mechanisms.parse_cost(args.tau)
    # A fee is judged by what it charges: one that charges nothing is the default.
    unapplied = [
        flag for flag, spec in _SETTINGS.items()
        if flag not in _APPLIES[name] and getattr(args, spec["dest"]) != spec["default"]
        and (flag != "--tau" or cost.amount > 0)
    ]
    if unapplied:
        raise ValueError(f"mechanism {name} does not apply {', '.join(unapplied)}")
    if args.order and args.seed is not None:
        raise ValueError("--seed does not apply with --order")
    instance, default_order = _load_market(args)
    policy = mechanisms.TradePolicy(
        surplus_split=args.surplus_split,
        seller_reservation_floor=args.floor == "on",
        pairwise_mode=args.mode,
        budget_enforced=args.budget_enforced == "on",
    )

    seed_used: int | None = None
    if args.order:
        order = _parse_order(args.order, instance.n_agents)
    elif name == "rsd" or args.seed is not None or default_order is None:
        seed_used = _resolve_seed(args.seed)
        order = market.random_order(instance.n_agents, seed_used)
    else:
        order = default_order

    if name == "sd" or name == "rsd":
        outcome = mechanisms.serial_dictatorship(instance, order)
    elif name == "rsd-ttc":
        picks = mechanisms.serial_dictatorship(instance, order)
        outcome = market.zero_outcome(mechanisms.ttc(instance, picks.allocation))
    elif name == "expost-ce":
        outcome = mechanisms.expost_ce_transfers(instance, order)
    elif name == "expost-pairwise":
        outcome = mechanisms.expost_pairwise_transfers(instance, order, policy, cost)
    else:
        outcome = mechanisms.interim_transfers(instance, order, args.agent_model, policy)

    problems = market.validate_outcome(instance, outcome)
    if problems:
        raise InternalInvariantError("; ".join(problems))

    _emit(
        {
            "mechanism": name,
            "order": list(order),
            "seed": seed_used,
            "allocation": _allocation_json(outcome.allocation),
            "transfers": list(outcome.transfers),
            "trade_log": [dataclasses.asdict(rec) for rec in outcome.trade_log],
            "fees": [float(f) for f in outcome.seller_costs()],
            "utilities": [float(u) for u in market.utilities(instance, outcome)],
            "total_welfare": market.total_welfare(instance, outcome.allocation),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# equilibrium solve / oracle check
# ---------------------------------------------------------------------------


def _load_allocation(path: str, n_agents: int) -> market.Allocation:
    """An endowment file: a list of item ids or nulls, bare or under ``"assignment"``."""
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        payload = payload.get("assignment")
    if not isinstance(payload, list):
        raise ValueError('endowment must be a list, or an object with an "assignment" list')
    if len(payload) != n_agents:
        raise ValueError("endowment length does not match the instance")
    for x in payload:
        integral = isinstance(x, int) or (isinstance(x, float) and x.is_integer())
        if x is not None and (isinstance(x, bool) or not integral):
            raise ValueError(f"endowment entry {x!r} is not an item id or null")
    return market.Allocation(tuple(None if x is None else int(x) for x in payload))


def _cmd_equilibrium_solve(args: argparse.Namespace) -> int:
    instance, _ = _load_market(args)
    if args.endowment:
        endowment = _load_allocation(args.endowment, instance.n_agents)
        items = endowment.items()
        if not items:
            raise ValueError("endowment assigns no items")
        allocation = equilibrium.max_welfare_allocation(instance, items)
    else:
        allocation = equilibrium.max_welfare_allocation(instance)
        endowment = allocation
    prices = equilibrium.ce_prices(instance, endowment, allocation)
    transfers = equilibrium.transfers_from_prices(endowment, allocation, prices)
    _emit(
        {
            "allocation": _allocation_json(allocation),
            "endowment": _allocation_json(endowment),
            "prices": [float(p) for p in prices.prices],
            "transfers": list(transfers),
            "welfare": market.total_welfare(instance, allocation),
            "verified": equilibrium.verify_ce(instance, endowment, allocation, prices),
        }
    )
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    instance, _ = _load_market(args)
    brute_alloc, brute_welfare = equilibrium.brute_force_optimal(instance)
    solver_alloc = equilibrium.max_welfare_allocation(instance)
    solver_welfare = market.total_welfare(instance, solver_alloc)
    _emit(
        {
            "optimal_welfare": brute_welfare,
            "optimal_allocation": _allocation_json(brute_alloc),
            "solver_welfare": solver_welfare,
            "solver_allocation": _allocation_json(solver_alloc),
            "agreement": abs(solver_welfare - brute_welfare) <= 1e-9,
            "allocation_agreement": solver_alloc == brute_alloc,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# two-agent
# ---------------------------------------------------------------------------


def _dist(args: argparse.Namespace, slot: str) -> two_agent.ValueDistribution:
    spec = getattr(args, f"dist_{slot}", None) or args.dist
    return two_agent.parse_distribution(spec)


def _cmd_two_agent_solve(args: argparse.Namespace) -> int:
    if args.seed is not None and not args.draws:
        raise ValueError("--seed applies only with --draws")
    f1a, f1b = _dist(args, "1a"), _dist(args, "1b")
    f2a, f2b = _dist(args, "2a"), _dist(args, "2b")
    offer = two_agent.optimal_offer(args.v2a, args.v2b, f1a, f1b)
    payload = {
        "t_star": offer.t_star,
        "expected_payoff": offer.expected_payoff,
        "acceptance_probability": offer.acceptance,
        "no_offer_probability": two_agent.no_offer_probability(f2b, f2a),
    }
    if args.draws:
        seed = _resolve_seed(args.seed)
        dist = two_agent.offer_distribution(f2a, f2b, f1a, f1b, "B", args.draws, seed)
        offers = dist.offers
        payload["offer_distribution"] = {
            "seed": seed,
            "draws": args.draws,
            "conditional_draws": int(offers.size),
            "mean_offer": float(offers.mean()) if offers.size else None,
            "offer_quartiles": (
                [float(q) for q in np.percentile(offers, [25, 50, 75])] if offers.size else None
            ),
        }
    _emit(payload)
    return 0


def _cmd_two_agent_first_mover(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    result = two_agent.first_mover_expected_utility(
        args.v1a,
        args.v1b,
        _dist(args, "2a"),
        _dist(args, "2b"),
        _dist(args, "1a"),
        _dist(args, "1b"),
        args.draws,
        seed,
    )
    _emit(
        {
            "seed": seed,
            "draws": args.draws,
            "eu_choose_a": result.eu_choose_a,
            "eu_choose_b": result.eu_choose_b,
            "se_choose_a": result.se_choose_a,
            "se_choose_b": result.se_choose_b,
            "best_choice": result.best_choice,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_sim_housing(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = housing.SimConfig(
        n_agents=args.agents,
        wealth=housing.parse_wealth(args.wealth),
        cost=mechanisms.parse_cost(args.tau),
    )
    batch = housing.batch_run(config, args.reps, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    first = batch.reports[0]
    _write_csv(
        out / "deltas.csv",
        ["agent", "budget0", "welfare_baseline", "welfare_treatment", "delta"],
        (
            (j, repr(float(first.budgets0[j])), repr(float(first.welfare_baseline[j])),
             repr(float(first.welfare_treatment[j])), repr(float(first.delta[j])))
            for j in range(config.n_agents)
        ),
    )
    _write_csv(
        out / "trades.csv",
        ["step", "buyer", "seller", "room_sold", "room_given", "price", "cost"],
        (
            (r.step, r.proposer, r.counterparty, r.item_acquired, r.item_given,
             repr(r.price), repr(r.cost))
            for r in first.trades
        ),
    )
    counts, edges = np.histogram(batch.pooled_delta, bins=housing.DELTA_HISTOGRAM_BINS)
    report = {
        "master_seed": seed,
        "n_agents": config.n_agents,
        "wealth": args.wealth,
        "tau": args.tau,
        "replications": len(batch.reports),
        "per_rep_total_gain": [r.total_gain for r in batch.reports],
        "per_rep_trades": [r.trade_count for r in batch.reports],
        "mean_total_gain": batch.mean_gain,
        "median_total_gain": batch.median_gain,
        "negative_delta_fraction": batch.negative_delta_fraction,
        "negative_trade_stage_fraction": batch.negative_trade_stage_fraction,
        "fees_collected": [r.fees_collected for r in batch.reports],
        "delta_histogram": {
            "counts": [int(c) for c in counts],
            "edges": [float(e) for e in edges],
        },
    }
    _emit(report, out / "report.json")
    _emit(
        {
            "out_dir": str(out),
            "files": ["report.json", "deltas.csv", "trades.csv"],
            "master_seed": seed,
            "mean_total_gain": batch.mean_gain,
            "trades": [r.trade_count for r in batch.reports],
        }
    )
    return 0


def _cmd_sim_sweep(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    kind, _, amounts = args.tau_list.partition(":")
    try:
        cost = mechanisms.parse_cost(f"{kind}:0")
        taus = [float(x) for x in amounts.split(",")]
    except ValueError:
        raise ValueError(
            f"malformed --tau-list {args.tau_list!r}; expected fixed:X,Y,... or prop:R,S,..."
        ) from None
    config = housing.SimConfig(
        n_agents=args.agents,
        wealth=housing.parse_wealth(args.wealth),
        cost=cost,
    )
    rows = housing.transaction_cost_sweep(config, taus, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "sweep.csv",
        ["tau", "mode", "total_gain", "trades"],
        ((repr(r.tau), cost.kind, repr(r.total_gain), r.trades) for r in rows),
    )
    _emit(
        {
            "out_dir": str(out),
            "files": ["sweep.csv"],
            "seed": seed,
            "rows": [
                {"tau": r.tau, "mode": cost.kind, "total_gain": r.total_gain, "trades": r.trades}
                for r in rows
            ],
        }
    )
    return 0


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None
    skip = args.skip.split(",") if args.skip else None
    results = suite.run_paper_suite(only=only, skip=skip)
    if args.out:
        payload = {
            "results": [
                {
                    "id": r.cid,
                    "title": r.title,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "details": r.details,
                }
                for r in results
            ],
        }
        _emit(payload, Path(args.out))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsd-market",
        description="Serial dictatorship with monetary transfers: mechanisms, "
        "equilibrium prices, bargaining analysis, and market simulation.",
    )
    parser.add_argument("--config", help="JSON or key=value file with defaults for the subcommand")
    sub = parser.add_subparsers(dest="group", required=True)

    def instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--instance", help="market instance JSON file")
        p.add_argument("--scenario", help=f"built-in scenario ({', '.join(scenarios.scenario_names())})")

    def dist_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist", default="uniform:0,1",
                       help="value distribution spec, e.g. uniform:0,1 or truncnorm:0,1,0.5,0.2")
        for slot in ("1a", "1b", "2a", "2b"):
            p.add_argument(f"--dist-{slot}", dest=f"dist_{slot}", help=f"override for slot {slot}")

    mech = sub.add_parser("mech", help="run an allocation mechanism").add_subparsers(
        dest="action", required=True
    )
    run = mech.add_parser("run", help="run one mechanism and print the outcome")
    instance_flags(run)
    run.add_argument("--mechanism", required=True, choices=list(_APPLIES))
    run.add_argument("--order", help="comma-separated pick order, e.g. 0,2,1")
    run.add_argument("--seed", type=int, help="seed for a random pick order; not with --order")
    for flag, spec in _SETTINGS.items():
        run.add_argument(flag, **spec)
    run.set_defaults(handler=_cmd_mech_run)

    eq = sub.add_parser("equilibrium", help="assignment-market equilibrium").add_subparsers(
        dest="action", required=True
    )
    solve = eq.add_parser("solve", help="welfare-optimal allocation and supporting prices")
    instance_flags(solve)
    solve.add_argument("--endowment", help="JSON file with an endowment assignment")
    solve.set_defaults(handler=_cmd_equilibrium_solve)

    oracle = sub.add_parser("oracle", help="brute-force welfare oracle").add_subparsers(
        dest="action", required=True
    )
    oc = oracle.add_parser("check", help="compare the solver against enumeration")
    instance_flags(oc)
    oc.set_defaults(handler=_cmd_oracle_check)

    two = sub.add_parser("two-agent", help="two-player bargaining analysis").add_subparsers(
        dest="action", required=True
    )
    solve2 = two.add_parser("solve", help="optimal offer for the second mover")
    dist_flags(solve2)
    solve2.add_argument("--v2a", type=float, required=True)
    solve2.add_argument("--v2b", type=float, required=True)
    solve2.add_argument("--draws", type=int, default=0)
    solve2.add_argument("--seed", type=int)
    solve2.set_defaults(handler=_cmd_two_agent_solve)

    fm = two.add_parser("first-mover", help="expected utility of the first pick")
    dist_flags(fm)
    fm.add_argument("--v1a", type=float, required=True)
    fm.add_argument("--v1b", type=float, required=True)
    fm.add_argument("--draws", type=int, default=100_000,
                    help="opponent value pairs, one sample shared by both picks")
    fm.add_argument("--seed", type=int)
    fm.set_defaults(handler=_cmd_two_agent_first_mover)

    sim = sub.add_parser("sim", help="housing-market simulation").add_subparsers(
        dest="action", required=True
    )
    sh = sim.add_parser("housing", help="run replications and write reports")
    sh.add_argument("--agents", type=int, default=10_000)
    sh.add_argument("--seed", type=int)
    sh.add_argument("--wealth", default="equal:10000",
                    help="equal:AMOUNT or powerlaw:GROUPS,BASE,PER_GROUP")
    sh.add_argument("--tau", default="none", help="transaction cost: none|fixed:X|prop:R")
    sh.add_argument("--reps", type=int, default=1)
    sh.add_argument("--out", default="housing_out")
    sh.set_defaults(handler=_cmd_sim_housing)

    sweep = sim.add_parser("sweep", help="transaction-cost sweep on a shared seed")
    sweep.add_argument("--agents", type=int, default=1000)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--wealth", default="equal:10000")
    sweep.add_argument("--tau-list", dest="tau_list", required=True,
                       help="fixed:X,Y,... or prop:R,S,...; finite, nonnegative, sorted amounts")
    sweep.add_argument("--out", default="sweep_out")
    sweep.set_defaults(handler=_cmd_sim_sweep)

    ps = sub.add_parser("paper-suite", help="run every release criterion")
    ps.add_argument("--only", help="comma-separated criterion ids, e.g. C01,C05")
    ps.add_argument("--skip", help="comma-separated criterion ids to skip")
    ps.add_argument("--out", help="write a JSON report here")
    ps.set_defaults(handler=_cmd_paper_suite)

    return parser


_TWO_LEVEL = {"mech", "equilibrium", "oracle", "two-agent", "sim"}
_CONFIG_KEY = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


def _config_tokens(path: str) -> list[str]:
    """Flag tokens from a config file; ``ValueError`` if the file is malformed.

    Keys must look like flag names and JSON values must be strings or
    numbers; whether a key is a flag of the subcommand, and whether its value
    parses, is left to the argument parser, as for flags on the command line.
    """
    text = Path(path).read_text()
    entries: dict[str, object] = {}
    if text.lstrip().startswith(("{", "[", '"')):
        entries = json.loads(text)
        if not isinstance(entries, dict):
            raise ValueError("a JSON config file must hold an object")
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {line!r}")
            entries[key.strip()] = value.strip()
    tokens: list[str] = []
    for key, value in entries.items():
        if not _CONFIG_KEY.fullmatch(key):
            raise ValueError(f"malformed config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config value for {key!r} must be a string or a number")
        tokens.append("--" + key.replace("_", "-"))
        tokens.append(str(value))
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file values in right after the subcommand, so explicit
    command-line flags (parsed later) override them."""
    path: str | None = None
    cleaned: list[str] = []
    skip_next = False
    for idx, token in enumerate(argv):
        if skip_next:
            skip_next = False
            continue
        if token == "--config":
            if idx + 1 >= len(argv):
                raise ValueError("--config requires a path")
            path = argv[idx + 1]
            skip_next = True
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
        else:
            cleaned.append(token)
    if path is None:
        return argv
    tokens = _config_tokens(path)
    insert_at = 0
    positionals = 0
    for idx, token in enumerate(cleaned):
        if token.startswith("-"):
            continue
        positionals += 1
        insert_at = idx + 1
        if positionals == 1 and token not in _TWO_LEVEL:
            break
        if positionals == 2:
            break
    return cleaned[:insert_at] + tokens + cleaned[insert_at:]


def dispatch(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        if "seed" in vars(args):
            _check_seeds(args.seed)
        return args.handler(args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return int(code) if code else 0
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
