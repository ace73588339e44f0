"""Scenario catalog integrity and the command-line front door."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsd_market.cli import dispatch
from rsd_market.housing import SimConfig, transaction_cost_sweep
from rsd_market.market import MarketInstance, save_instance
from rsd_market.mechanisms import TransactionCost
from rsd_market.scenarios import get_scenario, scenario_names


class TestScenarioCatalog:
    # Hard-coded copies of the payoff tables the scenarios must reproduce.
    TABLES = {
        "example-3.1": ([[2, 1], [10, 1]], [5, 5]),
        "example-4.1": ([[5, 0, 10], [0, 4, 0], [-10, 0, 5]], [0, 0, 0]),
        "example-5.1": ([[10, 9, 0], [0, 10, 9], [4, 0, 1]], [0, 0, 0]),
        "example-5.2": (
            [[10, 9, 0, 0], [0, 10, 9, 0], [4, 0, 1, 0], [0, 0, 100, 0]],
            [0, 0, 0, 0],
        ),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_matrices_entry_for_entry(self, name):
        values, budgets = self.TABLES[name]
        sc = get_scenario(name)
        assert sc.instance.dense_matrix().tolist() == [[float(v) for v in r] for r in values]
        assert sc.instance.budgets.tolist() == [float(b) for b in budgets]

    def test_resale_scenario_entries(self):
        sc = get_scenario("example-4.2")
        m = sc.instance.dense_matrix()
        assert m[0, 0] == 20.0 and m[1, 1] == 200.0
        mask = np.ones_like(m, dtype=bool)
        mask[0, 0] = mask[1, 1] = False
        assert np.all(m[mask] == 10.0)
        assert sc.instance.budgets[1] == 500.0

    def test_catalog_names(self):
        assert set(scenario_names()) == {
            "example-3.1",
            "example-4.1",
            "example-4.2",
            "example-5.1",
            "example-5.2",
            "identical-preferences",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_scenario("example-9.9")


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


MECHANISMS = ["sd", "rsd", "rsd-ttc", "expost-ce", "expost-pairwise", "interim"]
# The settings each mechanism applies, spelled out here independently of the
# command line; any other setting must keep its default, or the run exits 3.
APPLIES = {
    "sd": {"--budget-enforced"},
    "rsd": {"--budget-enforced"},
    "rsd-ttc": {"--budget-enforced"},
    "expost-ce": set(),
    "expost-pairwise": {"--lambda", "--floor", "--mode", "--tau", "--budget-enforced"},
    "interim": {"--lambda", "--floor", "--agent-model", "--budget-enforced"},
}
DEFAULTS = {
    "--lambda": "0.5",
    "--floor": "on",
    "--mode": "fixed-point",
    "--tau": "none",
    "--agent-model": "lookback-strategic",
    "--budget-enforced": "off",
}
# A value each ``mech run`` setting can take other than its default.
NON_DEFAULT = {
    "--lambda": "0.2",
    "--floor": "off",
    "--mode": "single-pass",
    "--tau": "fixed:40",
    "--agent-model": "myopic",
    "--budget-enforced": "on",
}


def _mech(mechanism, *flags):
    return ["mech", "run", "--mechanism", mechanism, "--scenario", "example-3.1",
            "--order", "0,1", *flags]


class TestDispatch:
    def test_mech_run_scenario(self, capsys):
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "sd", "--scenario", "example-3.1",
             "--order", "0,1"],
        )
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["utilities"] == [7.0, 6.0]

    def test_mech_run_instance_file(self, capsys, tmp_path):
        sc = get_scenario("example-3.1")
        path = tmp_path / "m.json"
        save_instance(sc.instance, path)
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "expost-ce", "--instance", str(path),
             "--order", "0,1"],
        )
        assert code == 0
        assert payload["allocation"] == [1, 0]
        assert payload["total_welfare"] == 11.0

    def test_single_pass_unfloored_downgrade(self, capsys, tmp_path):
        # A seller who prefers the proposer's room pays the proposer 23 to
        # swap; single-pass offers that trade once the floor is off.
        path = tmp_path / "m.json"
        save_instance(MarketInstance.from_matrix([[-4, -4], [21, -2]]), path)
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "expost-pairwise", "--instance", str(path),
             "--order", "0,1", "--lambda", "0", "--floor", "off", "--mode", "single-pass"],
        )
        assert code == 0
        assert payload["allocation"] == [1, 0]
        assert payload["transfers"] == [23.0, -23.0]
        assert [(t["proposer"], t["price"]) for t in payload["trade_log"]] == [(0, -23.0)]

    def test_fee_run_prints_the_trade_record_and_api_utilities(self, capsys):
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "expost-pairwise", "--scenario", "example-3.1",
             "--order", "0,1", "--tau", "fixed:2"],
        )
        assert code == 0
        assert [list(t) for t in payload["trade_log"]] == [
            ["step", "proposer", "counterparty", "item_acquired", "item_given", "price", "cost"]
        ]
        assert payload["fees"] == [2.0, 0.0]
        assert payload["utilities"] == [10.0, 9.0]

    @pytest.mark.parametrize(
        "argv, env_seed, named",
        [
            (_mech("interim", "--tau", "fixed:40"), None, ["--tau", "interim"]),
            (_mech("sd", "--tau", "prop:0.1"), None, ["--tau", "sd"]),
            (_mech("sd", "--tau", "fixed:0.5"), None, ["--tau", "sd"]),
            (_mech("expost-ce", "--tau", "fixed:1"), None, ["--tau", "expost-ce"]),
            (_mech("expost-ce", "--budget-enforced", "on"), None,
             ["--budget-enforced", "expost-ce"]),
            # The serial dictatorships and expost-ce apply none of these four.
            *[
                (_mech(mechanism, flag, NON_DEFAULT[flag]), None, [flag, mechanism])
                for mechanism in ["sd", "rsd", "rsd-ttc", "expost-ce"]
                for flag in ["--lambda", "--floor", "--mode", "--agent-model"]
            ],
            (_mech("expost-pairwise", "--agent-model", "myopic"), None,
             ["--agent-model", "expost-pairwise"]),
            (_mech("interim", "--mode", "single-pass"), None, ["--mode", "interim"]),
            (_mech("sd", "--mode", "single-pass", "--agent-model", "myopic", "--lambda", "0.2",
                   "--floor", "off"), None,
             ["sd", "--lambda", "--floor", "--mode", "--agent-model"]),
            # A seed is checked whether or not the run uses it, and an explicit
            # seed the run cannot use is refused.
            (_mech("sd", "--seed", "-1"), None, ["seed must be nonnegative"]),
            (_mech("sd", "--seed", "5"), None, ["--seed", "--order"]),
            (_mech("sd"), "-1", ["seed must be nonnegative"]),
            (["mech", "run", "--mechanism", "sd", "--scenario", "example-3.1"], "-1",
             ["seed must be nonnegative"]),
            (["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4", "--seed", "-1"], None,
             ["seed must be nonnegative"]),
            (["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4", "--seed", "3"], None,
             ["--seed", "--draws"]),
            (["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4"], "-1",
             ["seed must be nonnegative"]),
            (["two-agent", "first-mover", "--v1a", "0.7", "--v1b", "0.4", "--seed", "3"], "abc",
             ["RSD_MARKET_SEED", "'abc'"]),
        ],
    )
    def test_settings_the_mechanism_cannot_apply_are_exit_3(
        self, monkeypatch, argv, env_seed, named
    ):
        if env_seed is None:
            monkeypatch.delenv("RSD_MARKET_SEED", raising=False)
        else:
            monkeypatch.setenv("RSD_MARKET_SEED", env_seed)
        code, out, err = _run_captured(argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert all(word in err for word in named), err

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_settings_at_their_defaults_run_with_every_mechanism(self, mechanism):
        defaults = [word for setting in DEFAULTS.items() for word in setting]
        code, out, err = _run_captured(_mech(mechanism, *defaults))
        assert (code, err) == (0, "")
        assert (code, out, err) == _run_captured(_mech(mechanism))

    @pytest.mark.parametrize("mechanism", ["sd", "interim", "expost-ce"])
    @pytest.mark.parametrize("tau", ["fixed:0", "prop:0"])
    def test_fee_that_charges_nothing_runs_as_none(self, mechanism, tau):
        # A fee is refused by what it charges, not by how it is spelled.
        argv = ["mech", "run", "--mechanism", mechanism, "--scenario", "example-5.2", "--tau"]
        code, out, err = _run_captured(argv + [tau])
        assert (code, err) == (0, "")
        assert (code, out, err) == _run_captured(argv + ["none"])

    def test_numeric_mode_is_a_usage_error(self):
        code, out, err = _run_captured(
            ["mech", "run", "--mechanism", "sd", "--scenario", "example-3.1", "--order", "0,1",
             "--numeric-mode", "integer"]
        )
        assert code == 2 and out == "" and "--numeric-mode" in err

    def test_cost_has_one_spelling_per_kind(self, capsys):
        argv = ["mech", "run", "--mechanism", "expost-pairwise", "--scenario", "example-3.1",
                "--order", "0,1", "--tau"]
        code = dispatch(argv + ["proportional:0.1"])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and "error: " in err
        code, payload = run_json(capsys, argv + ["prop:0.1"])
        assert code == 0 and payload["fees"] != [0.0, 0.0]

    def test_tau_none_runs_and_logs_zero_fees(self, capsys):
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "expost-pairwise", "--scenario", "example-3.1",
             "--order", "0,1", "--tau", "none"],
        )
        assert code == 0
        assert [t["cost"] for t in payload["trade_log"]] == [0.0]
        assert payload["fees"] == [0.0, 0.0]

    @pytest.mark.parametrize("mechanism", ["sd", "rsd", "rsd-ttc"])
    def test_budget_flag_is_accepted_where_no_money_moves(self, capsys, mechanism):
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", mechanism, "--scenario", "example-3.1",
             "--seed", "3", "--budget-enforced", "on"],
        )
        assert code == 0
        assert payload["transfers"] == [0.0, 0.0]

    def test_interim_budget_binds(self, capsys, tmp_path):
        # Agent 1 holds cash 1, so it cannot pay 52 for agent 0's room.
        path = tmp_path / "m.json"
        save_instance(MarketInstance.from_matrix([[5, 0], [100, 1]], [0, 1]), path)
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "interim", "--instance", str(path),
             "--order", "0,1", "--lambda", "0.5", "--budget-enforced", "on"],
        )
        assert code == 0
        assert payload["transfers"] == [0.0, 0.0]
        assert payload["trade_log"] == []

    @pytest.mark.parametrize("mode", ["fixed-point", "single-pass"])
    def test_unfloored_seller_budget_binds(self, capsys, tmp_path, mode):
        # Agent 1 would pay agent 0 23 to take its room, but holds no cash;
        # agent 1 then buys agent 0's room at agent 0's reservation, 0.
        path = tmp_path / "m.json"
        save_instance(MarketInstance.from_matrix([[-4, -4], [21, -2]], [0, 0]), path)
        code, payload = run_json(
            capsys,
            ["mech", "run", "--mechanism", "expost-pairwise", "--instance", str(path),
             "--order", "0,1", "--lambda", "0", "--floor", "off", "--mode", mode,
             "--budget-enforced", "on"],
        )
        assert code == 0
        assert payload["allocation"] == [1, 0]
        assert payload["transfers"] == [0.0, 0.0]
        assert [(t["proposer"], t["price"]) for t in payload["trade_log"]] == [(1, 0.0)]

    def test_usage_error_is_exit_2(self, capsys):
        assert dispatch(["mech", "run", "--mechanism", "warp-drive"]) == 2
        assert dispatch(["definitely-not-a-command"]) == 2

    def test_domain_error_is_exit_3(self, capsys):
        code = dispatch(
            ["two-agent", "solve", "--v2a", "0.1", "--v2b", "0.9"]
        )
        assert code == 3

    def test_oracle_check(self, capsys):
        code, payload = run_json(capsys, ["oracle", "check", "--scenario", "example-5.1"])
        assert code == 0
        assert payload["optimal_welfare"] == 22.0
        assert payload["agreement"] is True
        assert payload["allocation_agreement"] is True
        assert payload["solver_allocation"] == [1, 2, 0]

    def test_oracle_check_all_equal_instance(self, capsys, tmp_path):
        inst = tmp_path / "m.json"
        save_instance(MarketInstance.from_matrix(np.full((3, 3), 5.0)), inst)
        code, payload = run_json(capsys, ["oracle", "check", "--instance", str(inst)])
        assert code == 0
        assert payload["allocation_agreement"] is True
        assert payload["solver_allocation"] == payload["optimal_allocation"] == [0, 1, 2]

    def test_equilibrium_solve_with_endowment(self, capsys, tmp_path):
        sc = get_scenario("example-3.1")
        inst = tmp_path / "m.json"
        save_instance(sc.instance, inst)
        endow = tmp_path / "e.json"
        endow.write_text(json.dumps({"assignment": [0, 1]}))
        code, payload = run_json(
            capsys,
            ["equilibrium", "solve", "--instance", str(inst), "--endowment", str(endow)],
        )
        assert code == 0
        assert payload["prices"] == [1.0, 0.0]
        assert payload["transfers"] == [1.0, -1.0]
        assert payload["verified"] is True

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 0.0], [0.0, 3.0]],  # the unassigned agent wants the unpicked item
            [[1.0, 5.0], [0.0, 0.0]],  # the holder prefers the unpicked item
        ],
    )
    def test_equilibrium_solve_without_supporting_prices_is_exit_3(
        self, capsys, tmp_path, values
    ):
        inst = tmp_path / "m.json"
        save_instance(MarketInstance.from_matrix(values), inst)
        endow = tmp_path / "e.json"
        endow.write_text(json.dumps([0, None]))
        code = dispatch(
            ["equilibrium", "solve", "--instance", str(inst), "--endowment", str(endow)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "no supporting prices" in captured.err

    def test_expost_ce_without_supporting_prices_is_exit_3(self, capsys, tmp_path):
        # Agent 1 would pay 23 more for item 0, and agent 0 would give it up
        # for the unpicked item 1, which is free: no prices support the picks.
        inst = tmp_path / "m.json"
        inst.write_text(json.dumps(
            {"n_agents": 2, "n_items": 4, "valuations": [[16, 14, -10, 9], [42, 16, 19, -5]]}
        ))
        code = dispatch(["mech", "run", "--mechanism", "expost-ce", "--instance", str(inst),
                         "--order", "0,1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and "Traceback" not in captured.err
        assert "no supporting prices exist with unpicked items pinned at zero" in captured.err

    def test_two_agent_solve(self, capsys):
        code, payload = run_json(
            capsys, ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.1"]
        )
        assert code == 0
        assert 0.0 <= payload["t_star"] <= 1.0
        assert payload["no_offer_probability"] == pytest.approx(0.5, abs=1e-9)

    def test_two_agent_solve_draws_keys(self, capsys):
        code, payload = run_json(
            capsys,
            ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4", "--draws", "100", "--seed", "1"],
        )
        assert code == 0
        assert set(payload["offer_distribution"]) == {
            "seed", "draws", "conditional_draws", "mean_offer", "offer_quartiles"
        }

    def test_negative_budget_is_exit_3(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n_agents": 2, "n_items": 2, "valuations": [[1, 0], [20, 0]],
                                    "budgets": [-50, 100]}))
        code, out, err = _run_captured(["mech", "run", "--instance", str(path), "--order", "0,1",
                                        "--mechanism", "expost-pairwise", "--floor", "on",
                                        "--budget-enforced", "on"])
        assert code == 3 and out == "" and "Traceback" not in err
        assert "budgets must be finite and nonnegative" in err

    def test_two_agent_solve_upper_tail_truncnorm(self, capsys):
        code, payload = run_json(
            capsys,
            ["two-agent", "solve", "--dist", "truncnorm:10,11,0,1",
             "--v2a", "10.9", "--v2b", "10.1"],
        )
        assert code == 0
        keys = ("t_star", "expected_payoff", "acceptance_probability", "no_offer_probability")
        assert all(np.isfinite(payload[k]) for k in keys)

    def test_truncnorm_without_mass_is_exit_3(self, capsys):
        code = dispatch(
            ["two-agent", "solve", "--dist", "truncnorm:40,41,0,1",
             "--v2a", "40.9", "--v2b", "40.1"]
        )
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_equal_values_offer_zero(self, capsys):
        code, payload = run_json(capsys, ["two-agent", "solve", "--v2a", "0.5", "--v2b", "0.5"])
        assert code == 0 and payload["t_star"] == 0.0

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
    def test_first_mover_constant_branch_has_zero_se(self, capsys, seed):
        # After pick A every offer falls short of 0.7 - 0.4, so the pick keeps
        # 0.7 on every draw: no spread, and an SE of exactly 0.
        code, payload = run_json(
            capsys,
            ["two-agent", "first-mover", "--dist", "truncnorm:0,1,0.6,0.2", "--v1a", "0.7",
             "--v1b", "0.4", "--draws", "20000", "--seed", seed],
        )
        assert code == 0
        assert (payload["eu_choose_a"], payload["se_choose_a"]) == (0.7, 0.0)
        assert payload["se_choose_b"] > 0.0

    def test_first_mover(self, capsys):
        code, payload = run_json(
            capsys,
            ["two-agent", "first-mover", "--v1a", "0.9", "--v1b", "0.2",
             "--draws", "5000", "--seed", "3"],
        )
        assert code == 0
        assert payload["best_choice"] in ("A", "B")
        assert payload["seed"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--dist", "truncnorm:0,1,0.5,nan", "--v2a", "0.9", "--v2b", "0.1"],
            ["solve", "--dist", "truncnorm:0,1,nan,0.2", "--v2a", "0.9", "--v2b", "0.1"],
            ["solve", "--dist", "truncnorm:0,1,0.5,inf", "--v2a", "0.9", "--v2b", "0.1"],
            ["solve", "--dist", "uniform:0,inf", "--v2a", "0.9", "--v2b", "0.1"],
            ["solve", "--dist-2b", "point:nan", "--v2a", "0.9", "--v2b", "0.1"],
            ["solve", "--v2a", "nan", "--v2b", "0.1"],
            ["solve", "--v2a", "0.9", "--v2b=-inf", "--draws", "100", "--seed", "1"],
            ["first-mover", "--v1a", "nan", "--v1b", "0.4", "--draws", "100", "--seed", "1"],
            ["first-mover", "--v1a", "0.7", "--v1b", "inf", "--draws", "100", "--seed", "1"],
        ],
    )
    def test_nonfinite_two_agent_input_is_exit_3(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(["two-agent", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert [str(w.message) for w in caught] == []

    def test_env_seed_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("RSD_MARKET_SEED", "424242")
        code, payload = run_json(
            capsys,
            ["two-agent", "first-mover", "--v1a", "0.5", "--v1b", "0.4",
             "--draws", "1000"],
        )
        assert code == 0
        assert payload["seed"] == 424242

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["mech", "run", "--mechanism", "rsd", "--scenario", "example-3.1"],
            ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4", "--draws", "100"],
            ["two-agent", "first-mover", "--v1a", "0.7", "--v1b", "0.4", "--draws", "100"],
            ["sim", "housing", "--agents", "20"],
            ["sim", "sweep", "--agents", "20", "--tau-list", "fixed:0,10"],
        ],
        ids=["mech-run", "two-agent-solve", "first-mover", "sim-housing", "sim-sweep"],
    )
    def test_negative_seed_is_exit_3(self, tmp_path, monkeypatch, argv, source):
        out_dir = tmp_path / "out"
        if argv[0] == "sim":
            argv = [*argv, "--out", str(out_dir)]
        if source == "flag":
            argv = [*argv, "--seed", "-1"]
        else:
            monkeypatch.setenv("RSD_MARKET_SEED", "-1")
        code, out, err = _run_captured(argv)
        assert (code, out) == (3, "")
        assert err == "error: seed must be nonnegative, got -1\n"
        assert not out_dir.exists()

    def test_generated_seed_is_logged(self, capsys, monkeypatch):
        monkeypatch.delenv("RSD_MARKET_SEED", raising=False)
        code = dispatch(
            ["two-agent", "first-mover", "--v1a", "0.5", "--v1b", "0.4",
             "--draws", "1000"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "generated seed" in captured.err
        assert json.loads(captured.out)["seed"] is not None


class TestSimCommands:
    def test_housing_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, payload = run_json(
            capsys,
            ["sim", "housing", "--agents", "200", "--seed", "5", "--reps", "2",
             "--out", str(out_dir)],
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["replications"] == 2
        assert len(report["per_rep_total_gain"]) == 2
        deltas = (out_dir / "deltas.csv").read_text().splitlines()
        assert deltas[0] == "agent,budget0,welfare_baseline,welfare_treatment,delta"
        assert len(deltas) == 201
        trades = (out_dir / "trades.csv").read_text().splitlines()
        assert trades[0] == "step,buyer,seller,room_sold,room_given,price,cost"

    def test_housing_outputs_are_byte_stable(self, capsys, tmp_path):
        args = ["sim", "housing", "--agents", "150", "--seed", "9", "--reps", "1"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert dispatch(args + ["--out", str(a_dir)]) == 0
        assert dispatch(args + ["--out", str(b_dir)]) == 0
        capsys.readouterr()
        for name in ("report.json", "deltas.csv", "trades.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    @pytest.mark.parametrize("tau", ["fixed:nan", "prop:nan", "fixed:-1"])
    def test_invalid_fee_is_exit_3(self, capsys, tau):
        code = dispatch(["sim", "housing", "--agents", "10", "--reps", "1", "--tau", tau])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and "error: " in err

    def test_wealth_has_one_powerlaw_spelling(self, capsys, tmp_path):
        # 100 groups of 10 match the 1,000 agents: only the spelling differs.
        argv = ["sim", "housing", "--agents", "1000", "--reps", "1", "--seed", "1"]
        code = dispatch(argv + ["--wealth", "power-law:100,1.1,10", "--out", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and "error: " in err
        code = dispatch(argv + ["--wealth", "powerlaw:100,1.1,10", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert code == 0 and (tmp_path / "b" / "report.json").is_file()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_nonpositive_reps_is_exit_3(self, capsys, tmp_path, reps):
        code = dispatch(["sim", "housing", "--agents", "20", "--reps", reps, "--seed", "1",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and "error: n_reps must be >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, payload = run_json(
            capsys,
            ["sim", "sweep", "--agents", "200", "--seed", "5",
             "--tau-list", "fixed:0,40,100000", "--out", str(out_dir)],
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,mode,total_gain,trades"
        assert len(lines) == 4
        assert lines[-1].endswith(",0")  # prohibitive fee kills all trades

    def test_sweep_takes_a_proportional_fee_in_the_tau_spelling(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code = dispatch(["sim", "sweep", "--agents", "200", "--seed", "3",
                         "--tau-list", "prop:0,0.05", "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        cfg = SimConfig(n_agents=200, cost=TransactionCost("proportional", 0.0))
        expected = ["tau,mode,total_gain,trades"] + [
            f"{r.tau!r},proportional,{r.total_gain!r},{r.trades}"
            for r in transaction_cost_sweep(cfg, [0.0, 0.05], seed=3)
        ]
        assert (out_dir / "sweep.csv").read_text().splitlines() == expected

    def test_sweep_mode_flag_is_a_usage_error(self, tmp_path):
        code, out, err = _run_captured(["sim", "sweep", "--agents", "20", "--seed", "1",
                                        "--tau-list", "fixed:0", "--mode", "fixed",
                                        "--out", str(tmp_path / "out")])
        assert code == 2 and out == "" and "--mode" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "tau_list",
        ["none", "proportional:0,0.1", "fixed:", "prop:0,inf", "fixed:0,1e400", "fixed:0,nan"],
    )
    def test_malformed_tau_list_is_exit_3(self, tmp_path, tau_list):
        code, out, err = _run_captured(["sim", "sweep", "--agents", "20", "--seed", "1",
                                        "--tau-list", tau_list, "--out", str(tmp_path / "out")])
        assert code == 3 and out == "" and "Traceback" not in err and err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_bare_tau_list_names_the_accepted_forms(self, tmp_path):
        code, _, err = _run_captured(["sim", "sweep", "--agents", "20", "--seed", "1",
                                      "--tau-list", "0,10", "--out", str(tmp_path / "out")])
        assert code == 3 and "fixed:X,Y,..." in err and "prop:R,S,..." in err


class TestSuiteRunner:
    def test_each_criterion_listed_once(self, capsys):
        from rsd_market import suite

        results = suite.run_paper_suite(only=["C01", "C02", "C03", "C04"])
        ids = [r.cid for r in results]
        assert ids == sorted(set(ids))

    def test_paper_suite_command(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        code = dispatch(["paper-suite", "--only", "C01,C04", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "C01 PASS" in stdout and "C04 PASS" in stdout
        payload = json.loads(out.read_text())
        assert [r["id"] for r in payload["results"]] == ["C01", "C04"]
        assert all(r["passed"] for r in payload["results"])

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--only", "C99"], ["'C99'"]),
            (["--skip", "C99"], ["'C99'"]),
            (["--only", "C01,C99"], ["'C99'"]),
            (["--only", "C01,C99", "--skip", "C98"], ["'C98'", "'C99'"]),
        ],
    )
    def test_unknown_criterion_id_rejected(self, capsys, argv, named):
        code = dispatch(["paper-suite", *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""  # nothing ran, not even the known C01
        assert all(cid in captured.err for cid in named)

    def test_criteria_share_no_state(self):
        from rsd_market import suite

        alone = suite.run_criterion("C14")
        after_c12 = suite.run_paper_suite(only=["C12", "C14"], printer=lambda line: None)
        assert [r.cid for r in after_c12] == ["C12", "C14"]
        assert alone.passed and after_c12[1].passed
        assert after_c12[1].details == alone.details


class TestJsonOutputs:
    def test_schema_version_comes_first(self, tmp_path):
        runs = [
            ["mech", "run", "--mechanism", "sd", "--scenario", "example-3.1", "--order", "0,1"],
            ["equilibrium", "solve", "--scenario", "example-4.1"],
            ["oracle", "check", "--scenario", "example-4.1"],
            ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.4", "--draws", "100", "--seed", "1"],
            ["two-agent", "first-mover", "--v1a", "0.7", "--v1b", "0.4", "--draws", "100",
             "--seed", "1"],
            ["sim", "housing", "--agents", "20", "--seed", "1", "--out", str(tmp_path / "h")],
            ["sim", "sweep", "--agents", "20", "--seed", "1", "--tau-list", "fixed:0,10",
             "--out", str(tmp_path / "s")],
            ["sim", "sweep", "--agents", "20", "--seed", "1", "--tau-list", "prop:0,0.05",
             "--out", str(tmp_path / "p")],
        ]
        documents = []
        for argv in runs:
            code, out, _ = _run_captured(argv)
            assert code == 0, argv
            documents.append(out)
        suite_path = tmp_path / "suite.json"
        assert _run_captured(["paper-suite", "--only", "C04", "--out", str(suite_path)])[0] == 0
        for path in (tmp_path / "h" / "report.json", suite_path):
            text = path.read_text()
            assert text.endswith("}\n") and not text.endswith("\n\n")
            documents.append(text)
        for text in documents:
            assert list(_strict_json(text))[0] == "schema_version"


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("lambda = 0.0\norder = 0,1\n")
        code, payload = run_json(
            capsys,
            ["--config", str(cfg), "mech", "run", "--mechanism", "expost-pairwise",
             "--scenario", "example-3.1"],
        )
        assert code == 0
        # Seller-reservation pricing: the contested item trades at 1.
        assert payload["trade_log"][0]["price"] == 1.0

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"lambda": 0.0, "order": "0,1"}))
        code, payload = run_json(
            capsys,
            ["--config", str(cfg), "mech", "run", "--mechanism", "expost-pairwise",
             "--scenario", "example-3.1", "--lambda", "1.0"],
        )
        assert code == 0
        assert payload["trade_log"][0]["price"] == 9.0

    @pytest.mark.parametrize("text", ["", "\n", "  ", "# defaults\n\n"])
    def test_config_without_entries(self, capsys, tmp_path, text):
        cfg = tmp_path / "conf"
        cfg.write_text(text)
        code, payload = run_json(
            capsys, ["--config", str(cfg), "equilibrium", "solve", "--scenario", "example-3.1"]
        )
        assert code == 0 and payload["verified"]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("warp-factor = 9\n")
        code = dispatch(
            ["--config", str(cfg), "mech", "run", "--mechanism", "sd",
             "--scenario", "example-3.1", "--order", "0,1"]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# Malformed input files: exit 3 with a one-line error, never a traceback
# ---------------------------------------------------------------------------

GOOD_INSTANCE = {
    "n_agents": 3,
    "n_items": 3,
    "valuations": [[5, 2, 0], [3, 6, 0], [1, 1, 1]],
    "budgets": [0, 5, 0],
}


def _last_row(row):
    return {**GOOD_INSTANCE, "valuations": [[5, 2, 0], [3, 6, 0], row]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def _run_quietly(argv):
    code, _, err = _run_captured(argv)
    return code, err


def _write(directory, name, content):
    path = directory / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _solve_instance(directory, content):
    return _run_quietly(["equilibrium", "solve", "--instance", _write(directory, "inst.json", content)])


def _solve_endowment(directory, content):
    inst = _write(directory, "inst.json", GOOD_INSTANCE)
    endow = _write(directory, "endow.json", content)
    return _run_quietly(["equilibrium", "solve", "--instance", inst, "--endowment", endow])


def _solve_config(directory, content):
    cfg = _write(directory, "conf", content)
    return _run_quietly(["--config", cfg, "equilibrium", "solve", "--scenario", "example-3.1"])


def _is_endowment(value):
    """Whether ``value`` is a well-formed endowment of ``GOOD_INSTANCE``."""
    if isinstance(value, dict):
        value = value.get("assignment")
    if not isinstance(value, list) or len(value) != GOOD_INSTANCE["n_agents"]:
        return False
    ids = [x for x in value if x is not None]
    return (
        bool(ids)
        and all(
            not isinstance(x, bool) and isinstance(x, (int, float)) and x in range(GOOD_INSTANCE["n_items"])
            for x in ids
        )
        and len(set(ids)) == len(ids)
    )


def _with(key, values):
    return values.map(lambda v: {**GOOD_INSTANCE, key: v})


malformed_instances = st.one_of(
    json_values.filter(
        lambda v: not (isinstance(v, dict) and {"n_agents", "n_items", "valuations"} <= v.keys())
    ),
    _with("n_agents", json_values.filter(lambda v: v != 2)),
    _with("n_items", json_values.filter(lambda v: v != 3)),
    _with("valuations", json_values.filter(lambda v: not isinstance(v, list))),
    _with("budgets", json_values.filter(lambda v: v is not None and not isinstance(v, list))),
)

# Non-object values go in as JSON text: a raw string such as "" or "#" is a
# well-formed (empty) key=value file, pinned by ``test_config_without_entries``.
malformed_configs = st.one_of(
    json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
    st.dictionaries(
        st.text(max_size=6),
        json_values.filter(lambda v: isinstance(v, (bool, list, dict)) or v is None),
        min_size=1,
        max_size=3,
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "content",
        [
            {"n_agents": 3},
            [1, 2],
            {**GOOD_INSTANCE, "budgets": {"a": 1}},
            {**GOOD_INSTANCE, "budgets": [0, 5]},
            {**GOOD_INSTANCE, "budgets": [0, True, 0]},
            {**GOOD_INSTANCE, "budgets": ["0", 5, 0]},
            {**GOOD_INSTANCE, "n_agents": 3.0},
            {**GOOD_INSTANCE, "n_agents": True},
            {**GOOD_INSTANCE, "n_items": -3},
            _last_row([1, 1]),
            _last_row([1, True, 1]),
            _last_row([1, "1", 1]),
            _last_row([1, None, 1]),
            _last_row([1, [1], 1]),
            _last_row([1, 10**400, 1]),
            _last_row([1, float("inf"), 1]),
            {**GOOD_INSTANCE, "valuations": [5, 2, 0, 3, 6, 0, 1, 1, 1]},
            {"n_agents": 0, "n_items": 0, "valuations": []},
            "{not json",
            b"\xff\xfe",
        ],
    )
    def test_instance(self, fuzz_dir, content):
        code, err = _solve_instance(fuzz_dir, content)
        assert code == 3 and "Traceback" not in err and err.startswith("error: ")

    @pytest.mark.parametrize(
        "content",
        [
            {"x": 1},
            5,
            [[0], 1, 2],
            [1.7, 0, 2],
            [True, 0, 2],
            ["0", 1, 2],
            [0, 0, 2],
            [-1, 0, 2],
            [3, 0, 1],
            [10**30, 0, 1],
            [0, 1],
            [None, None, None],
            {"assignment": 5},
            {"assignment": [0.5, 1, 2]},
            b"\xff\xfe",
        ],
    )
    def test_endowment(self, fuzz_dir, content):
        code, err = _solve_endowment(fuzz_dir, content)
        assert code == 3 and "Traceback" not in err and err.startswith("error: ")

    def test_well_formed_instance_solves(self, fuzz_dir):
        # Each malformed instance case differs from this one in one field.
        assert _solve_instance(fuzz_dir, GOOD_INSTANCE) == (0, "")

    @pytest.mark.parametrize("content", [[0, 1, 2], [1.0, 0.0, 2], {"assignment": [1, 0, 2]}])
    def test_integral_endowment_accepted(self, fuzz_dir, content):
        assert _solve_endowment(fuzz_dir, content) == (0, "")

    @pytest.mark.parametrize(
        "content",
        [
            "[1, 2]",
            "5",
            '"seed=1"',
            '{"seed": [1]}',
            '{"seed": null}',
            '{"seed": true}',
            '{"seed": {"a": 1}}',
            '{"": 1}',
            '{"--seed": 1}',
            '{"seed": 1,}',
            "{",
            "seed 5",
            "= 5",
            b"\xff\xfe",
        ],
    )
    def test_config(self, fuzz_dir, content):
        code, err = _solve_config(fuzz_dir, content)
        assert code == 3 and "Traceback" not in err and err.startswith("error: ")

    @settings(max_examples=60, deadline=None)
    @given(malformed_instances)
    def test_fuzzed_instance(self, fuzz_dir, content):
        code, err = _solve_instance(fuzz_dir, content)
        assert code == 3 and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(json_values)
    def test_fuzzed_endowment(self, fuzz_dir, content):
        code, err = _solve_endowment(fuzz_dir, content)
        assert code in ((0, 3) if _is_endowment(content) else (3,))
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(malformed_configs)
    def test_fuzzed_config(self, fuzz_dir, content):
        code, err = _solve_config(fuzz_dir, content)
        assert code == 3 and "Traceback" not in err


# ---------------------------------------------------------------------------
# Valid ``mech run`` input: exit 0, or 3 for a setting the mechanism cannot
# apply; never 4
# ---------------------------------------------------------------------------

CHARGING_FEES = {"fixed:2", "prop:0.2"}

# Integer values at a 0.3 split give prices whose transfers cancel only to
# within a few ulps, so an exact transfer-sum check would reject this market.
INEXACT_SPLIT_MARKET = [[12, 4, 10, 11], [20, 11, 4, 2], [14, 20, 11, 2], [0, 16, 6, 10]]


@st.composite
def mech_run_cases(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        row = st.lists(st.integers(-10, 50), min_size=n, max_size=n)
        values = draw(st.lists(row, min_size=n, max_size=n))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.normal(100.0, 30.0, size=(n, n)).tolist()
    budgets = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    flags = {
        "--mechanism": draw(st.sampled_from(MECHANISMS)),
        "--lambda": draw(st.sampled_from(["0", "0.3", "0.5", "1"])),
        "--floor": draw(st.sampled_from(["on", "off"])),
        "--mode": draw(st.sampled_from(["fixed-point", "single-pass"])),
        "--budget-enforced": draw(st.sampled_from(["on", "off"])),
        "--tau": draw(st.sampled_from(["none", "fixed:0", "prop:0", "fixed:2", "prop:0.2"])),
        "--agent-model": draw(st.sampled_from(["myopic", "lookback-strategic"])),
    }
    # Each setting the mechanism does not apply is left unset in half the
    # cases, so that many runs get past the check.
    for flag in [f for f in DEFAULTS if f not in APPLIES[flags["--mechanism"]]]:
        if draw(st.booleans()):
            del flags[flag]
    if flags["--mechanism"] == "rsd":
        flags["--seed"] = str(draw(st.integers(0, 2**32 - 1)))
    else:
        flags["--order"] = ",".join(map(str, draw(st.permutations(range(n)))))
    return values, budgets, flags


def _inexact_split_case(mechanism):
    flags = {"--mechanism": mechanism, "--order": "0,1,2,3", "--lambda": "0.3"}
    return INEXACT_SPLIT_MARKET, [0, 0, 0, 0], flags


class TestValidMechRunInput:
    @settings(max_examples=60, deadline=None)
    @example(case=_inexact_split_case("expost-pairwise"))
    @example(case=_inexact_split_case("interim"))
    @given(case=mech_run_cases())
    def test_exit_code_depends_only_on_the_settings(self, fuzz_dir, case):
        values, budgets, flags = case
        n = len(values)
        path = _write(fuzz_dir, "mech.json",
                      {"n_agents": n, "n_items": n, "valuations": values, "budgets": budgets})
        argv = ["mech", "run", "--instance", path]
        for flag, value in flags.items():
            argv += [flag, value]
        mechanism = flags["--mechanism"]
        # A fee that charges nothing counts as the default.
        refused = any(
            flag not in APPLIES[mechanism]
            and (value in CHARGING_FEES if flag == "--tau" else value != DEFAULTS[flag])
            for flag, value in flags.items()
            if flag in DEFAULTS
        )
        code, out, err = _run_captured(argv)
        assert code == (3 if refused else 0), err
        if not refused:
            assert abs(sum(_strict_json(out)["transfers"])) <= 1e-9 * n
