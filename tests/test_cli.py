"""Scenario catalog integrity and the command-line front door."""

import json

import numpy as np
import pytest

from rsd_market.cli import dispatch
from rsd_market.market import MarketInstance, save_instance
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

    def test_identical_preferences_template(self):
        sc = get_scenario("identical-preferences", n_agents=5, seed=3)
        m = sc.instance.dense_matrix()
        assert np.all(m == m[0])

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
             "--order", "0,1", "--numeric-mode", "integer"],
        )
        assert code == 0
        assert payload["allocation"] == [1, 0]
        assert payload["total_welfare"] == 11.0

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

    def test_two_agent_solve(self, capsys):
        code, payload = run_json(
            capsys, ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.1"]
        )
        assert code == 0
        assert 0.0 <= payload["t_star"] <= 1.0
        assert payload["no_offer_probability"] == pytest.approx(0.5, abs=1e-9)

    def test_first_mover(self, capsys):
        code, payload = run_json(
            capsys,
            ["two-agent", "first-mover", "--v1a", "0.9", "--v1b", "0.2",
             "--draws", "5000", "--seed", "3"],
        )
        assert code == 0
        assert payload["best_choice"] in ("A", "B")
        assert payload["seed"] == 3

    def test_env_seed_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("RSD_MARKET_SEED", "424242")
        code, payload = run_json(
            capsys,
            ["two-agent", "first-mover", "--v1a", "0.5", "--v1b", "0.4",
             "--draws", "1000"],
        )
        assert code == 0
        assert payload["seed"] == 424242

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

    def test_sweep_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, payload = run_json(
            capsys,
            ["sim", "sweep", "--agents", "200", "--seed", "5",
             "--tau-list", "0,40,100000", "--out", str(out_dir)],
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,mode,total_gain,trades"
        assert len(lines) == 4
        assert lines[-1].endswith(",0")  # prohibitive fee kills all trades


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

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("warp-factor = 9\n")
        code = dispatch(
            ["--config", str(cfg), "mech", "run", "--mechanism", "sd",
             "--scenario", "example-3.1", "--order", "0,1"]
        )
        assert code == 2
