"""Scenario catalog integrity and the command-line front door."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        "mechanism, flag",
        [
            ("interim", ["--tau", "fixed:40"]),
            ("sd", ["--tau", "prop:0.1"]),
            ("expost-ce", ["--tau", "fixed:1"]),
            ("expost-ce", ["--budget-enforced", "on"]),
        ],
    )
    def test_settings_the_mechanism_cannot_apply_are_exit_3(self, capsys, mechanism, flag):
        code = dispatch(["mech", "run", "--mechanism", mechanism, "--scenario", "example-3.1",
                         "--order", "0,1", *flag])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert flag[0] in captured.err and mechanism in captured.err

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

    def test_two_agent_solve(self, capsys):
        code, payload = run_json(
            capsys, ["two-agent", "solve", "--v2a", "0.9", "--v2b", "0.1"]
        )
        assert code == 0
        assert 0.0 <= payload["t_star"] <= 1.0
        assert payload["no_offer_probability"] == pytest.approx(0.5, abs=1e-9)

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

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_is_exit_3(self, capsys, tmp_path, threads):
        code = dispatch(["sim", "housing", "--agents", "20", "--reps", "1", "--seed", "1",
                         "--threads", threads, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and "error: " in err
        assert not (tmp_path / "out").exists()

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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


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
