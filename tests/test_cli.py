import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carleman_cone.cli import RunConfig, UsageError, _parse_m_grid, execute, main, parse_config


COMMANDS = ("solve", "gamma1", "check", "frontier", "scan", "quadrature", "identities")

# One in-domain value per config key, and one out-of-domain value per key
# that has a domain of its own.
IN_DOMAIN = (
    ("m", "2.5"), ("alpha", "1.99"), ("gamma", "0.9"), ("eps", "0.5"), ("dim", "2"),
    ("a", "0.1,1"), ("K", "5"), ("K_cap", "10"), ("grid", "11"), ("tol", "1e-3"),
    ("max_iter", "50"), ("m_grid", "2.1:2.9:3"), ("init", "0.8,2.45,0.65"),
    ("family", "alpha"), ("seed", "7"), ("json", "true"), ("csv", "out.csv"),
)
OUT_OF_DOMAIN = (
    ("K", "-1"), ("seed", "-1"), ("grid", "1"), ("a", "inf"), ("m", "3.5"), ("eps", "1.5"),
    ("gamma", "0.4"), ("max_iter", "0"), ("tol", "-1"), ("dim", "4"), ("family", "beta"),
    ("init", "0.4,2.5,0.6"), ("m_grid", "1:5:3"),
)


def run(argv):
    """Execute a CLI invocation, capturing stdout; returns (exit_code, text)."""
    cfg = parse_config(argv)
    buf = io.StringIO()
    code = execute(cfg, stream=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(list(argv) + ["--json"])
    return code, json.loads(text)


class TestParseConfig:
    def test_solve_defaults(self):
        cfg = parse_config(["solve"])
        assert cfg.command == "solve"
        assert cfg.init == (0.80, 2.45, 0.65)
        assert cfg.tol == 1e-12

    def test_check_defaults_gamma(self):
        cfg = parse_config(["check", "--m", "2.46", "--alpha", "1.999", "--eps", "0.60"])
        assert cfg.gamma == 0.8092
        assert cfg.m == 2.46

    def test_frontier_m_out_of_range(self):
        with pytest.raises(UsageError, match=r"m.*\(2, 3\)"):
            parse_config(["frontier", "--m", "5"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["solve", "--bogus", "1"])

    @pytest.mark.parametrize("argv", [
        ["solve", "--csv", "out.csv", "--K", "5"],
        ["gamma1", "--m", "2.5"],
        ["identities", "--tol", "1e-3"],
        ["quadrature", "--gamma", "0.9"],
    ])
    def test_flag_of_another_subcommand_exits_3(self, argv, capsys):
        assert main(argv) == 3
        assert "usage error" in capsys.readouterr().err

    def test_unknown_family_rejected(self):
        with pytest.raises(UsageError, match="family"):
            parse_config(["frontier"], file_text="family = beta")

    def test_config_keys_accepted_by_every_subcommand(self):
        cfg = parse_config(["gamma1"], file_text="m = 2.5\ncsv = out.csv\nK = 5")
        assert cfg.m == 2.5 and cfg.csv == "out.csv" and cfg.K == 5.0
        # one file setting every key in its domain serves all seven subcommands
        keys = {key for key, _ in IN_DOMAIN}
        assert keys == {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
        text = "\n".join(f"{key} = {value}" for key, value in IN_DOMAIN)
        for command in COMMANDS:
            cfg = parse_config([command], file_text=text)
            assert (cfg.command, cfg.grid, cfg.a, cfg.tol) == (command, 11, [0.1, 1.0], 1e-3)
            assert cfg.m_grid == pytest.approx([2.1, 2.5, 2.9])

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key, value", OUT_OF_DOMAIN)
    def test_every_value_checked_by_every_subcommand(self, command, key, value, tmp_path,
                                                     capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main([command, "--config", str(path)]) == 3
        assert f"{key}:" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(UsageError):
            parse_config([])

    def test_m_grid_parsing(self):
        cfg = parse_config(["scan", "--m-grid", "2.1:2.9:9"])
        assert len(cfg.m_grid) == 9
        assert cfg.m_grid[0] == pytest.approx(2.1)
        assert cfg.m_grid[-1] == pytest.approx(2.9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(1, 40))
    @example(2.1, 2.9, 1)
    @example(2.9, 2.1, 5)
    @example(2.5, 2.5, 3)
    @example(5e-324, 1e-323, 7)  # the step underflows to 0
    def test_m_grid_is_numpy_linspace_to_the_bit(self, lo, hi, count):
        grid = _parse_m_grid(f"{lo!r}:{hi!r}:{count}")
        assert [v.hex() for v in grid] == [float(v).hex() for v in np.linspace(lo, hi, count)]

    def test_bad_m_grid(self):
        with pytest.raises(UsageError):
            parse_config(["scan", "--m-grid", "2.1-2.9-9"])

    def test_repeatable_a(self):
        cfg = parse_config(["quadrature", "--a", "0.5", "--a", "2.0"])
        assert cfg.a == [0.5, 2.0]

    def test_parser_is_shared_and_keeps_no_state(self, capsys):
        from carleman_cone.cli import _build_parser

        assert _build_parser() is _build_parser()
        assert parse_config(["quadrature", "--a", "1", "--a", "2"]).a == [1.0, 2.0]
        assert parse_config(["quadrature"]).a == [0.1, 1.0, 10.0]
        with pytest.raises(UsageError):
            parse_config(["solve", "--K", "5"])
        assert main(["solve", "--K", "5"]) == 3
        assert "usage error" in capsys.readouterr().err

    def test_config_file_and_precedence(self):
        text = "\n".join([
            "# comment line",
            "m = 2.5",
            "eps = 0.61   # trailing comment",
            "alpha = 1.9",
        ])
        cfg = parse_config(["check", "--eps", "0.55"], file_text=text)
        assert cfg.m == 2.5          # from file
        assert cfg.eps == 0.55       # flag wins
        assert cfg.alpha == 1.9

    def test_config_file_unknown_key(self):
        with pytest.raises(UsageError, match="unknown config key"):
            parse_config(["check"], file_text="nope = 3")

    def test_unreadable_config_exits_3(self, tmp_path, capsys):
        for path in (tmp_path / "missing.cfg", tmp_path):
            assert main(["gamma1", "--config", str(path)]) == 3
            assert "usage error: config:" in capsys.readouterr().err

    def test_main_exit_code_3(self, capsys):
        assert main(["frontier", "--m", "5"]) == 3
        assert "m" in capsys.readouterr().err
        assert main(["identities", "--seed", "-1"]) == 3
        assert "seed" in capsys.readouterr().err
        assert main(["quadrature", "--a", "inf", "--grid", "5"]) == 3
        assert "a: all values must be finite" in capsys.readouterr().err


class TestSolveCommand:
    def test_json_headline(self):
        code, doc = run_json(["solve"])
        assert code == 0
        assert doc["command"] == "solve"
        assert set(doc) == {"command", "params", "result", "verdicts", "version"}
        res = doc["result"]
        assert res["theta_deg"] == pytest.approx(98.99, abs=0.5)
        assert res["m"] == pytest.approx(2.46, abs=0.02)
        assert res["iterations"] >= 1
        assert max(abs(r) for r in res["residuals"]) <= 1e-12

    def test_nonconvergence_exit_2(self):
        code, doc = run_json(["solve", "--init", "0.99,2.9,0.7", "--max-iter", "1"])
        assert code == 2
        assert "error" in doc["result"]

    def test_json_roundtrip(self):
        # solve takes no weight flags; the envelope's params go in a config file
        code, doc = run_json(["solve"])
        text = "\n".join(f"{key} = {doc['params'][key]!r}"
                         for key in ("m", "alpha", "gamma", "eps"))
        cfg = parse_config(["solve", "--json"], file_text=text)
        buf = io.StringIO()
        assert execute(cfg, stream=buf) == code
        assert json.loads(buf.getvalue())["result"] == doc["result"]


class TestGamma1Command:
    def test_values(self):
        code, doc = run_json(["gamma1"])
        assert code == 0
        assert doc["result"]["m"] == pytest.approx(2.39, abs=0.02)
        assert doc["result"]["epsilon0"] == pytest.approx(0.64, abs=0.01)

    def test_tol_below_float_floor_exits_2(self):
        code, doc = run_json(["gamma1", "--tol", "1e-17"])
        assert code == 2
        assert "error" in doc["result"]


class TestCheckCommand:
    def test_feasible_exit_0(self):
        code, doc = run_json(["check", "--m", "2.46", "--alpha", "1.999", "--eps", "0.60"])
        assert code == 0
        assert doc["result"]["overall"] == "feasible"
        assert set(doc["verdicts"]) >= {
            "lemma31_i", "lemma31_ii", "lemma31_iii", "lemma31_iv",
            "gamma_cond", "l1_direct", "l2_concavity", "l2_at_eps",
            "l2_at_1", "l4_at_eps", "l4_at_1", "l3_lower_bound",
        }

    def test_infeasible_names_l1_and_witness(self):
        code, doc = run_json(["check", "--m", "2.46", "--alpha", "1.999", "--eps", "0.67"])
        assert code == 1
        assert doc["result"]["failing_key"] == "l1_direct"
        assert doc["result"]["witness"] == pytest.approx(0.67)

    def test_human_output_names_failure(self):
        code, text = run(["check", "--eps", "0.67"])
        assert code == 1
        assert "l1_direct" in text

    def test_roundtrip_identical(self):
        code, doc = run_json(["check", "--eps", "0.63"])
        p = doc["params"]
        code2, doc2 = run_json([
            "check", "--m", repr(p["m"]), "--alpha", repr(p["alpha"]),
            "--gamma", repr(p["gamma"]), "--eps", repr(p["eps"]),
        ])
        assert doc2["result"] == doc["result"]
        assert doc2["verdicts"] == doc["verdicts"]


class TestFrontierCommand:
    def test_default_family_m(self):
        code, doc = run_json(["frontier", "--m", "2.46", "--alpha", "1.999", "--tol", "1e-3"])
        assert code == 0
        res = doc["result"]
        assert res["family"] == "beta_eq_m"
        assert res["epsilon_sup"] <= math.sqrt(1.46 / 3.46) + 1e-9
        assert res["bracket"][0] <= res["epsilon_sup"] <= res["bracket"][1]

    def test_family_alpha(self):
        code, doc = run_json(["frontier", "--family", "alpha", "--alpha", "1.999", "--tol", "1e-3"])
        assert code == 0
        assert doc["result"]["family"] == "beta_eq_alpha"
        assert doc["result"]["epsilon_sup"] <= math.sqrt(1.0 / 3.0) + 1e-6


class TestScanCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "frontier.csv"
        code, doc = run_json([
            "scan", "--m-grid", "2.1:2.9:9", "--alpha", "1.999",
            "--tol", "1e-2", "--csv", str(out),
        ])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "epsilon_sup", "theta_deg"]
        assert len(rows) == 10
        for row in rows[1:]:
            m = float(row[0])
            eps = float(row[1])
            assert eps <= math.sqrt((m - 1.0) / (m + 1.0)) + 1e-9
            assert float(row[2]) == pytest.approx(math.degrees(2 * math.acos(eps)), rel=1e-12)

    def test_requires_m_grid(self):
        with pytest.raises(UsageError, match="m_grid"):
            parse_config(["scan"])


class TestQuadratureCommand:
    def test_passes_exit_0(self):
        code, doc = run_json(["quadrature", "--grid", "21", "--a", "0.1", "--a", "1"])
        assert code == 0
        for rep in doc["result"]:
            assert rep["pass"] is True
            assert rep["K"] <= 240.0
            assert rep["lhs"] <= rep["rhs"]

    def test_bump_outside_the_cone_exits_3(self, capsys):
        assert main(["quadrature", "--eps", "0.975"]) == 3
        out = capsys.readouterr()
        assert out.err == "error: corner (3.2, -0.8) exits the cone (epsilon=0.975)\n"
        assert out.out == ""

    def test_grid_validation(self, capsys):
        # each side of the peak needs a node: 1 per axis is a usage error, 2 is not
        with pytest.raises(UsageError, match="grid"):
            parse_config(["quadrature", "--grid", "1"])
        assert parse_config(["quadrature", "--grid", "2"]).grid == 2
        assert main(["quadrature", "--grid", "1"]) == 3
        assert "grid" in capsys.readouterr().err
        code, _ = run(["quadrature", "--grid", "10"])
        assert code == 0

    # from K near 320 the log b curvature of Newton's start overflows in
    # numpy products (RuntimeWarning) though the report stays finite
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_K_cap_past_float64_range_exits_3(self, capsys):
        # Newton's time curvature 2a K(K+1) t_lo**-(K+2) phi_max, with
        # t_lo = 0.2, phi_max = phi(4.8, 0) = 16.457 and a = 10 (the default
        # list's largest), leaves the float64 range just above K = 427.88
        for dim in ("2", "3"):
            cfg = parse_config(["quadrature", "--dim", dim, "--K", "427", "--K-cap", "427.88"])
            assert cfg.K_cap == 427.88
            with pytest.raises(UsageError, match=r"largest admissible K is 427\.88,"):
                parse_config(["quadrature", "--dim", dim, "--K", "60", "--K-cap", "427.881"])
        # with a = 0 only t_lo**-(K+2) itself bounds K
        assert parse_config(["quadrature", "--a", "0", "--K-cap", "439.012"]).K_cap == 439.012
        with pytest.raises(UsageError, match=r"largest admissible K is 439\.012,"):
            parse_config(["quadrature", "--a", "0", "--K-cap", "439.013"])
        assert main(["quadrature", "--K", "440", "--K-cap", "480"]) == 3
        assert "K_cap" in capsys.readouterr().err
        # at the bound the peak is still resolved: lhs is the one of K = 400
        lhs = {}
        for K in ("400", "427.88"):
            code, doc = run_json(["quadrature", "--K", K, "--K-cap", K, "--grid", "21", "--a", "10"])
            assert code in (0, 1)
            lhs[K] = doc["result"][0]["lhs"]
        assert lhs["427.88"] == pytest.approx(lhs["400"], rel=1e-6)


class TestIdentitiesCommand:
    def test_all_pass(self):
        code, doc = run_json(["identities", "--seed", "42"])
        assert code == 0
        assert all(entry["pass"] for entry in doc["result"])

    def test_seed_deterministic(self):
        _, doc1 = run_json(["identities", "--seed", "7"])
        _, doc2 = run_json(["identities", "--seed", "7"])
        assert doc1["result"] == doc2["result"]
