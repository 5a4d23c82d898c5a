import json
import os
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("PSEUDOSPIN_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "dirac_nu.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def csv_body(stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]


class TestSolve:
    def test_json_energy(self):
        code, out, err = run_cli("solve", "--tensor-h", "1", "--n", "1", "--kappa", "-1")
        assert code == 0, err
        doc = json.loads(out)
        assert set(doc) >= {"params", "records"}
        rec = doc["records"][0]
        assert rec["spectroscopic_label"] == "1s1/2"
        assert rec["E_selected"] == pytest.approx(-4.672750523, abs=1e-6)
        assert rec["Lambda_or_Eta"] == 0.0
        assert any(abs(e - 4.849764678) < 1e-6 for e in rec["E_all_real_roots"])

    def test_without_tensor(self):
        code, out, _ = run_cli("solve", "--n", "1", "--kappa", "-1")
        assert code == 0
        assert json.loads(out)["records"][0]["E_selected"] == pytest.approx(
            -4.556531257, abs=1e-6
        )

    def test_no_states_is_config_error(self):
        code, _, err = run_cli("solve")
        assert code == 2
        assert "states" in err

    def test_unknown_config_key_is_named(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masss": 5.0, "states": [[1, -1]]}))
        code, _, err = run_cli("solve", "--config", str(cfg))
        assert code == 2
        assert "masss" in err

    def test_n_without_kappa_rejected(self):
        code, _, err = run_cli("solve", "--n", "1")
        assert code == 2

    def test_env_config_pickup(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tensor_h": 1.0, "states": [[1, -1]]}))
        code, out, err = run_cli("solve", env_extra={"PSEUDOSPIN_CONFIG": str(cfg)})
        assert code == 0, err
        assert json.loads(out)["records"][0]["E_selected"] == pytest.approx(
            -4.672750523, abs=1e-6
        )

    def test_all_states_failing_exits_3(self):
        code, out, err = run_cli(
            "solve", "--c-sym", "-10", "--n", "1", "--kappa", "-1"
        )
        assert code == 3

    def test_out_file(self, tmp_path):
        target = tmp_path / "run.json"
        code, out, _ = run_cli(
            "solve", "--n", "1", "--kappa", "-1", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["records"][0]["n"] == 1

    def test_deterministic_stdout(self):
        args = ("solve", "--tensor-h", "1", "--n", "2", "--kappa", "-1", "--format", "csv")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b


class TestTable:
    def test_pseudospin_reproduction(self):
        code, out, _ = run_cli("table", "--which", "pseudospin", "--format", "csv")
        assert code == 0
        header, rows = csv_body(out)
        cols = header.split(",")
        assert cols == ["n", "kappa", "H", "label", "sign", "E_reference", "E_computed", "deviation"]
        assert rows
        for row in rows:
            dev = row.split(",")[-1]
            if dev != "—":
                assert abs(float(dev)) < 1e-6

    def test_quoted_footnotes_only_for_pseudospin(self):
        _, out_ps, _ = run_cli("table", "--which", "pseudospin", "--format", "csv")
        assert "quoted (not matched)" in out_ps
        _, out_spin, _ = run_cli("table", "--which", "spin", "--format", "csv")
        assert "quoted" not in out_spin

    def test_quoted_values_do_not_match_computed(self):
        _, out, _ = run_cli("table", "--which", "pseudospin", "--format", "csv")
        quoted = []
        for line in out.splitlines():
            if line.startswith("# quoted"):
                quoted.append(float(line.rsplit("E=", 1)[1]))
        assert quoted
        _, rows = csv_body(out)
        computed = [float(r.split(",")[6]) for r in rows]
        for q in quoted:
            assert min(abs(q - c) for c in computed) > 1e-3

    @pytest.mark.parametrize("which", ["pseudospin", "pseudospin2", "spin", "spin3"])
    def test_json_contract(self, which):
        code, out, _ = run_cli("table", "--which", which)
        assert code == 0
        doc = json.loads(out)
        assert "params" in doc and "records" in doc
        for rec in doc["records"]:
            assert set(rec) >= {"n", "kappa", "H", "label", "sign", "E_reference", "E_computed"}
            if rec.get("deviation") is not None:
                assert abs(rec["deviation"]) < 1e-6


class TestWavefunction:
    def _table(self, *extra):
        code, out, err = run_cli(
            "wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1",
            "--format", "csv", *extra,
        )
        assert code == 0, err
        return out

    def test_csv_contract(self):
        out = self._table()
        header, rows = csv_body(out)
        assert header == "r,G,F"
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        r, g, f = data.T
        assert np.all(np.diff(r) > 0)
        norm = np.trapezoid(g * g + f * f, r)
        assert norm == pytest.approx(1.0, abs=1e-4)

    def test_node_count_matches_preamble(self):
        out = self._table()
        stated = None
        for line in out.splitlines():
            if line.startswith("# node_count"):
                stated = int(line.split("=")[1])
        assert stated == 1
        _, rows = csv_body(out)
        g = np.array([float(row.split(",")[1]) for row in rows])
        keep = g[np.abs(g) > 1e-12 * np.max(np.abs(g))]
        changes = int(np.count_nonzero(np.sign(keep[:-1]) != np.sign(keep[1:])))
        assert changes == stated

    def test_preamble_reports_energy(self):
        out = self._table()
        e_line = [l for l in out.splitlines() if l.startswith("# E =")]
        assert len(e_line) == 1
        assert float(e_line[0].split("=")[1]) == pytest.approx(-4.672750523, abs=1e-6)

    def test_requires_exactly_one_state(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states": [[1, -1], [2, -1]]}))
        code, _, err = run_cli("wavefunction", "--config", str(cfg))
        assert code == 2
        assert "one state" in err

    def test_solver_failure_exits_3(self):
        code, _, err = run_cli(
            "wavefunction", "--c-sym", "-10", "--n", "1", "--kappa", "-1"
        )
        assert code == 3
        assert err.strip()


class TestAnalyze:
    def test_approx_columns(self):
        code, out, _ = run_cli("analyze", "--which", "approx", "--format", "csv")
        assert code == 0
        header, rows = csv_body(out)
        assert header == "r,exact,approx,rel_err"
        assert len(rows) > 100

    def test_potential_columns(self):
        code, out, _ = run_cli("analyze", "--which", "potential", "--format", "csv")
        assert code == 0
        header, _ = csv_body(out)
        assert header == "r,V,U"
        assert "asymptote" in out

    def test_sweep_columns_and_directions(self):
        code, out, _ = run_cli("analyze", "--which", "sweep", "--format", "csv")
        assert code == 0
        header, rows = csv_body(out)
        assert header == "H,state,E_selected,delta_E"
        assert "moves down" in out and "moves up" in out
        first = rows[0].split(",")
        assert float(first[3]) == 0.0

    def test_sweep_failure_exits_3(self):
        code, _, _ = run_cli("analyze", "--which", "sweep", "--c-sym", "-10")
        assert code == 3

    def test_which_required(self):
        code, _, err = run_cli("analyze")
        assert code == 2


# Imports the package and the CLI with scipy made unimportable, checks that
# the block holds, then runs the CLI on the given arguments.
_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
import dirac_nu.cli
sys.exit(dirac_nu.cli.main(sys.argv[1:]))
"""


def run_python(*args):
    env = dict(os.environ)
    env.pop("PSEUDOSPIN_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        code, out, err = run_python(
            "-c",
            "import sys, dirac_nu, dirac_nu.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert code == 0, err
        assert out.strip() == "[]"

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--tensor-h", "1", "--n", "1", "--kappa", "-1"),
            ("wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1", "--format", "csv"),
        ],
    )
    def test_cli_runs_without_scipy(self, args):
        blocked = run_python("-c", _WITHOUT_SCIPY, *args)
        assert blocked[0] == 0, blocked[2]
        assert blocked == run_cli(*args)
