import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dirac_nu import spectrum
from dirac_nu.cli import RunConfig, main
from dirac_nu.model import MAX_POINTS


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


def run_main(capsys, *args):
    """``cli.main`` in this process: exit code and captured stdout."""
    code = main(list(args))
    return code, capsys.readouterr().out


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

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        target = tmp_path / "missing" / "run.json"
        code = main(["solve", "--n", "1", "--kappa", "-1", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {str(target)!r}: ")
        assert captured.err.count("\n") == 1
        assert not target.parent.exists()

    def test_narrow_margin_keeps_the_root_near_the_window_edge(self, capsys, monkeypatch):
        # the scan finds a root 2e-9 inside the window edge; f and the oracle
        # must take it too, however narrow the margin
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code, out = run_main(capsys, "solve", "--c0", "0.49999999311960147", "--n", "0",
                             "--kappa", "-1", "--margin", "1e-12", "--format", "csv")
        assert code == 0
        header, (row,) = csv_body(out)
        record = dict(zip(header.split(","), row.split(",")))
        assert record["E_all_real_roots"] == "-4.90463232239;4.999999998"
        assert record["E_selected"] == "-4.90463232239"
        assert record["error"] == ""

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


    def test_header_reports_the_reference_parameters(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        flags = ("--mass", "3", "--alpha", "0.9", "--c0", "0.1", "--format", "csv")
        code, out = run_main(capsys, "table", "--which", "pseudospin", *flags)
        assert code == 0
        assert out.splitlines()[0] == (
            "# params: mass=5.0 symmetry=pseudospin c_sym=0.0 tensor_h=0.0 alpha=0.6 "
            "a_shape=5.0 c0=0.0833333333333 strict_domain=True assembly=None "
            "table_symmetry=pseudospin reference_assembly=reference"
        )
        assert out == run_main(capsys, "table", "--which", "pseudospin", "--format", "csv")[1]

    def test_failed_cells_keep_the_row_and_mark_the_deviation(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        args = ("table", "--which", "pseudospin", "--bisect-tol", "1e-19")
        code, out = run_main(capsys, *args, "--format", "csv")
        assert code == 3
        _, rows = csv_body(out)
        # at bisect_tol=1e-19 the oracle match tolerance is under one ulp of
        # most roots, so most cells fail
        failed = [row.split(",")[6:] for row in rows if row.split(",")[6] == ""]
        assert failed and all(c == ["", "—"] for c in failed)
        code, out = run_main(capsys, *args)
        assert code == 3
        errors = [rec for rec in json.loads(out)["records"] if "error" in rec]
        assert len(errors) == len(failed)
        for rec in errors:
            assert rec["E_computed"] is None and rec["deviation"] is None
            assert rec["error"].startswith("DomainError: bisect_tol=1e-19")

    @pytest.mark.parametrize("which", ["spin", "spin3"])
    def test_spin_header_names_the_spin_limit(self, which, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code, out = run_main(capsys, "table", "--which", which)
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["symmetry"], params["table_symmetry"]) == ("spin", "spin")


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

    @pytest.mark.parametrize("args, error", [
        (("--n", "1", "--kappa", "-1", "--assembly", "reference"),
         "DomainError: pseudospin limit has a single assembly 'strict', got 'reference'"),
        (("--n", "1", "--kappa", "0"),
         "DomainError: kappa = 0 is not a valid relativistic quantum number"),
    ])
    def test_refused_equation_exits_3_as_in_solve(self, args, error, capsys, monkeypatch):
        # building the state's equation is the first step of its solve, in
        # wavefunction as in solve
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        assert main(["wavefunction", *args]) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")
        code, out = run_main(capsys, "solve", *args)
        assert code == 3
        assert json.loads(out)["records"][0]["error"] == error

    @pytest.mark.parametrize("points", ["51", "1"])
    def test_too_few_points_is_config_error_before_solving(self, points, capsys, monkeypatch):
        # verify_ode needs 50 interior points, so the table needs 52; with
        # --c-sym -10 the solve itself would fail (exit 3) if it ran first
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        for extra in ((), ("--c-sym", "-10")):
            code = main(["wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1",
                         "--wf-points", points, *extra])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "wf_points must be >= 52" in captured.err

    @pytest.mark.parametrize("r_min", ["0", "-1", "inf", "nan"])
    def test_nonpositive_r_min_is_config_error_before_solving(
        self, r_min, capsys, monkeypatch, tmp_path
    ):
        # c_sym = -10 closes the window, so a solve would exit 3
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_min": float(r_min)}))
        for extra in ((), ("--c-sym", "-10")):
            for source in (("--r-min", r_min), ("--config", str(cfg))):
                code = main(["wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1",
                             *source, *extra])
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert "r_min must be finite and positive" in captured.err

    def test_r_min_beyond_r_max_fails_after_solving(self, capsys, monkeypatch):
        # r_max follows from the solved energy, so this is a solve failure
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code = main(["wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1",
                     "--r-min", "1000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "need finite 0 < r_min < r_max, got 1000.0, " in captured.err

    def test_minimum_points_table(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code, out = run_main(capsys, "wavefunction", "--tensor-h", "1", "--n", "1",
                             "--kappa", "-1", "--wf-points", "52", "--format", "csv")
        assert code == 0
        assert len(csv_body(out)[1]) == 52


# every command that solves, with the arguments of one valid run
SOLVING_COMMANDS = [
    ("solve", "--tensor-h", "1", "--n", "1", "--kappa", "-1"),
    ("table", "--which", "pseudospin"),
    ("wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1"),
    ("analyze", "--which", "sweep"),
]
BAD_SOLVE_OPTIONS = [
    ("--margin", "0", "margin"), ("--margin", "-1", "margin"), ("--margin", "nan", "margin"),
    ("--margin", "inf", "margin"), ("--bisect-tol", "inf", "bisect_tol"),
    ("--bisect-tol", "nan", "bisect_tol"), ("--bisect-tol", "0", "bisect_tol"),
    ("--grid-points", "2", "grid_points"),
]


class TestInvalidSolveOptions:
    @pytest.mark.parametrize("flag, value, name", BAD_SOLVE_OPTIONS,
                             ids=[f"{f} {v}" for f, v, _ in BAD_SOLVE_OPTIONS])
    @pytest.mark.parametrize("args", SOLVING_COMMANDS, ids=[a[0] for a in SOLVING_COMMANDS])
    def test_exits_2_before_solving(self, args, flag, value, name, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code = main([*args, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: {name} must be" in captured.err


SOLVE_ONE = ("solve", "--n", "1", "--kappa", "-1")
WAVE_ONE = ("wavefunction", "--n", "1", "--kappa", "-1")
SWEEP = ("analyze", "--which", "sweep")
# a config value of the wrong type or outside its choices, the command run
# with it, and the key the error must name
BAD_CONFIGS = [
    (SOLVE_ONE, {"mass": "5"}, "mass"),
    (SOLVE_ONE, {"mass": True}, "mass"),
    (SWEEP, {"h_values": "abc"}, "h_values"),
    (SWEEP, {"h_values": [0.5, "1"]}, "h_values"),
    (WAVE_ONE, {"wf_points": 60.0}, "wf_points"),
    (WAVE_ONE, {"grid_points": True}, "grid_points"),
    (("solve",), {"states": [[1.5, -1]]}, "states"),
    (("solve",), {"states": [{"n": 1, "kappa": False}]}, "states"),
    (SWEEP, {"doublets": [[[1, -1], [1.0, 2]]]}, "doublets"),
    (SOLVE_ONE, {"format": "xml"}, "format"),
    (WAVE_ONE, {"branch": "up"}, "branch"),
    (SOLVE_ONE, {"strict_domain": "no"}, "strict_domain"),
    (SOLVE_ONE, {"strict_domain": 0}, "strict_domain"),
    (SOLVE_ONE, {"symmetry": "spin", "assembly": "bogus"}, "assembly"),
    (WAVE_ONE, {"symmetry": "spin", "assembly": "bogus"}, "assembly"),
    (SOLVE_ONE, {"out": 3}, "out"),
    (SOLVE_ONE, {"mass": 10**400}, "mass"),
    (WAVE_ONE, {"wf_points": 10**400}, "wf_points"),
    # a malformed file value is refused even where a flag overrides it
    ((*SOLVE_ONE, "--mass", "5"), {"mass": "x"}, "mass"),
    ((*WAVE_ONE, "--format", "csv"), {"format": "xml"}, "format"),
    (SOLVE_ONE, {"states": [[1.5, -1]]}, "states"),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("args, data, key", BAD_CONFIGS,
                             ids=[f"{a[0]} {json.dumps(d)[:40]}" for a, d, _ in BAD_CONFIGS])
    def test_exits_2_naming_the_key(self, args, data, key, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code = main([*args, "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: config key {key!r}: ")
        assert captured.err.count("\n") == 1


# each point count with a command that reads it
POINT_COUNTS = [
    (SOLVE_ONE, "grid_points"),
    (("table", "--which", "pseudospin"), "grid_points"),
    (SWEEP, "grid_points"),
    (WAVE_ONE, "wf_points"),
    (("analyze", "--which", "approx"), "approx_points"),
    (("analyze", "--which", "potential"), "profile_points"),
]


class TestPointCountBound:
    # one past the bound, never a count that would be allocated
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("args, key", POINT_COUNTS,
                             ids=[f"{a[0]} {k}" for a, k in POINT_COUNTS])
    def test_one_past_the_bound_exits_2_naming_the_key(self, args, key, source, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        if source == "flag":
            extra = ["--" + key.replace("_", "-"), str(MAX_POINTS + 1)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: MAX_POINTS + 1}))
            extra = ["--config", str(path)]
        code = main([*args, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: config key {key!r}: {MAX_POINTS + 1} is not a "
                                f"point count up to {MAX_POINTS}\n")


# a profile or approx grid outside the rule of model.log_grid, and the
# message it gives
BAD_PROFILE_GRIDS = [
    ({"profile_points": -1}, "profile_points must be >= 2, got -1"),
    ({"profile_points": 1}, "profile_points must be >= 2, got 1"),
    ({"approx_points": 1}, "approx_points must be >= 2, got 1"),
    ({"profile_r_min": 0}, "r_min must be finite and positive, got 0.0"),
    ({"profile_r_min": -1}, "r_min must be finite and positive, got -1.0"),
    ({"profile_r_min": 20.0}, "need finite 0 < r_min < r_max"),
    ({"profile_r_min": 10.0}, "need finite 0 < r_min < r_max"),
    ({"profile_r_max": float("inf")}, "need finite 0 < r_min < r_max"),
]


class TestAnalyze:
    @pytest.mark.parametrize("data, message", BAD_PROFILE_GRIDS,
                             ids=[json.dumps(d) for d, _ in BAD_PROFILE_GRIDS])
    def test_bad_profile_grid_exits_2(self, data, message, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        which = "approx" if "approx_points" in data else "potential"
        code = main(["analyze", "--which", which, "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

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
        assert header == "H,state,E_selected,delta_E,error"
        assert "moves down" in out and "moves up" in out
        first = rows[0].split(",")
        assert float(first[3]) == 0.0 and first[4] == ""

    def test_sweep_doublet_differing_in_n_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"doublets": [[[1, -1], [2, 2]]]}))
        code = main(["analyze", "--which", "sweep", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "share n" in captured.err

    def test_sweep_failure_exits_3(self):
        code, _, _ = run_cli("analyze", "--which", "sweep", "--c-sym", "-10")
        assert code == 3

    @pytest.mark.parametrize("symmetry", ["pseudospin", "spin"])
    def test_default_sweep_solves_the_h_zero_pair_once(self, symmetry, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        batches = []
        solve_all = spectrum._solve_all

        def counting(eqs, opts):
            batches.append(eqs)
            return solve_all(eqs, opts)

        monkeypatch.setattr(spectrum, "_solve_all", counting)
        code, _ = run_main(capsys, "analyze", "--which", "sweep", "--symmetry", symmetry)
        assert code == 0
        # one batch: 2 equations at each of the four H > 0, 1 at H = 0
        assert [len(eqs) for eqs in batches] == [9]

    def test_sweep_honours_the_assembly(self, capsys, monkeypatch):
        # each printed energy is the one solve prints for that state, H and assembly
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code, out = run_main(capsys, "analyze", "--which", "sweep", "--symmetry", "spin",
                             "--assembly", "strict")
        assert code == 0
        records = json.loads(out)["records"]
        states = {"0p3/2": ("0", "-2"), "0p1/2": ("0", "1")}
        for rec in records:
            n, kappa = states[rec["state"]]
            code, solved = run_main(capsys, "solve", "--symmetry", "spin", "--assembly", "strict",
                                    "--tensor-h", repr(rec["H"]), "--n", n, "--kappa", kappa)
            assert code == 0
            (expected,) = json.loads(solved)["records"]
            assert rec["E_selected"] == min(e for e in expected["E_all_real_roots"] if e < 0)
        _, reference = run_main(capsys, "analyze", "--which", "sweep", "--symmetry", "spin")
        assert [r["E_selected"] for r in json.loads(reference)["records"]] != [
            r["E_selected"] for r in records]

    def test_pseudospin_sweep_with_the_reference_assembly_exits_3(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        code, out = run_main(capsys, "solve", "--n", "1", "--kappa", "-1",
                             "--assembly", "reference")
        assert code == 3
        (solved,) = json.loads(out)["records"]
        code, out = run_main(capsys, "analyze", "--which", "sweep", "--assembly", "reference")
        assert code == 3
        records = json.loads(out)["records"]
        assert len(records) == 10 and {r["error"] for r in records} == {solved["error"]}
        assert solved["error"].startswith("DomainError: pseudospin limit has a single assembly")
        # the CSV keeps each failed row's reason in its error column, as solve's does
        code, out = run_main(capsys, "analyze", "--which", "sweep", "--assembly", "reference",
                             "--format", "csv")
        assert code == 3
        header, rows = csv_body(out)
        assert header.split(",") == ["H", "state", "E_selected", "delta_E", "error"]
        assert len(rows) == 10
        assert all(row[2:] == ["", "", solved["error"]] for row in csv.reader(rows))

    def test_which_required(self):
        code, _, err = run_cli("analyze")
        assert code == 2


# SHA-256 of stdout (JSON, then CSV) and the exit code of fixed commands.
# The CSV digests of the two solves that exit 3 were recorded when error
# cells, whose texts hold commas, came to be quoted as csv quotes them.
# The spin-table digests reflect their header naming the spin limit; the
# spin-limit wavefunction tables that exit 0 are the output from before both
# limits completed a table through one function; every other digest is the
# output from before the subcommands shared one serializer; the two sweeps
# with a config are the output from before both doublet members were solved
# by one function; the four sweeps' CSV digests were re-recorded when the
# sweep CSV gained its error column, the only change in their bytes; the
# terminating spin-limit wavefunction is the output
# from when the normalization's Gauss rules stopped coming from LAPACK, which
# moved its norm constant by 5 ulps and three printed values in their 12th
# digit; the two approximation studies print rel_err below
# alpha r = 1/2 from its series, which no CPU's exp kernel changes.  A name
# in braces stands for a config file of
# PINNED_CONFIGS: "{intcfg}" holds integer-valued floats and one state that
# has no spectroscopic label.
PINNED = [
    (("solve", "--tensor-h", "1", "--n", "1", "--kappa", "-1"), 0,
     "1d78729797d26144b2049c565f8dbe566556527771ae9d1f6a4a598dea85f8ef",
     "a74768beba4b9bc9cf25442afd04c3ca131c38846f264abc44b6b63bfee384a7"),
    (("solve", "--config", "{intcfg}"), 3,
     "c210bebd4ccfab8b0ef87d762a07c3e3ed7caa840815494e451e9c07fbf7e7fd",
     "1aa760536139bb9a4c0a6cf297f870d905d70cc0834b4de87d4f043d3a5de3b5"),
    (("solve", "--symmetry", "spin", "--n", "0", "--kappa", "-2", "--tensor-h", "1"), 0,
     "733870e38beced145450cc118830b3d65840c59d7e79c5b6f91d7a44039d44ba",
     "76f6ea118e67110dbf1e4f00e3f0216cae64f094ff841e5172db23c3aa4e16bc"),
    (("solve", "--n", "1", "--kappa", "-1", "--mass", "0.001", "--c-sym", "-5"), 3,
     "52bcf5d2bbbaf4568ee1316966e7a3520af22a0068a1b0e1e7a8234e8e07b204",
     "6727f61666ef977cdcbff7dfd3fb4fedcb6d7e8c48168bd2e533ec6f9984fb70"),
    (("table", "--which", "pseudospin"), 0,
     "b3e197601c28047a177e9ed31449220b2cb402e81885318f4d713358b9baf779",
     "a5b700fa82aa9c02597ea4acd39cfba71397ae2f41cbcfc4c0d1aa7ecbf8f908"),
    (("table", "--which", "spin"), 0,
     "30bd7f857bf550e7683a5b1e6c9c78a8f8f9cab5e30d7cf4f227b1a78e1415ed",
     "6f1615d415656be24c4ed48eb0705119f9c2dea1e9af4e371907400a6ea088e0"),
    (("table", "--which", "spin", "--assembly", "strict"), 0,
     "dbf9f5df963f9e12b616aa7dc2f976c5b322aa0578726df2e461a7011257e42e",
     "e2100fba1ff1eee49442675b06767bdbf94419a450f581b3559272c100c2a4d6"),
    (("wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1"), 0,
     "a98d3d686ff46e1445fcc463ddbf99b788434f088b30b664dc31136c3647bc6f",
     "3630f31205278c94231ea72f3725758d9b9ee8ee0b41c312bbc192d7077482bf"),
    (("wavefunction", "--tensor-h", "1", "--n", "2", "--kappa", "-1",
      "--branch", "terminating", "--wf-points", "300"), 0,
     "cc6e2de53a6ffd0fd329c59740cd0a53460c08afaaea7e36eb63a01b23e2dcb9",
     "dee42d19b4b51e651908bd2f328f8fbb18dea3c337136a3cd608eb1ac40baf38"),
    (("wavefunction", "--symmetry", "spin", "--n", "0", "--kappa", "-2", "--tensor-h", "1"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("wavefunction", "--symmetry", "spin", "--n", "0", "--kappa", "1", "--tensor-h", "1"), 0,
     "586f139c3cb11f9ffb963fe854fef20f58b342e7c553689c738967317c835ecb",
     "fe1c634a1ffd8e09520e4e4579f802242cf91621749c84c13986c42d8ab4a057"),
    (("wavefunction", "--symmetry", "spin", "--n", "0", "--kappa", "1", "--tensor-h", "1",
      "--branch", "terminating"), 0,
     "94e7d0ddb0059fe6188763fca1e0ec9da22138cba2e3cbade9fb1b2a3e544b96",
     "61b107157051a6a1eddffc2e3651b176552f4d406403653483747d2d6e4ed7eb"),
    (("analyze", "--which", "approx"), 0,
     "4967742820e852de952c0589d716ecdf8414bb3696b4c75b8cd634207b4dd50e",
     "b2b834a6c6ffcb776c8ede8c7f23cd3f17bdc9a91d2f82e22c874f235c647d36"),
    (("analyze", "--which", "approx", "--config", "{approx_study}"), 0,
     "8aab7488f3eaf39d792859e7ddf046ae8df4da70603087a74a72509e9112166e",
     "7a5e32acf7b4bca932df59135b13452a2fbc4a050cda14fd949eb98ea5a82166"),
    (("analyze", "--which", "potential"), 0,
     "631a8a32566eade416b7ede35e62dcc25ba3a59dce90a346daed09c5782e3177",
     "6cb2dd3ca13fcc48c23840af80024989017fa98801b69b0d271468e24a904d7c"),
    (("analyze", "--which", "sweep"), 0,
     "908766e548165786b3d79f6de717f87b173df867e29ce42045f327dc5cea26fc",
     "b48c9e4654c598c5522dbfd16aff59bd4a3fce69c2708c68334bef8c21bca77b"),
    (("analyze", "--which", "sweep", "--symmetry", "spin"), 0,
     "cdd34f48a10e5df8200063864d405844fd93aa27399332a617835b959dc094e1",
     "bfff6c9eae6ec15238274addee7b4d36ab2da128024c37c5d73ead878899dcab"),
    (("analyze", "--which", "sweep", "--config", "{sweep_pseudospin}"), 0,
     "c44ac3e574e9a2e12426f0e49a7fd5fc3a236c31004710a04dbce15815de56fa",
     "234a10feecea16d3d159116f848f378e7ad9e6c87a29a957815e090aadd0aa3e"),
    (("analyze", "--which", "sweep", "--config", "{sweep_spin}"), 0,
     "37c77dd68ea837c60c14543277fad0cd1d3c7604664557c3d6b53e1d5091c7ac",
     "307ff187eb80f09de04d7de840107b082ea8994d3293964d54025e79378bb9fa"),
]

# config files the PINNED arguments name in braces
PINNED_CONFIGS = {
    "intcfg": {"mass": 5, "tensor_h": 1, "states": [[1, -1], [0, 2], {"n": 2, "kappa": -2}]},
    # two doublets per limit, H = 0 in the middle of the sweep
    "sweep_pseudospin": {"doublets": [[[1, -1], [1, 2]], [[2, -1], [2, 2]]],
                         "h_values": [0.5, 0.0, 1.0]},
    "sweep_spin": {"symmetry": "spin", "doublets": [[[0, -2], [0, 1]], [[1, -2], [1, 1]]],
                   "h_values": [0.5, 0.0, 1.0]},
    # the centrifugal-surrogate error over its rated range, 2 alpha r <= 0.5
    "approx_study": {"approx_r_min": 1e-4, "approx_r_max": 0.4166666666666667,
                     "approx_points": 4000},
}


# finite inputs whose derived quantities leave the doubles or cancel, each
# with the exit code and the parameter its error names
OVERFLOWS = [
    (("solve", "--mass", "1e75", "--tensor-h", "1", "--n", "1", "--kappa", "-1"), 3, "mass"),
    (("solve", "--c-sym", "1e155", "--n", "1", "--kappa", "-1"), 3, "c_sym"),
    (("solve", "--tensor-h", "1e155", "--n", "2", "--kappa", "-3"), 3, "tensor_h"),
    (("solve", "--mass", "1e300", "--n", "1", "--kappa", "-1"), 3, "mass"),
    (("analyze", "--which", "sweep", "--alpha", "1e-300", "--no-strict-domain"), 3, "alpha"),
    (("analyze", "--which", "approx", "--alpha", "1e155", "--no-strict-domain"), 2, "alpha"),
    (("analyze", "--which", "potential", "--alpha", "1e155", "--no-strict-domain"), 2, "alpha"),
    (("analyze", "--which", "potential", "--profile-r-min", "1e-300"), 2, "alpha"),
    (("wavefunction", "--r-min", "1e-270", "--n", "2", "--kappa", "3"), 3, "r in"),
    # the lower table holds; the completion's residual s^2 psi'' leaves the doubles
    (("wavefunction", "--tensor-h", "1", "--n", "1", "--kappa", "-1", "--r-min", "1e-200"),
     3, "the spinor table"),
    # V1 + V2 + V3 cancels to rounding noise where A dwarfs 8; it used to be
    # 0.0, which the oracle divided by
    *((("solve", "--n", "1", "--kappa", "-1", "--no-strict-domain", f"--a-shape={a}"), 3,
       "alpha = 0.6, a_shape = ") for a in ("1e17", "1e20", "1e75", "-1e17")),
    (("wavefunction", "--n", "1", "--kappa", "-1", "--no-strict-domain", "--a-shape", "1e17"),
     3, "alpha = 0.6, a_shape = "),
    (("analyze", "--which", "sweep", "--no-strict-domain", "--a-shape", "1e17"), 3,
     "alpha = 0.6, a_shape = "),
    # U's coefficients stay in the doubles, but an entry -c_k / c_0 of its
    # companion matrix does not
    (("solve", "--symmetry", "spin", "--alpha", "1e50", "--tensor-h", "1000", "--n", "1",
      "--kappa", "-1"), 3, "alpha = 1e+50, c0 = 0.08333333333333333 put an entry of the "
                           "oracle's companion matrix at -inf"),
    (("solve", "--n", "1", "--kappa", str(-10**400)), 2, "'states'"),
    (("wavefunction", "--n", str(10**400), "--kappa", "-1"), 2, "'states'"),
]


class TestOverflow:
    @pytest.mark.parametrize("args, code, name", OVERFLOWS,
                             ids=[" ".join(a)[:80] for a, _, _ in OVERFLOWS])
    def test_named_error_without_traceback(self, args, code, name, capsys, monkeypatch):
        # in process, so a RuntimeWarning or an escaping exception fails the test
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        got = main(list(args))
        captured = capsys.readouterr()
        assert got == code
        if captured.err:
            errors = [captured.err]
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        else:  # solve and sweep put the error into the failed records
            errors = [rec["error"] for rec in json.loads(captured.out)["records"]]
        assert errors and all(e.startswith(("error: DomainError: ", "DomainError: "))
                              or code == 2 for e in errors)
        assert all(name in e for e in errors)
        if code == 2:
            assert captured.out == ""


class TestCsvFields:
    """Every CSV row reads back with the header's field count, error rows
    too, whose texts hold commas and are quoted as ``csv`` quotes them."""

    @pytest.mark.parametrize(
        "args",
        [args for args, code, _ in OVERFLOWS if code == 3 and args[0] in ("solve", "analyze")]
        + [("analyze", "--which", "sweep", "--assembly", "reference"),
           ("solve", "--n", "1", "--kappa", "-1", "--mass", "0.001", "--c-sym", "-5")],
        ids=lambda args: " ".join(args)[:80],
    )
    def test_rows_have_the_header_field_count(self, args, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        _, out = run_main(capsys, *args, "--format", "csv")
        header, *body = csv.reader(io.StringIO(
            "".join(line for line in out.splitlines(True) if not line.startswith("#"))))
        assert body and all(len(row) == len(header) for row in body)

    def test_quoted_cell_reads_back_as_the_error(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        args = ("solve", "--symmetry", "spin", "--alpha", "1e50", "--tensor-h", "1000",
                "--n", "1", "--kappa", "-1")
        _, out = run_main(capsys, *args)
        (record,) = json.loads(out)["records"]
        _, out = run_main(capsys, *args, "--format", "csv")
        header, row = csv.reader(line for line in out.splitlines() if not line.startswith("#"))
        assert "," in record["error"]
        assert dict(zip(header, row))["error"] == record["error"]


class TestPinnedOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args, code, json_digest, csv_digest", PINNED, ids=[" ".join(p[0]) for p in PINNED]
    )
    def test_stdout_digest(self, args, code, json_digest, csv_digest, fmt,
                           tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        argv = list(args)
        for name, data in PINNED_CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            argv = [a.replace("{" + name + "}", str(path)) for a in argv]
        got_code, out = run_main(capsys, *argv, "--format", fmt)
        assert got_code == code
        digest = json_digest if fmt == "json" else csv_digest
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_flags_and_config_keys_are_one_schema(self, tmp_path, capsys, monkeypatch):
        # every scalar config key is a flag too, and a flag overrides the file
        monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PINNED_CONFIGS["approx_study"], "format": "json"}))
        study = PINNED_CONFIGS["approx_study"]
        flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in study.items()]
        by_flags = run_main(capsys, "analyze", "--which", "approx", *flags, "--format", "csv")
        by_file = run_main(capsys, "analyze", "--which", "approx", "--config", str(path),
                           "--format", "csv")
        assert by_flags == by_file
        csv_digest = next(csv for args, _, _, csv in PINNED
                          if args == ("analyze", "--which", "approx", "--config", "{approx_study}"))
        assert hashlib.sha256(by_file[1].encode()).hexdigest() == csv_digest

    def test_integer_config_values_become_floats(self):
        cfg = RunConfig.from_dict({"mass": 5, "tensor_h": 1, "margin": 0, "grid_points": 101})
        assert (cfg.mass, cfg.tensor_h, cfg.margin, cfg.grid_points) == (5.0, 1.0, 0.0, 101)
        assert isinstance(cfg.mass, float) and isinstance(cfg.grid_points, int)


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

    def test_solve_and_table_load_no_numpy_polynomial(self):
        code, out, err = run_python(
            "-c",
            "import contextlib, io, sys, dirac_nu, dirac_nu.cli\n"
            "loaded = ['numpy.polynomial' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [dirac_nu.cli.main(['solve', '--n', '1', '--kappa', '-1']),\n"
            "             dirac_nu.cli.main(['table', '--which', 'pseudospin'])]\n"
            "loaded.append('numpy.polynomial' in sys.modules)\n"
            "print(codes, loaded)",
        )
        assert code == 0, err
        assert out.strip() == "[0, 0] [False, False]"

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
