#!/usr/bin/env python3
"""dirac-nu benchmark: closed-loop workloads, output checks, optional tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py                         # every workload, summary table
    python3 perfbench/run.py --workload spectrum_scan --seed 3 --seconds 10 --trace 0

One client sends each call or command only after the last one finished.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are for people.
The program under test is imported from ``src/`` of the checkout; the run
refuses to start without it.  Run output and trace files go to
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)  # before numpy loads: one BLAS thread here and in children
os.environ.pop("PSEUDOSPIN_CONFIG", None)  # the CLI would read its options from there

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_JSON = SRC / "dirac_nu" / "data" / "reference_spectra.json"

WORKLOADS = ("cli_oneshot", "spectrum_scan", "spinor_tables")
SETUP_IMPORTS = 7        # fresh interpreters per run; setup_s is their median
IMPORTTIME_RUNS = 3      # -X importtime interpreters in a traced run
SPECTRUM_SAMPLE = 64     # seeded states per spectrum_scan round, beside the 64 reference cells
CHILD_TIMEOUT_S = 60.0
CALIBRATE_EVERY_S = 0.1  # of operation time between calibrations (speed.py)


class BenchError(Exception):
    """The benchmark cannot run: missing program, failed set-up, broken child."""


# ----------------------------------------------------------------- children

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ChildResult:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mib: float


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Run one subprocess to its end; its own rusage gives its peak RSS."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0)


def parse_importtime(text: str) -> list[tuple[int, str, int]]:
    """(nesting level, module, cumulative us) rows of ``-X importtime`` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].lstrip()
        rows.append(((len(parts[2]) - len(name) - 1) // 2, name, int(parts[1])))
    return rows


def cumulative_us(rows: list[tuple[int, str, int]], prefix: str) -> int:
    """Cumulative import time of the outermost modules named ``prefix`` or ``prefix.*``.

    Rows come children first; walking them backwards visits each parent
    before its children, so a stack of levels tells whether an ancestor
    already matched.
    """
    total, stack = 0, []
    for level, name, cum in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        covered = bool(stack) and stack[-1][1]
        hit = name == prefix or name.startswith(prefix + ".")
        if hit and not covered:
            total += cum
        stack.append((level, covered or hit))
    return total


def measure_setup(env: dict[str, str], importtime: bool) -> tuple[float, list]:
    """Median time of a fresh interpreter running ``import dirac_nu``.

    Calibration blocks run after each import, and the median is scaled by
    their factor (``speed.py``), like every timed operation.
    """
    flags = ["-X", "importtime"] if importtime else []
    warm = run_child([sys.executable, "-c", "import dirac_nu"], env)  # also writes bytecode
    if warm.code != 0:
        raise BenchError(f"import dirac_nu failed: {warm.stderr.decode(errors='replace')}")
    calibration = speed.Speed()
    walls, trees = [], []
    for _ in range(IMPORTTIME_RUNS if importtime else SETUP_IMPORTS):
        res = run_child([sys.executable, *flags, "-c", "import dirac_nu"], env)
        if res.code != 0:
            raise BenchError(f"import dirac_nu failed: {res.stderr.decode(errors='replace')}")
        calibration.calibrate(res.wall_s)
        walls.append(res.wall_s)
        trees.append(parse_importtime(res.stderr.decode()))
    return calibration.factor() * statistics.median(walls), trees


# ------------------------------------------------------------- the loop

@dataclass
class Op:
    """One operation of a round: ``call`` returns the program's output."""

    kind: str
    key: Any
    call: Callable[[], Any]
    units: int = 1          # work items it completes: states for a sweep, else 1


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    work: int = 0           # work items of the operations that completed
    op_time_s: float = 0.0  # all operations, failed ones too, at reference speed
    op_latency: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    outputs: dict[int, list] = field(default_factory=lambda: defaultdict(list))
    errors: dict[int, list[str]] = field(default_factory=lambda: defaultdict(list))
    round_time: dict[bool, float] = field(default_factory=lambda: defaultdict(float))
    calibration: speed.Speed = field(default_factory=speed.Speed)

    def latency_s(self, ops: list[Op], kind: str) -> float:
        """Mean latency of the ``kind`` operations that completed.

        Every operation runs once a round, so this is also the mean over
        the operations of each one's mean.  A mean, not a median, because
        the calibration that scales it is a mean over the same stretch.
        """
        return statistics.fmean(self.samples(ops, kind) or [math.nan])

    def samples(self, ops: list[Op], kind: str) -> list[float]:
        return [t for i, v in self.op_latency.items() if ops[i].kind == kind for t in v]

    def rate(self) -> float:
        """Work items completed per second of operation time."""
        return self.work / self.op_time_s


def run_rounds(ops: list[Op], seconds: float, fingerprint: Callable[[Op, Any], Any],
               tracer=None) -> LoopResult:
    """Closed loop over whole rounds of ``ops`` until ``seconds`` have passed.

    Each output is reduced to a fingerprint (kept for the determinism
    check); the first round's full outputs are kept for the output checks.
    With a tracer, rounds alternate untraced and traced and the loop ends
    on a traced round, so overhead compares equal numbers of rounds.
    Calibration blocks (``speed.py``) run after each ``CALIBRATE_EVERY_S``
    of operation time, and every latency is scaled by the run's factor;
    ``round_time`` stays unscaled.
    """
    res = LoopResult()
    uncovered = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and res.rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = res.attempted
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # the program failed this operation: count it
                    dt = time.perf_counter() - t0
                    res.failed += 1
                    res.errors[i].append(f"{type(exc).__name__}: {exc}")
                else:
                    dt = time.perf_counter() - t0
                    res.work += op.units
                    res.op_latency[i].append(dt)
                    res.outputs[i].append(out if res.rounds == 0 else fingerprint(op, out))
                res.round_time[traced] += dt
                uncovered += dt
                if uncovered >= CALIBRATE_EVERY_S:
                    res.calibration.calibrate(uncovered)
                    uncovered = 0.0
        finally:
            if traced:
                tracer.uninstall()
        res.rounds += 1
        elapsed = time.perf_counter() - start
        if res.rounds >= 2 and elapsed >= seconds and (tracer is None or res.rounds % 2 == 0):
            break
    res.wall_s = time.perf_counter() - start
    if uncovered > 0.0:
        res.calibration.calibrate(uncovered)
    k = res.calibration.factor()
    for times in res.op_latency.values():
        times[:] = [k * t for t in times]
    res.op_time_s = k * (res.round_time[False] + res.round_time[True])
    return res


def determinism_problems(ops: list[Op], res: LoopResult,
                         fingerprint: Callable[[Op, Any], Any]) -> list[str]:
    problems = []
    for i, outs in res.outputs.items():
        first = fingerprint(ops[i], outs[0])
        if any(fp != first for fp in outs[1:]):
            problems.append(f"{ops[i].kind} {ops[i].key}: output changed between rounds")
    for i, errs in res.errors.items():
        if len(set(errs)) > 1 or (i in res.outputs):
            problems.append(f"{ops[i].kind} {ops[i].key}: fails only in some rounds: {errs[0]}")
    return problems


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------- the program

class Program:
    """The package under test, imported from the checkout's src/."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import dirac_nu
        import dirac_nu.cli

        if Path(dirac_nu.__file__).resolve().parent != SRC / "dirac_nu":
            raise BenchError(f"dirac_nu imported from {dirac_nu.__file__}, not from {SRC}")
        self.pkg = dirac_nu
        self.cli = dirac_nu.cli

    def equation(self, case):
        d = self.pkg
        return d.build_equation(d.ModelParams(**case.params()),
                                d.StateIndex(case.n, case.kappa), case.assembly)

    def cli_inproc(self, argv: list[str]) -> str:
        """``dirac_nu.cli.main`` after import, stdout to a buffer; raises on a non-zero exit."""
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return buf.getvalue()


def reference_cells() -> tuple[dict, list[dict]]:
    """Parameters and cells of the bundled published tables, read straight from the JSON."""
    raw = json.loads(REFERENCE_JSON.read_text())
    cells = [dict(entry, symmetry=sym) for sym in ("pseudospin", "spin") for entry in raw[sym]]
    return raw["parameters"], cells


def reference_problem(pars: dict, symmetry: str, n: int, kappa: int, h: float,
                      assembly: Optional[str] = None):
    assembly = assembly or ("strict" if symmetry == "pseudospin" else "reference")
    return checks.Problem(symmetry, assembly, pars["mass"], pars["c_sym"], h, pars["alpha"],
                          pars["a_shape"], 1.0 / 12.0, n, kappa)


# ------------------------------------------------------- CLI workload

def cli_output_problems(name: str, text: str) -> list[str]:
    """Parse one CLI output and run the physics checks on it."""
    pars, cells = reference_cells()
    rs = inputs.README_STATE
    problems: list[str] = []
    if name == "solve":
        rec = json.loads(text)["records"][0]
        pb = reference_problem(pars, "pseudospin", rs["n"], rs["kappa"], rs["tensor_h"])
        cell = next(c for c in cells if c["symmetry"] == "pseudospin" and c["n"] == rs["n"]
                    and c["kappa"] == rs["kappa"] and c["tensor_h"] == rs["tensor_h"])
        problems += checks.check_reference(cell["energies"], rec["E_all_real_roots"], "cli solve")
        for e in rec["E_all_real_roots"]:
            problems += checks.check_root(pb, e)
    elif name.startswith("table_"):
        symmetry = name.split("_", 1)[1]
        records = json.loads(text)["records"]
        want = sorted((c["n"], c["kappa"], c["tensor_h"], e) for c in cells
                      if c["symmetry"] == symmetry for e in c["energies"])
        got = sorted((r["n"], r["kappa"], r["H"], r["E_reference"]) for r in records)
        if got != want:
            problems.append(f"cli {name}: records do not cover the bundled cells")
        for r in records:
            where = f"cli {name} n={r['n']} kappa={r['kappa']} H={r['H']}"
            if r["E_computed"] is None:
                problems.append(f"{where}: no computed energy")
                continue
            problems += checks.check_reference([r["E_reference"]], [r["E_computed"]], where)
            pb = reference_problem(pars, symmetry, r["n"], r["kappa"], r["H"])
            problems += checks.check_root(pb, r["E_computed"])
    elif name == "wavefunction":
        lines = text.splitlines()
        header = {k.strip(): v.strip() for k, v in
                  (ln[1:].split("=", 1) for ln in lines if ln.startswith("# ") and " = " in ln)}
        rows = [tuple(map(float, ln.split(","))) for ln in lines[lines.index("r,G,F") + 1:]]
        r, g, f = (list(col) for col in zip(*rows))
        energy = float(header["E"])
        pb = reference_problem(pars, "pseudospin", rs["n"], rs["kappa"], rs["tensor_h"])
        problems += checks.check_root(pb, energy)
        if int(header["node_count"]) != rs["n"]:
            problems.append(f"cli wavefunction: node_count {header['node_count']} != {rs['n']}")
        problems += checks.check_decaying_table(r, g, f, g, rs["n"], "cli wavefunction")
    elif name == "sweep":
        records = json.loads(text)["records"]
        neg, pos = inputs.SWEEP_DOUBLETS["pseudospin"]
        labels = list(dict.fromkeys(rec["state"] for rec in records))
        series = {lab: [rec for rec in records if rec["state"] == lab] for lab in labels}
        if len(labels) != 2:
            return [f"cli sweep: expected one doublet, got {labels}"]
        for lab, state in zip(labels, (neg, pos)):
            for rec in series[lab]:
                pb = reference_problem(pars, "pseudospin", state[0], state[1], rec["H"])
                problems += checks.check_root(pb, rec["E_selected"])
        problems += checks.check_splitting(
            [rec["H"] for rec in series[labels[0]]],
            [rec["E_selected"] for rec in series[labels[0]]],
            [rec["E_selected"] for rec in series[labels[1]]], "cli sweep")
    return problems


def cli_subprocess_op(name: str, argv: list[str], env: dict[str, str], peak: list[float]) -> Op:
    def call() -> bytes:
        res = run_child([sys.executable, "-m", "dirac_nu.cli", *argv], env)
        peak[0] = max(peak[0], res.peak_rss_mib)
        if res.code != 0:
            raise RuntimeError(f"exit {res.code}: {res.stderr.decode(errors='replace').strip()}")
        return res.stdout

    return Op("cli", name, call)


@dataclass
class WorkloadRun:
    ops: list[Op]
    loop: LoopResult
    problems: list[str]
    work_kind: str          # which latency samples the end-to-end metrics read
    peak_rss_mib: float
    named_metrics: dict[str, tuple[float, str]]


def cli_fingerprint(op: Op, out) -> Any:
    return out


def run_cli(seed: int, seconds: float, env, program, tracer) -> WorkloadRun:
    order = inputs.cli_order(seed)
    peak = [0.0]
    if tracer is None:
        ops = [cli_subprocess_op(name, inputs.CLI_COMMANDS[name], env, peak) for name in order]
    else:
        ops = [Op("cli", name, (lambda argv=inputs.CLI_COMMANDS[name]: program.cli_inproc(argv)))
               for name in order]
    loop = run_rounds(ops, seconds, cli_fingerprint, tracer)
    problems = determinism_problems(ops, loop, cli_fingerprint)
    for i, outs in loop.outputs.items():
        text = outs[0] if isinstance(outs[0], str) else outs[0].decode()
        problems += cli_output_problems(ops[i].key, text)
    named = {"cli_wall_s": (loop.latency_s(ops, "cli"), "s"),
             "cli_commands_per_s": (loop.rate(), "1/s")}
    return WorkloadRun(ops, loop, problems, "cli", peak[0], named)


# --------------------------------------------------- spectrum workload

def spectrum_fingerprint(op: Op, out) -> Any:
    if op.kind == "solve":
        return tuple(r.energy for r in out.roots), out.selected and out.selected.energy
    return tuple((row.energy_neg, row.energy_pos, row.error) for row in out.rows)


def run_spectrum(seed: int, seconds: float, env, program, tracer) -> WorkloadRun:
    d = program.pkg
    pars, cells = reference_cells()
    ops: list[Op] = []
    problems_of: dict[int, Callable[[Any], list[str]]] = {}

    def add_solve(key, case_params: dict, n: int, kappa: int, assembly, check):
        def call():
            eq = d.build_equation(d.ModelParams(**case_params), d.StateIndex(n, kappa), assembly)
            return d.solve_spectrum(eq)

        problems_of[len(ops)] = check
        ops.append(Op("solve", key, call))

    def solve_checks(pb, published=None):
        def check(res) -> list[str]:
            where = f"solve {pb}"
            out = [p for r in res.roots for p in checks.check_root(pb, r.energy)]
            wanted = [r.energy for r in res.roots
                      if (r.energy < 0.0) == (pb.symmetry == "pseudospin")]
            chosen = res.selected.energy if res.selected else None
            if chosen != (min(wanted) if wanted else None):
                out.append(f"{where}: selected {chosen!r}, lowest physical root {wanted!r}")
            if published is not None:
                out += checks.check_reference(published, [r.energy for r in res.roots], where)
            return out
        return check

    base = dict(mass=pars["mass"], c_sym=pars["c_sym"], alpha=pars["alpha"],
                a_shape=pars["a_shape"])
    for c in cells:
        pb = reference_problem(pars, c["symmetry"], c["n"], c["kappa"], c["tensor_h"])
        add_solve(("cell", c["symmetry"], c["n"], c["kappa"], c["tensor_h"]),
                  dict(base, symmetry=c["symmetry"], tensor_h=c["tensor_h"]),
                  c["n"], c["kappa"], None, solve_checks(pb, c["energies"]))
    for k, case in enumerate(inputs.spectrum_sample(seed, SPECTRUM_SAMPLE)):
        pb = checks.Problem.of(program.equation(case))
        add_solve(("sample", k), case.params(), case.n, case.kappa, case.assembly,
                  solve_checks(pb))
    for symmetry, (neg, pos) in inputs.SWEEP_DOUBLETS.items():
        params = d.ModelParams(symmetry=symmetry, **base)
        doublet = [(d.StateIndex(*neg), d.StateIndex(*pos))]

        def sweep(params=params, doublet=doublet):
            return d.h_sweep(params, doublet, inputs.SWEEP_H)

        def check(res, symmetry=symmetry, neg=neg, pos=pos) -> list[str]:
            where = f"h_sweep {symmetry}"
            if any(row.error for row in res.rows):
                return [f"{where}: {[row.error for row in res.rows if row.error]}"]
            out = []
            for row in res.rows:
                for (n, kappa), e in ((neg, row.energy_neg), (pos, row.energy_pos)):
                    pb = reference_problem(pars, symmetry, n, kappa, row.tensor_h)
                    out += checks.check_root(pb, e)
            out += checks.check_splitting([row.tensor_h for row in res.rows],
                                          [row.energy_neg for row in res.rows],
                                          [row.energy_pos for row in res.rows], where)
            return out

        problems_of[len(ops)] = check
        ops.append(Op("sweep", symmetry, sweep, units=2 * len(inputs.SWEEP_H)))

    ops[0].call()  # warm-up: first-call costs are not a solve's latency
    loop = run_rounds(ops, seconds, spectrum_fingerprint, tracer)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = determinism_problems(ops, loop, spectrum_fingerprint)
    for i, outs in loop.outputs.items():
        problems += problems_of[i](outs[0])
    solves = loop.samples(ops, "solve")
    named = {"solve_states_per_s": (loop.rate(), "states/s"),
             "solve_ms": (1e3 * loop.latency_s(ops, "solve"), "ms")}
    if len(solves) >= 100:
        named["solve_p90_ms"] = (1e3 * percentile(solves, 90), "ms")
    return WorkloadRun(ops, loop, problems, "solve", peak, named)


# ----------------------------------------------------- spinor workload

def spinor_fingerprint(op: Op, table) -> Any:
    mid = table.r.size // 3
    return (table.norm_constant, table.node_count, table.residual_norm,
            float(table.g[mid]), float(table.f[mid]))


def spinor_states(seed: int, program) -> list[tuple]:
    """Seeded bound states in nu strata, energies solved here (untimed).

    Candidates are screened with a coarse solve; a kept state is solved
    again with default options, and that energy is the one the table uses.
    """
    d = program.pkg
    rng = random.Random(f"spinor_tables/{seed}")
    coarse = d.SolveOptions(grid_points=2001, oracle_check=False)
    states = []
    for stratum, symmetry, n in inputs.SPINOR_SLOTS:
        lo, hi = inputs.NU_STRATA[stratum]
        for branch in inputs.BRANCHES:
            while True:
                case = inputs.draw_case(rng, symmetry, n)
                eq = program.equation(case)
                pb = checks.Problem.of(eq)

                def fits(res) -> bool:
                    if res.selected is None:
                        return False
                    nu, mu = checks.exponents(pb, res.selected.energy)
                    return lo <= nu < hi and (branch == "terminating"
                                              or mu >= inputs.MU_MIN_DECAYING)

                if fits(d.solve_spectrum(eq, coarse)):
                    res = d.solve_spectrum(eq)
                    if fits(res):
                        states.append((case, branch, eq, res.selected.energy))
                        break
    fault = inputs.FAULT_CASE
    eq = program.equation(fault)
    states.append((fault, "decaying", eq, d.solve_spectrum(eq).selected.energy))
    return states


def run_spinor(seed: int, seconds: float, env, program, tracer) -> WorkloadRun:
    d = program.pkg
    states = spinor_states(seed, program)
    ops = []
    for k, (case, branch, eq, energy) in enumerate(states):
        # looked up at call time, so a traced round calls the wrapper
        fn = "pseudospin_components" if case.symmetry == "pseudospin" else "spin_limit_components"
        ops.append(Op("table", (k, case.symmetry, branch, case.n),
                      (lambda fn=fn, eq=eq, energy=energy, branch=branch:
                       getattr(d, fn)(eq, energy, branch=branch))))
    ops[0].call()  # warm-up
    loop = run_rounds(ops, seconds, spinor_fingerprint, tracer)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = determinism_problems(ops, loop, spinor_fingerprint)
    for k, (case, branch, eq, energy) in enumerate(states):
        problems += checks.check_root(checks.Problem.of(eq), energy)
        if k not in loop.outputs:
            continue
        table = loop.outputs[k][0]
        where = f"table {checks.Problem.of(eq)} {branch}"
        if table.energy != energy:
            problems.append(f"{where}: table energy {table.energy!r} != {energy!r}")
        if branch == "decaying":
            problems += checks.check_decaying_table(table.r, table.g, table.f, table.dominant,
                                                    case.n, where)
        else:
            problems += checks.check_terminating_residual(table.residual_norm, where)
    tables = loop.samples(ops, "table")
    named = {"wavefunctions_per_s": (loop.rate(), "tables/s"),
             "wavefunction_ms": (1e3 * loop.latency_s(ops, "table"), "ms")}
    if len(tables) >= 100:
        named["wavefunction_p90_ms"] = (1e3 * percentile(tables, 90), "ms")
    return WorkloadRun(ops, loop, problems, "table", peak, named)


RUNNERS = {"cli_oneshot": run_cli, "spectrum_scan": run_spectrum, "spinor_tables": run_spinor}


# -------------------------------------------------------- traced run

def layer_metrics(tracer, trees: list, probe_walls: dict[str, float], overhead_pct: float,
                  k: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run (medians per call unless noted).

    Times are scaled by ``k``, the run's calibration factor (``speed.py``).
    """
    dur = tracer.durations()
    med = lambda names, scale: k * scale * statistics.median(
        [t for name in names for t in dur.get(name, [])] or [float("nan")])
    m: dict[str, tuple[float, str]] = {}
    for layer, prefix in (("dirac_nu", "dirac_nu"), ("scipy", "scipy"), ("numpy", "numpy")):
        m[f"import.{layer}_ms"] = (k * statistics.median(cumulative_us(t, prefix) for t in trees)
                                   / 1e3, "ms")
    m["refdata.load_reference_ms"] = (med(["refdata.load_reference"], 1e3), "ms")
    for name in inputs.CLI_COMMANDS:
        m[f"cli.{name}_s"] = (k * probe_walls[name], "s")
    for name in inputs.CLI_COMMANDS:
        m[f"cli.inproc_{name}_ms"] = (med([f"cli.main.{name}"], 1e3), "ms")
    m["spectrum.solve_ms"] = (med(["spectrum.solve_spectrum"], 1e3), "ms")
    own = tracer.self_times()
    solve_own = [t for rec, t in zip(tracer.spans, own) if rec[0] == "spectrum.solve_spectrum"]
    m["spectrum.scan_bisect_ms"] = (k * 1e3 * statistics.median(solve_own), "ms")
    m["spectrum.oracle_ms"] = (med(["spectrum.quartic_oracle"], 1e3), "ms")
    m["spectrum.f_eval_us"] = (med(["spectrum.quantization_function"], 1e6), "us")
    m["spectrum.search_window_us"] = (med(["spectrum.search_window"], 1e6), "us")
    m["spectrum.equation_build_us"] = (med(["spectrum.EnergyEquation"], 1e6), "us")
    solves = [tracer.info[i] for i, rec in enumerate(tracer.spans)
              if rec[0] == "spectrum.solve_spectrum" and i in tracer.info]
    total = lambda key: sum(s[key] for s in solves)
    m["spectrum.roots_per_state"] = (total("roots") / len(solves), "count")
    m["spectrum.oracle_degree"] = (total("degree") / len(solves), "count")
    m["spectrum.oracle_survivors"] = (total("survivors") / len(solves), "count")
    m["spectrum.oracle_spurious"] = (total("spurious") / len(solves), "count")
    m["spectrum.oracle_useful_ratio"] = (total("survivors") / total("degree"), "ratio")
    m["analysis.h_sweep_ms"] = (med(["analysis.h_sweep"], 1e3), "ms")
    m["nu_core.derive_constants_us"] = (med(["nu_core.derive_constants"], 1e6), "us")
    m["nu_core.derive_calls_per_table"] = (
        statistics.median(tracer.per_table("nu_core.derive_constants")), "count")
    m["wavefn.components_ms"] = (med(spans.COMPONENT_SPANS, 1e3), "ms")
    m["wavefn.lower_ms"] = (med(["wavefn.lower_component"], 1e3), "ms")
    m["wavefn.upper_from_lower_ms"] = (med(["wavefn.upper_component_from_lower"], 1e3), "ms")
    m["wavefn.verify_ode_ms"] = (med(["wavefn.verify_ode"], 1e3), "ms")
    m["wavefn.default_grid_ms"] = (med(["wavefn.default_grid"], 1e3), "ms")
    m["wavefn.branch_functions_us"] = (med(["wavefn.branch_functions"], 1e6), "us")
    m["wavefn.jacobi_calls_per_table"] = (
        statistics.median(tracer.per_table("wavefn.jacobi_eval")), "count")
    points = [tracer.info[i]["grid_points"] for i, rec in enumerate(tracer.spans)
              if rec[0] in spans.COMPONENT_SPANS and i in tracer.info]
    m["wavefn.grid_points"] = (statistics.median(points), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def probe(program, env, tracer) -> tuple[dict[str, float], list[str]]:
    """Every CLI command once as a subprocess and once in-process under the tracer.

    It reaches every layer, so each traced run reports every per-layer
    metric; its operations are not counted in ``attempted``.
    """
    walls, problems = {}, []
    tracer.op = -1
    for name, argv in inputs.CLI_COMMANDS.items():
        res = run_child([sys.executable, "-m", "dirac_nu.cli", *argv], env)
        walls[name] = res.wall_s
        if res.code != 0:
            problems.append(f"probe cli {name}: exit {res.code}")
            continue
        tracer.install()
        try:
            text = program.cli_inproc(argv)
        finally:
            tracer.uninstall()
        if text.encode() != res.stdout:
            problems.append(f"probe cli {name}: in-process stdout differs from the subprocess")
        problems += cli_output_problems(name, text)
    return walls, problems


# ------------------------------------------------------------------ main

def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    warnings.simplefilter("ignore")  # the counted fault case warns on every call
    if not (SRC / "dirac_nu" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'dirac_nu'} is missing")
    env = child_env()
    setup_s, trees = measure_setup(env, importtime=trace)
    program = Program()
    tracer = spans.Tracer() if trace else None
    run = RUNNERS[workload](seed, seconds, env, program, tracer)
    loop = run.loop
    print(f"{workload}: seed {seed}, {loop.rounds} rounds of {len(run.ops)} operations "
          f"in {loop.wall_s:.2f} s, attempted {loop.attempted}, failed {loop.failed}")
    for i, errs in sorted(loop.errors.items()):
        print(f"  failed x{len(errs)}: {run.ops[i].kind} {run.ops[i].key}: {errs[0]}")
    blocks = loop.calibration.blocks
    print(f"  calibration: {len(blocks)} blocks, mean {1e3 * statistics.fmean(blocks):.4f} ms "
          f"against {1e3 * speed.REFERENCE_S:g} ms, so times are scaled by "
          f"{loop.calibration.factor():.4f}")
    problems = list(run.problems)
    if trace:
        probe_walls, probe_problems = probe(program, env, tracer)
        problems += probe_problems
        untraced, traced = loop.round_time[False], loop.round_time[True]
        own = tracer.layer_self_times()
        print(f"  self time per layer in the traced rounds ({loop.attempted // 2} operations):")
        for layer in ("refdata", "spectrum", "nu_core", "wavefn", "analysis", "cli"):
            t = own.get(layer, 0.0)
            print(f"    {layer:<9} {1e3 * t / (loop.attempted // 2):10.4f} ms/op "
                  f"{100.0 * t / traced:6.2f} %")
        metrics = layer_metrics(tracer, trees, probe_walls, 100.0 * (traced / untraced - 1.0),
                                loop.calibration.factor())
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{workload}_seed{seed}.jsonl"
        tracer.write(trace_path)
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}; "
              f"overhead {fmt(metrics['trace.overhead_pct'][0])}% on "
              f"{fmt(untraced)} s untraced operation time")
    else:
        if not loop.samples(run.ops, run.work_kind):
            raise BenchError(f"{workload}: no operation completed")
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_ms": (1e3 * loop.latency_s(run.ops, run.work_kind), "ms"),
            "throughput_per_s": (loop.rate(), "1/s"),
            "peak_rss_mib": (run.peak_rss_mib, "MiB"),
        }
        for name, (value, unit) in run.named_metrics.items():
            print(f"  {name} = {fmt(value)} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {fmt(value)} {unit}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more check failures")
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, then one summary table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{workload}: benchmark failed with exit {proc.returncode}")
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':<15} {'correct':<8} {'attempted':>9} {'failed':>7}  metrics")
    for workload, res in results.items():
        shown = ", ".join(f"{k} {fmt(v['value'])} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{workload:<15} {str(res['correct']):<8} {res['attempted']:>9} "
              f"{res['failed']:>7}  {shown}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
