"""Command-line interface.

Subcommands:

* ``solve``         energies of configured states
* ``table``         reproduce the bundled reference spectra with deviations
* ``wavefunction``  sample the spinor components of one state
* ``analyze``       approximation quality, potential profile, or tensor sweep

Configuration comes from (in increasing precedence) built-in defaults, a
JSON config file (``--config`` or the PSEUDOSPIN_CONFIG environment
variable), and command-line flags.  Every scalar ``RunConfig`` field is both
a config key and a flag, and both pass one check: an unknown key, a value
of the wrong type or outside its choices, or a point count above
``model.MAX_POINTS`` is rejected by key name.
Output is CSV or JSON (``--format``), written to stdout or ``--out``;
floats carry 12 significant digits and runs are byte-deterministic.

``table``, ``analyze --which sweep`` and ``solve`` with several states
solve their equations together (``spectrum._solve_all``): a solve's time is
mostly the fixed cost of its numpy calls, not arithmetic, and a batch
shares those calls.  Every result and every error text is that of solving
the states one at a time.

Exit codes: 0 success, 2 usage or configuration error raised before any
state is solved or an ``--out`` that cannot be written, 3 any error raised
while solving a state, a refused equation or other DomainError included
(partial results are still written when possible).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Optional, Sequence

from .analysis import (
    DEFAULT_APPROX_POINTS,
    DEFAULT_APPROX_R_MAX,
    DEFAULT_APPROX_R_MIN,
    DEFAULT_H_VALUES,
    approx_report,
    h_sweep,
    potential_profile,
)
from .errors import ConfigError, DomainError, SolverError
from .model import (MAX_POINTS, PSEUDOSPIN, SPIN, ModelParams, StateIndex, check_points,
                    check_r_min, log_grid)
from .refdata import load_reference
from .spectrum import (
    ASSEMBLY_REFERENCE,
    ASSEMBLY_STRICT,
    NEGATIVE,
    POSITIVE,
    EnergyEquation,
    SolveOptions,
    _one,
    _solve_all,
    solve_spectrum,
)
from .wavefn import (
    DECAYING,
    DEFAULT_GRID_POINTS,
    DEFAULT_R_MIN,
    MIN_INTERIOR,
    TERMINATING,
    default_grid,
    pseudospin_components,
    spin_limit_components,
)

# the values of each choice key, read by both the parser and RunConfig.from_dict
_CHOICES = {
    "symmetry": (PSEUDOSPIN, SPIN),
    "assembly": (ASSEMBLY_REFERENCE, ASSEMBLY_STRICT),
    "branch": (DECAYING, TERMINATING),
    "format": ("csv", "json"),
}

_TABLE_ALIASES = {
    "pseudospin": PSEUDOSPIN,
    "spin": SPIN,
    # legacy spellings with the table number attached
    "pseudospin2": PSEUDOSPIN,
    "spin3": SPIN,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all subcommands."""

    mass: float = 5.0  # ModelParams has no default mass
    symmetry: str = ModelParams.symmetry
    c_sym: float = ModelParams.c_sym
    tensor_h: float = ModelParams.tensor_h
    alpha: float = ModelParams.alpha
    a_shape: float = ModelParams.a_shape
    c0: float = ModelParams.c0
    strict_domain: bool = ModelParams.strict_domain
    assembly: Optional[str] = None
    states: tuple[tuple[int, int], ...] = ()
    doublets: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    h_values: tuple[float, ...] = DEFAULT_H_VALUES
    grid_points: int = SolveOptions.grid_points
    bisect_tol: float = SolveOptions.bisect_tol
    margin: Optional[float] = SolveOptions.margin
    branch: str = DECAYING
    wf_points: int = DEFAULT_GRID_POINTS
    r_min: float = DEFAULT_R_MIN
    approx_r_min: float = DEFAULT_APPROX_R_MIN
    approx_r_max: float = DEFAULT_APPROX_R_MAX
    approx_points: int = DEFAULT_APPROX_POINTS
    profile_r_min: float = 1e-2
    profile_r_max: float = 10.0
    profile_points: int = 500
    format: str = "json"
    out: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """The config of JSON-like ``data``, each value checked against its key's type.

        A float key takes an int or a float and stores a float, an int key
        (each is a point count) takes an int up to ``MAX_POINTS``,
        ``strict_domain`` takes a bool (a bool is never a number here), a
        choice key takes one of its ``_CHOICES``, and the entries of
        ``states``, ``doublets`` and ``h_values`` follow the same rules.
        Anything else raises ConfigError naming the key.
        """
        checked = {}
        for key, value in data.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key: {key!r}")
            checked[key] = _check_value(key, _FIELDS[key], value)
        return cls(**checked)


# the one list of options: each RunConfig field's name and annotation
_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _bad(key: str, value: Any, expected: str) -> ConfigError:
    return ConfigError(f"config key {key!r}: {value!r} is not {expected}")


def _number(key: str, value: Any, kind: type) -> Any:
    # a JSON 5 for a float key means 5.0, so outputs print it as a float; an
    # int that no double holds is refused for either kind
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise _bad(key, value, expected)
    try:
        as_float = float(value)
    except OverflowError:
        raise _bad(key, value, expected + " within the doubles") from None
    return value if kind is int else as_float


def _list(key: str, value: Any) -> Any:
    if not isinstance(value, (list, tuple)):
        raise _bad(key, value, "a list")
    return value


def _state(key: str, entry: Any) -> tuple[int, int]:
    if isinstance(entry, dict):
        try:
            entry = entry["n"], entry["kappa"]
        except KeyError as exc:
            raise ConfigError(f"config key {key!r}: state entry missing key {exc}") from None
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise _bad(key, entry, "a state [n, kappa]")
    return _number(key, entry[0], int), _number(key, entry[1], int)


def _doublet(key: str, pair: Any) -> tuple[tuple[int, int], tuple[int, int]]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise _bad(key, pair, "a pair of states")
    return _state(key, pair[0]), _state(key, pair[1])


def _check_value(key: str, annotation: str, value: Any) -> Any:
    """``value`` checked for the ``RunConfig`` field ``key`` of type ``annotation``."""
    if value is None and annotation.startswith("Optional["):
        return None
    if key in _CHOICES:
        if value not in _CHOICES[key]:
            raise _bad(key, value, "one of " + ", ".join(_CHOICES[key]))
        return value
    if key == "states":
        return tuple(_state(key, entry) for entry in _list(key, value))
    if key == "doublets":
        return tuple(_doublet(key, pair) for pair in _list(key, value))
    if key == "h_values":
        return tuple(_number(key, h, float) for h in _list(key, value))
    if annotation == "bool":
        if not isinstance(value, bool):
            raise _bad(key, value, "true or false")
        return value
    if annotation == "Optional[str]":
        if not isinstance(value, str):
            raise _bad(key, value, "a string")
        return value
    if annotation == "int":  # a point count, bounded before anything is allocated
        count = _number(key, value, int)
        if count > MAX_POINTS:
            raise _bad(key, value, f"a point count up to {MAX_POINTS}")
        return count
    return _number(key, value, float)


# 12 significant digits: the text of format(float(x), ".12g") for ints,
# floats and numpy floats alike
_NUMBER = "%.12g"


def _fmt(x: float) -> str:
    return _NUMBER % x


def _model_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(**{f.name: getattr(cfg, f.name) for f in fields(ModelParams)})


def _solve_options(cfg: RunConfig) -> SolveOptions:
    # oracle_check is not a RunConfig field and keeps its default
    return SolveOptions(**{f.name: getattr(cfg, f.name) for f in fields(SolveOptions)
                           if f.name in _FIELDS})


def _header(params: ModelParams, cfg: RunConfig, **extra: Any) -> dict[str, Any]:
    """The ``params`` block: the model actually solved, the assembly, then ``extra``."""
    return {**asdict(params), "assembly": cfg.assembly, **extra}


def _json_value(value: Any) -> Any:
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, list):
        return [float(_fmt(x)) for x in value]
    return value


def _csv_cell(value: Any, missing: str = "") -> str:
    if value is None:
        return missing
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(map(_fmt, value))
    return _fmt(value)


def _csv_quoted(cell: str) -> str:
    """A data cell as ``csv.QUOTE_MINIMAL`` writes it: in double quotes, its
    own doubled, where it holds a comma, a double quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _records(columns: Sequence[str], *arrays: Any) -> list[dict[str, Any]]:
    """One record per row of the equal-length ``arrays``, keyed by ``columns``."""
    return [dict(zip(columns, row)) for row in zip(*(a.tolist() for a in arrays))]


def _emit(
    cfg: RunConfig,
    header: dict[str, Any],
    columns: Sequence[str],
    records: Sequence[dict[str, Any]],
    notes: Sequence[str] = (),
    summary: Optional[dict[str, Any]] = None,
) -> None:
    """Write one subcommand's result to ``cfg.out`` or stdout, as CSV or JSON.

    ``records`` hold raw values: numbers, None, strings and lists of roots.
    Floats carry 12 significant digits in both formats.  JSON writes
    ``{params, records, notes}`` with ``summary`` folded into ``params``.
    CSV writes ``# params:``, one ``# key = value`` line per summary entry,
    one ``# note`` line per note, then the ``columns`` with a row per
    record: an absent value is an empty cell (an em-dash for
    ``deviation``), a list of roots is joined by ``;``, and a cell that
    holds a comma, a quote or a line break is quoted as ``csv`` quotes it.
    """
    params = {key: _json_value(value) for key, value in header.items()}
    summary = summary or {}
    if cfg.format == "csv":
        lines = ["# params: " + " ".join(f"{k}={v}" for k, v in params.items())]
        lines += [f"# {k} = {_csv_cell(v)}" for k, v in summary.items()]
        lines += [f"# {note}" for note in notes]
        lines.append(",".join(columns))
        # each column picks its format once: a column of numbers alone is
        # formatted by the row template, any other column as text up front
        specs, cells = [], []
        for name in columns:
            values = [rec.get(name) for rec in records]
            if None in values or (values and isinstance(values[0], (str, list))):
                missing = "—" if name == "deviation" else ""
                values = [_csv_quoted(_csv_cell(v, missing)) for v in values]
                specs.append("%s")
            else:
                specs.append(_NUMBER)
            cells.append(values)
        row = ",".join(specs)
        lines += [row % values for values in zip(*cells)]
        text = "\n".join(lines) + "\n"
    else:
        payload: dict[str, Any] = {
            "params": {**params, **{k: _json_value(v) for k, v in summary.items()}},
            "records": [{k: _json_value(v) for k, v in rec.items()} for rec in records],
        }
        if notes:
            payload["notes"] = list(notes)
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_solve(cfg: RunConfig) -> int:
    """Solve every configured state; partial output plus exit 3 on failure."""
    if not cfg.states:
        raise ConfigError("no states configured; pass --n/--kappa or a states list")
    params = _model_params(cfg)
    opts = _solve_options(cfg)

    # every state's equation, or the error that building it raised, then one batch
    equations: list[Any] = []
    for n, kappa in cfg.states:
        try:
            equations.append(EnergyEquation(params, StateIndex(n=n, kappa=kappa), cfg.assembly))
        except SolverError as exc:
            equations.append(exc)

    records: list[dict[str, Any]] = []
    failed = False
    for (n, kappa), eq, outcome in zip(cfg.states, equations, _solve_all(equations, opts)):
        base = {"n": n, "kappa": kappa, "H": cfg.tensor_h}
        record: dict[str, Any] = dict(base)
        try:
            result = _one(outcome)
            state = eq.state
            selected = result.selected
            record["Lambda_or_Eta"] = eq.q
            record["spectroscopic_label"] = state.spectroscopic_label(params.symmetry)
            record["E_selected"] = selected.energy if selected else None
            record["E_all_real_roots"] = [r.energy for r in result.roots]
            record["residual"] = selected.residual if selected else None
            if result.selection_note:
                record["selection_note"] = result.selection_note
        except SolverError as exc:
            failed = True
            record = {**base, "error": f"{type(exc).__name__}: {exc}"}
        records.append(record)

    columns = ["n", "kappa", "H", "Lambda_or_Eta", "spectroscopic_label",
               "E_selected", "E_all_real_roots", "residual", "error"]
    _emit(cfg, _header(params, cfg), columns, records)
    return 3 if failed else 0


def cmd_table(cfg: RunConfig, which: str) -> int:
    """Recompute one reference table and report deviations.

    Every cell is solved at the bundled reference parameters, whatever
    the model flags say, and the header reports those parameters.
    Reference cells list the negative root first and the positive root
    second when it exists; each printed value is matched to the computed
    root of the same sign class.  A missing computed counterpart leaves
    an em-dash in the deviation column and flips the exit code to 3.
    """
    symmetry = _TABLE_ALIASES.get(which)
    if symmetry is None:
        raise ConfigError(f"unknown table {which!r}; choose from {sorted(_TABLE_ALIASES)}")
    data = load_reference()
    reference = replace(data.params(symmetry, 0.0), strict_domain=cfg.strict_domain)
    opts = _solve_options(cfg)

    cells = data.select(symmetry)
    equations: list[Any] = []
    for cell in cells:
        try:
            equations.append(EnergyEquation(replace(reference, tensor_h=cell.tensor_h),
                                            cell.state, cfg.assembly))
        except SolverError as exc:
            equations.append(exc)

    records: list[dict[str, Any]] = []
    notes: list[str] = []
    failed = False
    for cell, outcome in zip(cells, _solve_all(equations, opts)):
        error, roots = "", ()
        try:
            roots = _one(outcome).roots
        except SolverError as exc:
            failed = True
            error = f"{type(exc).__name__}: {exc}"
        negatives = [r.energy for r in roots if r.sign_class == NEGATIVE]
        positives = [r.energy for r in roots if r.sign_class == POSITIVE]
        for energy in cell.energies:
            sign = NEGATIVE if energy < 0 else POSITIVE
            pool = negatives if sign == NEGATIVE else positives
            computed = min(pool) if pool else None
            failed = failed or computed is None
            records.append({
                "n": cell.state.n,
                "kappa": cell.state.kappa,
                "H": cell.tensor_h,
                "label": cell.label,
                "sign": sign,
                "E_reference": energy,
                "E_computed": computed,
                "deviation": None if computed is None else computed - energy,
                **({"error": error} if error else {}),
            })
        extra_neg = len(negatives) - sum(1 for e in cell.energies if e < 0)
        extra_pos = len(positives) - sum(1 for e in cell.energies if e > 0)
        if extra_neg > 0 or extra_pos > 0:
            notes.append(
                f"state n={cell.state.n} kappa={cell.state.kappa} H={cell.tensor_h:g}: "
                f"computed roots without reference counterpart "
                f"(negative: {extra_neg}, positive: {extra_pos})"
            )

    quoted = [q for q in data.quoted if q.symmetry == symmetry]
    if quoted:
        notes.append(data.quoted_note)
        for q in quoted:
            notes.append(
                f"quoted (not matched): n={q.state.n} kappa={q.state.kappa} "
                f"H={q.tensor_h:g} E={_fmt(q.energy)}"
            )

    header = _header(reference, cfg, table_symmetry=symmetry,
                     reference_assembly="reference")
    columns = ["n", "kappa", "H", "label", "sign", "E_reference", "E_computed", "deviation"]
    _emit(cfg, header, columns, records, notes)
    return 3 if failed else 0


def cmd_wavefunction(cfg: RunConfig) -> int:
    """Sample the spinor pair of exactly one configured state."""
    if len(cfg.states) != 1:
        raise ConfigError(f"wavefunction needs exactly one state, got {len(cfg.states)}")
    # the table's own verify_ode needs MIN_INTERIOR points between the ends
    check_points("wf_points", cfg.wf_points, MIN_INTERIOR + 2)
    # r_max depends on the solved energy, so only r_min itself is checked here
    check_r_min(cfg.r_min)
    opts = _solve_options(cfg)
    params = _model_params(cfg)
    n, kappa = cfg.states[0]
    try:
        eq = EnergyEquation(params, StateIndex(n=n, kappa=kappa), cfg.assembly)
        result = solve_spectrum(eq, opts)
        if result.selected is None:
            raise SolverError(
                f"no physical root for state (n={n}, kappa={kappa}): {result.selection_note}"
            )
        energy = result.selected.energy
        grid = default_grid(eq, energy, n_points=cfg.wf_points, r_min=cfg.r_min)
        if params.symmetry == PSEUDOSPIN:
            table = pseudospin_components(eq, energy, grid, cfg.branch)
        else:
            table = spin_limit_components(eq, energy, grid, cfg.branch)
    except SolverError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3

    summary = {"E": table.energy, "norm_constant": table.norm_constant,
               "node_count": table.node_count, "residual_norm": table.residual_norm}
    columns = ["r", "G", "F"]
    records = _records(columns, table.r, table.g, table.f)
    header = _header(params, cfg, n=n, kappa=kappa, branch=table.branch)
    _emit(cfg, header, columns, records, summary=summary)
    return 0


# the doublet a sweep follows when the config names none
_DEFAULT_DOUBLETS = {PSEUDOSPIN: (((1, -1), (1, 2)),), SPIN: (((0, -2), (0, 1)),)}


def cmd_analyze(cfg: RunConfig, which: str) -> int:
    """Approximation report, potential profile, or tensor-strength sweep."""
    params = _model_params(cfg)
    # a grid needs both its ends; checked here so that the error names the
    # key rather than log_grid's n_points
    if which == "approx":
        check_points("approx_points", cfg.approx_points, 2)
        report = approx_report(params, cfg.approx_r_min, cfg.approx_r_max, cfg.approx_points)
        notes = [
            f"max_rel_err = {_fmt(report.max_rel_err)} at r = {_fmt(report.r_at_max)}",
            f"max_rel_err with c0 = 0: {_fmt(report.max_rel_err_nocorr)}",
        ]
        columns = ["r", "exact", "approx", "rel_err"]
        records = _records(columns, report.r, report.exact, report.approx, report.rel_err)
        _emit(cfg, _header(params, cfg), columns, records, notes)
        return 0

    if which == "potential":
        check_points("profile_points", cfg.profile_points, 2)
        r = log_grid(cfg.profile_r_min, cfg.profile_r_max, cfg.profile_points)
        profile = potential_profile(params, r)
        notes = [f"asymptote V3 = {_fmt(profile.asymptote)}"]
        columns = ["r", "V", "U"]
        records = _records(columns, profile.r, profile.v, profile.u)
        _emit(cfg, _header(params, cfg), columns, records, notes)
        return 0

    if which == "sweep":
        pairs = cfg.doublets or _DEFAULT_DOUBLETS[params.symmetry]
        doublets = [(StateIndex(*neg), StateIndex(*pos)) for neg, pos in pairs]
        sweep = h_sweep(params, doublets, cfg.h_values, _solve_options(cfg), cfg.assembly)
        columns = ["H", "state", "E_selected", "delta_E", "error"]
        records = [
            {**dict(zip(columns, (row.tensor_h, label, energy, row.delta_e))),
             **({"error": row.error} if row.error else {})}
            for row in sweep.rows
            for label, energy in ((row.label_neg, row.energy_neg), (row.label_pos, row.energy_pos))
        ]
        _emit(cfg, _header(params, cfg), columns, records, sweep.directions)
        return 3 if any(row.error for row in sweep.rows) else 0

    raise ConfigError(f"unknown analyze target {which!r}; choose approx, potential, or sweep")


# the annotation of each scalar RunConfig field and the flag type it parses to
_FLAG_TYPES = {"float": float, "int": int, "str": str}


def _build_parser() -> argparse.ArgumentParser:
    """Every scalar RunConfig field as a flag ``--<name with dashes>``, None
    when left out; ``--n`` and ``--kappa`` stand for ``states``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--n", type=int)
    common.add_argument("--kappa", type=int)
    for name, annotation in _FIELDS.items():
        flag = "--" + name.replace("_", "-")
        kind = annotation.removeprefix("Optional[").removesuffix("]")
        if kind == "bool":
            common.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction)
        elif kind in _FLAG_TYPES:
            common.add_argument(flag, dest=name, type=_FLAG_TYPES[kind],
                                choices=_CHOICES.get(name))

    parser = argparse.ArgumentParser(
        prog="dirac-nu",
        description="Bound states of an exponential-screened well with tensor coupling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="energies of configured states")
    p_table = sub.add_parser("table", parents=[common], help="reproduce a reference table")
    p_table.add_argument("--which", required=True, choices=sorted(_TABLE_ALIASES))
    sub.add_parser("wavefunction", parents=[common], help="sample one state's spinor pair")
    p_an = sub.add_parser("analyze", parents=[common], help="diagnostics")
    p_an.add_argument("--which", required=True, choices=["approx", "potential", "sweep"])
    return parser


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags, checked by ``from_dict``."""
    data: dict[str, Any] = {}
    path = ns.config or os.environ.get("PSEUDOSPIN_CONFIG")
    if path:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")

    flags = {name: value for name, value in vars(ns).items()
             if name in _FIELDS and value is not None}
    if (ns.n is None) != (ns.kappa is None):
        raise ConfigError("--n and --kappa must be given together")
    if ns.n is not None:
        flags["states"] = [[ns.n, ns.kappa]]
    RunConfig.from_dict(data)  # a malformed file value is refused even where a flag overrides it
    return RunConfig.from_dict({**data, **flags})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_namespace(ns)
        if ns.command == "solve":
            return cmd_solve(cfg)
        if ns.command == "table":
            return cmd_table(cfg, ns.which)
        if ns.command == "wavefunction":
            return cmd_wavefunction(cfg)
        return cmd_analyze(cfg, ns.which)  # the parser admits no other command
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
