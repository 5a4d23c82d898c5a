"""The CLI's exit-code contract on drawn argv and config files.

Every flag and config key is drawn from ``RunConfig``'s own fields, by
annotation, so a new option is fuzzed without editing this file.  Values lean
on the extremes (±0, ±1e±300, ±1e±155, ±1e75, inf, nan) and the domain edges
(alpha 1/2, A 4 and 8).  Each argv runs in this process through ``cli.main``
under the suite's RuntimeWarning filter, and must end in exit 0, 2 or 3 with
no exception: on 2 stdout is empty, on 0 it parses in the chosen format.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings, strategies as st

from dirac_nu.cli import _CHOICES, _FIELDS, main
from dirac_nu.model import ModelParams

MAGNITUDES = st.sampled_from([1e300, 1e-300, 1e155, 1e-155, 1e75])
EXTREMES = st.sampled_from([0.0, -0.0, 1.0, -1.0, -1e300, -1e-300, -1e155, -1e75,
                            math.inf, -math.inf, math.nan, 0.5, 4.0, 8.0])
# three draws in five are extremes, and most of those large or tiny magnitudes
FLOATS = st.one_of(MAGNITUDES, MAGNITUDES, EXTREMES, st.floats(-10.0, 10.0),
                   st.floats(allow_nan=True, allow_infinity=True))
# the largest value drawn for a size; any other int key draws up to 100
SIZES = {"grid_points": 10**5, "wf_points": 10**4, "approx_points": 10**4,
         "profile_points": 10**4}
NEVER = {"out"}  # the fuzz writes no files
# an int beyond the doubles now and then
STATE = st.tuples(st.one_of(st.integers(0, 12), st.just(10**400)),
                  st.one_of(st.integers(-8, 8), st.just(-10**400)))
MODEL = [f.name for f in fields(ModelParams)]
LISTS = {
    "states": st.lists(STATE, max_size=3),
    "doublets": st.lists(st.tuples(STATE, STATE), max_size=2),
    "h_values": st.lists(FLOATS, max_size=4),
}
# the commands that read the model flags and solve at most once are the
# cheapest, and are drawn most
COMMANDS = st.sampled_from([
    ["solve"], ["solve"], ["solve"], ["wavefunction"], ["wavefunction"],
    ["analyze", "--which", "approx"], ["analyze", "--which", "approx"],
    ["analyze", "--which", "potential"], ["analyze", "--which", "potential"],
    ["analyze", "--which", "sweep"], ["table", "--which", "pseudospin"],
])


def _values(name: str, annotation: str) -> st.SearchStrategy:
    """Values of the scalar field ``name``: its choices, bools, sizes or floats."""
    if name in _CHOICES:
        return st.sampled_from(_CHOICES[name])
    if annotation == "bool":
        return st.booleans()
    if annotation == "int":
        top = SIZES.get(name, 100)
        return st.one_of(st.sampled_from([-1, 0, 1, 2, 3, 52, top]), st.integers(-1, top))
    return FLOATS


SCALARS = {name: _values(name, annotation) for name, annotation in _FIELDS.items()
           if name not in LISTS and name not in NEVER}


def _some(values: dict, weighted: list) -> st.SearchStrategy:
    """A few keys of ``values`` at a time, so that most draws get past the
    checks to a solve, the ``weighted`` keys four times as often."""
    names = st.lists(st.sampled_from(sorted(values) + 3 * weighted), max_size=4, unique=True)
    return names.flatmap(lambda keys: st.fixed_dictionaries({k: values[k] for k in keys}))


FLAGS = _some(SCALARS, MODEL)
# a config value also takes the wrong type now and then
WRONG = st.sampled_from(["5", True, None, [1.0]])
CONFIG = _some({name: st.one_of(values, values, values, WRONG)
                for name, values in {**SCALARS, **LISTS}.items()}, MODEL)


def _argv(flags: dict) -> list[str]:
    argv = []
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


def _parses(text: str, fmt: str) -> bool:
    if fmt == "json":
        doc = json.loads(text)
        return set(doc) >= {"params", "records"}
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    return bool(rows) and all(len(row) == len(rows[0]) for row in rows)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=COMMANDS, flags=FLAGS, config=st.one_of(st.none(), CONFIG), state=STATE)
# a huge A outside the strict domain, which the draws have not combined
@example(command=["solve"], flags={"strict_domain": False, "a_shape": 1e75}, config=None,
         state=(1, -1))
def test_exit_code_contract(command, flags, config, state, tmp_path_factory, monkeypatch):
    monkeypatch.delenv("PSEUDOSPIN_CONFIG", raising=False)
    argv = [*command, *_argv(flags), f"--n={state[0]}", f"--kappa={state[1]}"]
    if config is not None:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, config, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, config)
    if code == 0:
        fmt = flags.get("format") or (config or {}).get("format") or "json"
        assert _parses(out.getvalue(), fmt), (argv, config)
