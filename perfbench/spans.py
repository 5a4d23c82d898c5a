"""Spans and counts recorded from outside the program.

The tracer replaces public functions of ``dirac_nu`` modules with wrappers
for the duration of a traced round, in every package module that holds a
reference to them (``from .spectrum import solve_spectrum`` makes a second
reference in ``cli`` and ``analysis``).  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the operation it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

from inputs import CLI_COMMANDS

NAME, START, END, PARENT, OP = range(5)

COMPONENT_SPANS = ("wavefn.pseudospin_components", "wavefn.spin_limit_components")


def _cli_label(args: tuple, kwargs: dict) -> str:
    """``cli.main.<command>`` for the benchmark's own CLI commands."""
    argv = list(args[0] if args else kwargs.get("argv") or [])
    name = next((k for k, v in CLI_COMMANDS.items() if v == argv), None)
    return f"cli.main.{name}" if name else "cli.main"


def _solve_info(result) -> dict:
    oracle = result.oracle
    return {
        "roots": len(result.roots),
        "degree": oracle.degree if oracle else 0,
        "survivors": len(oracle.survivors) if oracle else 0,
        "spurious": len(oracle.spurious) if oracle else 0,
    }


def _table_info(table) -> dict:
    return {"grid_points": int(table.r.size)}


# (layer.function, module, attribute, result summary, label from arguments)
SPAN_TARGETS: tuple = (
    ("refdata.load_reference", "dirac_nu.refdata", "load_reference", None, None),
    ("spectrum.solve_spectrum", "dirac_nu.spectrum", "solve_spectrum", _solve_info, None),
    ("spectrum.quartic_oracle", "dirac_nu.spectrum", "quartic_oracle", None, None),
    ("spectrum.quantization_function", "dirac_nu.spectrum", "quantization_function", None, None),
    ("spectrum.search_window", "dirac_nu.spectrum", "search_window", None, None),
    ("analysis.h_sweep", "dirac_nu.analysis", "h_sweep", None, None),
    ("nu_core.derive_constants", "dirac_nu.nu_core", "derive_constants", None, None),
    ("wavefn.pseudospin_components", "dirac_nu.wavefn", "pseudospin_components", _table_info, None),
    ("wavefn.spin_limit_components", "dirac_nu.wavefn", "spin_limit_components", _table_info, None),
    ("wavefn.lower_component", "dirac_nu.wavefn", "lower_component", None, None),
    ("wavefn.upper_component_from_lower", "dirac_nu.wavefn", "upper_component_from_lower", None, None),
    ("wavefn.verify_ode", "dirac_nu.wavefn", "verify_ode", None, None),
    ("wavefn.default_grid", "dirac_nu.wavefn", "default_grid", None, None),
    ("wavefn.branch_functions", "dirac_nu.wavefn", "branch_functions", None, None),
    ("cli.main", "dirac_nu.cli", "main", None, _cli_label),
)

# counted, not timed: about 1,300 calls per spinor table
COUNT_TARGETS = (("wavefn.jacobi_eval", "dirac_nu.wavefn", "jacobi_eval"),)


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` bracket each traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.info: dict[int, dict] = {}
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[Any, str, Any]] = []

    def _span_wrapper(self, name: str, fn: Callable, summarize: Optional[Callable],
                      label: Optional[Callable]) -> Callable:
        spans, stack, info = self.spans, self.stack, self.info

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [label(args, kwargs) if label else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if summarize is not None:
                info[idx] = summarize(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[(name, stack[-1] if stack else -1)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original: Any, replacement: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dirac_nu" and not mod_name.startswith("dirac_nu."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, mod_name, attr, summarize, label in SPAN_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(original, self._span_wrapper(name, original, summarize, label))
        for name, mod_name, attr in COUNT_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(original, self._count_wrapper(name, original))
        # construction of an EnergyEquation; its class is shared, so patch __init__ once
        cls = sys.modules["dirac_nu.spectrum"].EnergyEquation
        init = cls.__init__
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._span_wrapper("spectrum.EnergyEquation", init, None, None)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ----------------------------------------------------------- analysis

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for rec in self.spans:
            out[rec[NAME]].append(rec[END] - rec[START])
        return out

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def _enclosing(self, idx: int, names: tuple[str, ...]) -> int:
        while idx >= 0 and self.spans[idx][NAME] not in names:
            idx = self.spans[idx][PARENT]
        return idx

    def per_table(self, name: str) -> list[int]:
        """Calls of ``name`` (span or counted) inside each spinor-table span."""
        tables = {i: 0 for i, rec in enumerate(self.spans) if rec[NAME] in COMPONENT_SPANS}
        for i, rec in enumerate(self.spans):
            if rec[NAME] == name:
                owner = self._enclosing(i, COMPONENT_SPANS)
                if owner >= 0:
                    tables[owner] += 1
        for (counted, idx), calls in self.counts.items():
            if counted == name:
                owner = self._enclosing(idx, COMPONENT_SPANS)
                if owner >= 0:
                    tables[owner] += calls
        return list(tables.values())

    def layer_self_times(self) -> dict[str, float]:
        """Seconds each layer spent in its own code during the workload loop (op >= 0)."""
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for rec, t in zip(self.spans, own):
            if rec[OP] >= 0:
                totals[rec[NAME].split(".")[0]] += t
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for i, rec in enumerate(self.spans):
                row = {"id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                       "parent": rec[PARENT], "op": rec[OP]}
                if i in self.info:
                    row["info"] = self.info[i]
                handle.write(json.dumps(row) + "\n")
            for (name, idx), calls in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "span": idx, "calls": calls}) + "\n")

