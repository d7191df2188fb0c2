"""Correctness gate: each command's stdout is checked before its time counts.

Deterministic commands must match the records captured in
expected_records.json byte for byte.  Seeded commands are checked by
invariants and against the benchmark's own numpy references: integer
indices exactly, floats within a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from totirr.errors import InputError
from totirr.formats import parse_record

from workloads import Command

VAR_REL_TOL = 1e-9
# far above the power iteration's known error (about 1.7e-7 on P_300),
# far below a wrong eigenvalue; the error itself is reported as a metric
CS_ABS_TOL = 1e-5
CS_ERR_FLOOR = 1e-12


def _records(stdout: str, count: int, problems: List[str]) -> List[Dict[str, str]]:
    lines = stdout.splitlines()
    if len(lines) != count or not stdout.endswith("\n"):
        problems.append(f"expected {count} newline-terminated records, got {len(lines)}")
        return []
    try:
        return [parse_record(line) for line in lines]
    except InputError as exc:
        problems.append(f"unparseable record: {exc}")
        return []


def _field(rec: Dict[str, str], key: str, want, problems: List[str]) -> None:
    if rec.get(key) != str(want):
        got = rec.get(key)
        shown = got if got is None or len(got) < 80 else got[:77] + "..."
        problems.append(f"{key}={shown}, expected {str(want)[:80]}")


def _check_probe(cmd: Command, stdout: str, problems: List[str]) -> None:
    for rec in _records(stdout, 1, problems):
        for key, want in (("task", "search"), ("kind", "probe"), *cmd.ref.items()):
            _field(rec, key, want, problems)
        try:
            slack = int(rec["min_slack"])
            ratio = Fraction(rec["max_ratio"])
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"bad min_slack/max_ratio: {exc}")
            return
        if slack < 0 or not 0 < ratio <= 1:
            problems.append(f"min_slack={slack} max_ratio={ratio} breaks the bound")
        for key in ("witness_g", "witness_h"):
            if len(rec.get(key, "")) != 2 or rec[key][0] != chr(cmd.ref["n1"] + 63):
                problems.append(f"{key}={rec.get(key)} is not a {cmd.ref['n1']}-vertex graph6")


def _check_compute(cmd: Command, stdout: str, problems: List[str]) -> None:
    values = cmd.ref["values"]
    for rec, (index, ref) in zip(_records(stdout, len(values), problems), values):
        _field(rec, "task", "compute", problems)
        _field(rec, "input", cmd.ref["g6"], problems)
        _field(rec, "index", index, problems)
        if isinstance(ref, int):
            _field(rec, "value", ref, problems)
            continue
        try:
            got = float(rec["value"])
        except (KeyError, ValueError):
            problems.append(f"{index} value {rec.get('value')} is not a number")
            continue
        tol = CS_ABS_TOL if index == "cs" else VAR_REL_TOL * max(1.0, abs(ref))
        if not abs(got - ref) <= tol:
            problems.append(f"{index}={got} differs from reference {ref} by more than {tol}")


def _check_bound(cmd: Command, stdout: str, problems: List[str]) -> None:
    for rec in _records(stdout, 1, problems):
        for key, want in (("task", "bound"), *cmd.ref.items()):
            _field(rec, key, want, problems)
        try:
            bound, slack = int(rec["bound"]), int(rec["slack"])
        except (KeyError, ValueError) as exc:
            problems.append(f"bad bound/slack: {exc}")
            return
        if slack != bound - cmd.ref["actual"] or slack < 0:
            problems.append(f"slack={slack} with bound={bound}, actual={cmd.ref['actual']}")
        _field(rec, "tight", "true" if slack == 0 else "false", problems)
        _field(rec, "hypothesis_ok", "true", problems)


_CHECKS = {
    "probe": _check_probe,
    "compute": _check_compute,
    "spectral": _check_compute,
    "bound": _check_bound,
}


def check(cmd: Command, stdout: str) -> List[str]:
    """Problems with one command's stdout; empty when it is correct."""
    if cmd.expected is not None:
        return [] if stdout == cmd.expected else [f"stdout differs from captured record {cmd.expected!r}"]
    problems: List[str] = []
    _CHECKS[cmd.kind](cmd, stdout, problems)
    return problems


def cases(stdout: str) -> int:
    """Sum of the cases= fields of a checked output."""
    return sum(int(parse_record(line).get("cases", 0)) for line in stdout.splitlines())


def cs_abs_err(cmd: Command, stdout: str) -> float:
    """Largest |reported cs - reference| in a checked compute output, floored;
    0.0 when the command reports no cs."""
    errs = []
    for line in stdout.splitlines():
        rec = parse_record(line)
        if rec.get("index") == "cs":
            errs.append(abs(float(rec["value"]) - dict(cmd.ref["values"])["cs"]))
    return max([CS_ERR_FLOOR, *errs]) if errs else 0.0
