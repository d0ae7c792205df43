"""Output checks for the benchmark's CLI commands.

`check_output` validates one command's stdout on its own terms; a command
that fails any check, exits non-zero, differs from its own earlier run in
the same benchmark run, or (for the default seed) from the recorded
reference counts toward fail_ratio.
"""

from __future__ import annotations

import json
import lzma
import math
import re
from pathlib import Path

from hideseek import SweepRow, load_instance, verify_bounds

GAP_LIMIT = 1e-6
MC_SIGMAS = 5.0
REFERENCE_REL = 1e-9

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# Certification gaps are solver round-off, not results; they are held to
# GAP_LIMIT instead of to the reference.
UNREFERENCED = re.compile(r"^(row|col) gap: .*$", re.MULTILINE)


def _token(text: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}: (\S+)$", text, re.MULTILINE)
    if m is None:
        raise ValueError(f"no '{label}' line")
    return m.group(1)


def _check_solve(text: str) -> list[str]:
    gaps = [float(_token(text, "row gap")), float(_token(text, "col gap"))]
    if not all(math.isfinite(g) and g <= GAP_LIMIT for g in gaps):
        return [f"certification gaps {gaps} exceed {GAP_LIMIT}"]
    return []


def _check_simulate(text: str) -> list[str]:
    tokens = {k: _token(text, k) for k in ("game value", "mean payoff", "stderr")}
    value, mean, stderr = (float(t) for t in tokens.values())
    # both printed values are rounded to this many decimals
    slack = 10.0 ** -len(tokens["mean payoff"].partition(".")[2])
    if not abs(mean - value) <= MC_SIGMAS * stderr + slack:
        return [f"mean payoff {mean} is more than {MC_SIGMAS} stderr ({stderr}) from value {value}"]
    return []


def _check_sweep(text: str, argv, inst_path) -> list[str]:
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        t, *vals = line.split(",")
        rows.append(SweepRow(int(t), *(float(v) for v in vals)))
    inst = load_instance(inst_path)
    costs = argv[argv.index("--costs") + 1].split(",")
    expected = [(t, float(c)) for t in range(1, inst.n) for c in sorted(costs, key=float)]
    if [(r.t_reveal, r.c) for r in rows] != expected:
        return [f"sweep rows cover {[(r.t_reveal, r.c) for r in rows]}, expected {expected}"]
    report = verify_bounds(rows, inst=inst)
    return [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]


def _check_voi_csv(text: str, inst_path) -> list[str]:
    n = load_instance(inst_path).n
    lines = text.splitlines()
    m = math.factorial(n)
    if len(lines) != 2 * m + 7:
        return [f"voi csv has {len(lines)} lines, expected {2 * m + 7}"]
    scalars = {}
    for line in lines:
        key, _, rest = line.partition(",")
        if key in ("expected_voi", "route_averaged_voi", "cstar_global", "theorem1_bound"):
            scalars[key] = float(rest.lstrip(","))
    problems = []
    if not -1e-8 <= scalars["expected_voi"] <= scalars["theorem1_bound"] + 1e-8:
        problems.append(f"expected_voi {scalars['expected_voi']} outside [0, bound]")
    if scalars["route_averaged_voi"] < -1e-8 or scalars["cstar_global"] < -1e-8:
        problems.append(f"negative VOI quantity: {scalars}")
    return problems


def check_output(argv, text: str, inst_path) -> list[str]:
    """Problems with one command's stdout; empty when it is correct."""
    try:
        if argv[0] == "solve":
            return _check_solve(text)
        if argv[0] == "simulate":
            return _check_simulate(text)
        if argv[0] == "sweep":
            return _check_sweep(text, argv, inst_path)
        if argv[0] == "voi":
            return _check_voi_csv(text, inst_path)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc}"]
    raise ValueError(f"no check for command {argv[0]!r}")


def compare_numbers(got: str, want: str, rel: float = REFERENCE_REL) -> str | None:
    """None when the texts agree outside numbers and every number to `rel`."""
    got, want = UNREFERENCED.sub("", got), UNREFERENCED.sub("", want)
    if NUMBER.split(got) != NUMBER.split(want):
        return "text differs from the reference outside numbers"
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        x, y = float(a), float(b)
        if x != y and not abs(x - y) <= rel * max(abs(x), abs(y)):
            return f"value {a} differs from reference {b}"
    return None


def load_reference(path: Path) -> list[str]:
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def save_reference(path: Path, seed: int, commands, outputs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with lzma.open(path, "wt", encoding="utf-8", preset=9) as fh:
        json.dump({"seed": seed, "commands": commands, "outputs": outputs}, fh)
