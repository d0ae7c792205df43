"""Smoke test of the benchmark itself, at toy sizes (n=4, two costs, 1e4 trials).

    python3 hsbench/smoke_test.py            # or: python3 -m pytest hsbench/smoke_test.py

Checks that every metric is printed with its unit, that counts repeat
exactly across two traced runs of one seed, and that a corrupted output is
counted in fail_ratio. Takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    *lines, last = proc.stdout.strip().splitlines()
    return "\n".join(lines), json.loads(last)


def assert_printed(text: str, result: dict, expected) -> None:
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == {name for name, _ in expected}
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)} +\(n=\d+\)$", text, re.M), name
    assert re.search(r"^  fail_ratio +0 ratio +\(0 of \d+ commands\)$", text, re.M)


def test_end_to_end_metrics_printed_with_units():
    for workload in WORKLOADS:
        text, result = bench(workload, 0)
        assert_printed(text, result, run.END_TO_END)


def test_layer_metrics_printed_and_counts_repeat():
    for workload in WORKLOADS:
        first_text, first = bench(workload, 1)
        assert_printed(first_text, first, tracer.METRICS)
        _, second = bench(workload, 1)
        for name in tracer.COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        feedback_calls = first["metrics"]["payoff.feedback_matrix.calls"]["value"]
        assert (feedback_calls == 0) == (workload == "game8"), (workload, feedback_calls)


def test_gauge_scales_stretches_between_ticks():
    ref = round(gauge.REFERENCE_TICK_S * 1e9)
    # [0, 3 s] with a half-speed tick (2 references long) at 1 s and a
    # reference-speed tick at 2 s: 1 s at half speed, the tick's own 2 ms
    # left out, 1 s at two-thirds speed, 1 s - 1 ms at full speed.
    ticks = [[10**9, 10**9 + 2 * ref], [2 * 10**9, 2 * 10**9 + ref]]
    expected = 1 / 2 + (1 - 2 * ref / 1e9) / 1.5 + (1 - ref / 1e9)
    assert abs(gauge.reference_s([0, 3 * 10**9], ticks) - expected) < 1e-12
    assert gauge.reference_s([0, 5], []) == 5e-9


def test_corrupted_output_counts_as_failed():
    def tamper(iteration, command, text):
        if iteration == 0 and command == 0:
            return re.sub(r"^row gap: .*$", "row gap: 1.000e-03", text, flags=re.M)
        return text

    summary = run.run_workload("game8", SEED, 0.0, trace=False, toy=True, tamper=tamper)
    result = run.summary_json([summary], prefix=False)
    # the gap check fails on iteration 0; iteration 1's bytes then differ from it
    assert result["failed"] == 2 and not result["correct"], result
    assert result["attempted"] == 8


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
