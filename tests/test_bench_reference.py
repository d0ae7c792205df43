"""The benchmark's frozen outputs, checked in-process.

Every command of each hsbench workload, at the seed its reference was
recorded with, must pass hsbench's own output checks and match the recorded
stdout (hsbench/reference/*.json.xz) to hsbench's tolerance. A change that
moves a pinned number fails here before it fails the benchmark. hsbench is
imported read-only, from its directory. hsbench's tracer, which rebinds the
package's functions from outside, must still install and trace.
"""

import contextlib
import io
import json
import lzma
import os
import pathlib
import re
import subprocess
import sys

import pytest

from hideseek.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
HSBENCH = ROOT / "hsbench"
sys.path.insert(0, str(HSBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

sys.path.remove(str(HSBENCH))


def _reference(name):
    """The recorded run of a workload: its seed, commands and outputs."""
    with lzma.open(HSBENCH / "reference" / f"{name}.json.xz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_outputs_match_the_benchmark_reference(name, tmp_path):
    ref = _reference(name)
    inst = tmp_path / "instance.json"
    wl = workloads.workload(name, str(inst))
    workloads.write_instance(inst, wl.n, ref["seed"])
    assert [[a.replace(str(inst), "{instance}") for a in argv] for argv in wl.commands] == ref["commands"]
    for argv, want in zip(wl.commands, ref["outputs"], strict=True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        got = out.getvalue()
        assert code == 0, argv
        assert checks.check_output(argv, got, inst) == [], argv
        assert checks.compare_numbers(got, want) is None, argv



def test_the_reference_comparison_skips_only_the_gap_lines():
    # a solve's certificate gaps are solver round-off, which hsbench holds
    # to its gap limit and not to the reference: compare_numbers accepts a
    # text whose only change is a row or col gap, and rejects one whose only
    # change is a digit of the value or of a mix
    want = _reference("game8")["outputs"][0]
    for label in ("row gap", "col gap"):
        got = re.sub(rf"^{label}: .*$", f"{label}: 9.876e-13", want, count=1, flags=re.MULTILINE)
        assert got != want and checks.compare_numbers(got, want) is None, label
    lines = re.findall(r"^(?:value: |  \S+: )\d+\.\d+$", want, flags=re.MULTILINE)
    assert len(lines) == 11  # the value, two Seeker routes and eight Hider locations
    for line in lines:
        got = want.replace(line, line[:-1] + ("1" if line[-1] == "0" else "0"), 1)
        assert got != want and checks.compare_numbers(got, want) is not None, line


# hsbench/child.py's traced run: install the tracer, then run the package
TRACED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from hideseek.cli import main
for argv in (["sweep", sys.argv[2], "--costs", "0.5,2"],
             ["simulate", sys.argv[2], "--model", "feedback", "--t-reveal", "2", "--trials", "10000"]):
    assert main(argv) == 0, argv
layers = tracer.summarize()
print(len(tracer.spans), layers["experiments.sweep.cells"], layers["experiments.simulate.trials_per_s"] > 0)
"""


def test_the_tracer_installs_and_traces_a_toy_sweep_and_playout(tmp_path):
    inst = tmp_path / "instance.json"
    workloads.write_instance(inst, workloads.TOY_N, 1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(HSBENCH), str(inst)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    spans, cells, timed = run.stdout.splitlines()[-1].split()
    assert int(spans) >= 1 and int(cells) > 0 and timed == "True"
