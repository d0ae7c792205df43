"""The benchmark's frozen outputs, checked in-process.

Every command of each hsbench workload, at the seed its reference was
recorded with, must pass hsbench's own output checks and match the recorded
stdout (hsbench/reference/*.json.xz) to hsbench's tolerance. A change that
moves a pinned number fails here before it fails the benchmark. hsbench is
imported read-only, from its directory.
"""

import contextlib
import io
import json
import lzma
import pathlib
import sys

import pytest

from hideseek.cli import main

HSBENCH = pathlib.Path(__file__).resolve().parents[1] / "hsbench"
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
