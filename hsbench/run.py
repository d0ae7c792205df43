"""hideseek benchmark: seeded CLI workloads timed from outside the package.

    python3 hsbench/run.py --workload {sweep6,game8,playout,all} --seed N \\
        --seconds S --trace {0,1}

One closed-loop client: each iteration runs the workload's commands in
order through `hideseek.cli.main`, in a fresh single-threaded interpreter
(child.py), against an instance generated from the seed; the next iteration
starts when it has exited. Iterations repeat until the next one would end
after S seconds (at least two, so every output is checked for determinism).
Set-up time is sampled in every child plus in set-up-only probes. Every
child gauges its CPU's speed as it runs (gauge.py); wall and set-up times
are reported at the gauge's reference speed, the plain ones alongside.

--trace 0 reports the end-to-end metrics (medians over iterations);
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones plus the tracing overhead, and writes
the spans of the last traced iteration to hsbench/_work/<run>/spans.json.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Run from any directory; the package under test is the
`src/` next to this directory, which is never modified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracer as tracing
from workloads import WORKLOADS, workload, write_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"
REFERENCE_DIR = HERE / "reference"

# Outputs for this seed are compared with references recorded at the seed
# commit (see README.md).
DEFAULT_SEED = 1
# Set-up-only children per run, after one discarded warm-up that also
# compiles bytecode in a fresh checkout.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
THREADS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, **THREADS_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(spec: dict, out_dir: Path, env: dict) -> dict:
    """Run child.py on `spec` in a fresh interpreter and return its result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps({**spec, "out_dir": str(out_dir)}), encoding="utf-8")
    spawn = now_ns()
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(spawn)],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                 record: bool = False, tamper=None) -> dict:
    """Run one workload and return its summary (see `summary_json`).

    `tamper(iteration, command, text) -> text`, when given, rewrites an
    output before it is checked; the smoke test uses it to prove that a
    corrupted output counts as failed.
    """
    import checks  # imports hideseek, so only after main() has put src/ on the path

    run_dir = WORK_DIR / f"{name}{'-toy' if toy else ''}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inst_path = run_dir / "instance.json"
    wl = workload(name, str(inst_path), toy)
    write_instance(inst_path, wl.n, seed)
    iter_dir = run_dir / "iter"
    env = child_env()

    reference = None
    ref_path = REFERENCE_DIR / f"{name}.json.xz"
    if seed == DEFAULT_SEED and not toy and not record:
        reference = checks.load_reference(ref_path)

    base_spec = {"instance": str(inst_path)}
    setups = []
    raw = {"wall_s": [], "setup_s": [], "tick_s": []}  # ungauged, for comparison

    def add_setup(result: dict) -> None:
        raw["setup_s"].append(result["setup_s"])
        raw["tick_s"].append(statistics.median(end - start for start, end in result["ticks"]) / 1e9)
        setups.append(gauge.reference_s(result["setup_ns"], result["ticks"]))

    for probe in range(SETUP_PROBES + 1):
        result = run_child(base_spec, iter_dir, env)
        if probe:
            add_setup(result)

    walls, rss, traced_walls, layers = [], [], [], []
    first_digest: dict[int, str] = {}
    verdicts: dict[tuple[int, str], list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        traced = trace and i % 2 == 1
        t0 = time.monotonic()
        result = run_child(
            {**base_spec, "commands": wl.commands, "trace": traced,
             "spans_path": str(run_dir / "spans.json")},
            iter_dir, env,
        )
        longest = max(longest, time.monotonic() - t0)
        wall = gauge.reference_s(result["wall_ns"], result["ticks"])
        if traced:
            traced_walls.append(wall)
            layers.append(result["layers"])
        else:
            raw["wall_s"].append(result["wall_s"])
            walls.append(wall)
            rss.append(result["peak_rss_mb"])
            add_setup(result)
        texts = [(iter_dir / f"cmd{k}.txt").read_text(encoding="utf-8")
                 for k in range(len(wl.commands))]
        if tamper is not None:
            texts = [tamper(i, k, text) for k, text in enumerate(texts)]
        failed_before = failed
        for k, (argv, text) in enumerate(zip(wl.commands, texts)):
            attempted += 1
            code = result["exits"][k]
            digest = hashlib.sha256(text.encode()).hexdigest()
            found = [] if code == 0 else [f"exit status {code}"]
            if (k, digest) not in verdicts:
                verdicts[(k, digest)] = checks.check_output(argv, text, inst_path)
                if reference is not None:
                    mismatch = checks.compare_numbers(text, reference[k])
                    if mismatch:
                        verdicts[(k, digest)].append(f"reference: {mismatch}")
            found += verdicts[(k, digest)]
            if first_digest.setdefault(k, digest) != digest:
                found.append("output bytes differ from the first iteration's")
            if found:
                failed += 1
                print(f"FAIL iteration {i} command {k} ({argv[0]}): {found}", file=sys.stderr)
        if record and i == 0 and failed == failed_before:
            generic = [[a.replace(str(inst_path), "{instance}") for a in argv]
                       for argv in wl.commands]
            checks.save_reference(ref_path, seed, generic, texts)
        i += 1
        if i >= 2 and time.monotonic() - start + longest > seconds:
            break
    shutil.rmtree(iter_dir, ignore_errors=True)
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
               "trace.wall_s": traced_walls, "raw": raw}
    (run_dir / "samples.json").write_text(json.dumps(samples), encoding="utf-8")

    metrics = {}
    if trace:
        for metric, unit in tracing.METRICS:
            if metric in ("trace.wall_s", "trace.overhead_s"):
                continue
            values = [layer[metric] for layer in layers]
            if unit == "count":
                if len(set(values)) != 1:
                    problems.append(f"count {metric} differs between traced iterations: {values}")
                metrics[metric] = (values[0], unit, len(values))
            else:
                metrics[metric] = (statistics.median(values), unit, len(values))
        traced_wall = statistics.median(traced_walls)
        metrics["trace.wall_s"] = (traced_wall, "s", len(traced_walls))
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s", len(traced_walls))
    else:
        for metric, unit in END_TO_END:
            metrics[metric] = (statistics.median(samples[metric]), unit, len(samples[metric]))
    ungauged = {f"ungauged {key}": (statistics.median(values), "s", len(values))
                for key, values in raw.items() if values}
    return {
        "workload": name, "seed": seed, "trace": trace, "iterations": i,
        "attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
        "ungauged": ungauged,
    }


def print_summary(summary: dict) -> None:
    print(f"{summary['workload']} seed={summary['seed']} trace={int(summary['trace'])}: "
          f"{summary['iterations']} iterations, one process at a time")
    for metric, (value, unit, count) in summary["metrics"].items():
        print(f"  {metric:40s} {value:>16.6g} {unit:6s} (n={count})")
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'fail_ratio':40s} {ratio:>16.6g} {'ratio':6s} "
          f"({summary['failed']} of {summary['attempted']} commands)")
    for metric, (value, unit, count) in summary["ungauged"].items():
        print(f"  {metric:40s} {value:>16.6g} {unit:6s} (n={count})")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")


def summary_json(summaries: list[dict], prefix: bool) -> dict:
    metrics = {}
    for s in summaries:
        for metric, (value, unit, _count) in s["metrics"].items():
            key = f"{s['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0 and not any(s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (n=4, two costs, 1e4 trials) for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help=f"record the reference outputs (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if not (SRC / "hideseek" / "__init__.py").is_file():
        print(f"error: no hideseek package at {SRC}; run inside a hideseek checkout",
              file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.toy):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and full sizes")
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               toy=args.toy, record=args.record)
        print_summary(summary)
        summaries.append(summary)
    print(json.dumps(summary_json(summaries, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
