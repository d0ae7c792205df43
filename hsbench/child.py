"""One workload iteration in a fresh interpreter: set up, run, report.

    python3 child.py SPEC.json SPAWN_NS

SPEC.json names the instance, the CLI commands (absent for a set-up-only
probe), whether to trace, and where to write results. SPAWN_NS is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
set-up time covers interpreter start, `import hideseek.cli` and loading the
instance. Each command's stdout is captured in memory and written out after
the clock stops. The speed gauge (gauge.py) runs from the start; its ticks
go back with the set-up and command intervals so that the parent can scale
them. Only the standard library is imported before hideseek.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from gauge import Gauge


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spawn_ns = int(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    gauge = Gauge()
    gauge.start()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import hideseek
    import hideseek.cli

    hideseek.load_instance(spec["instance"])
    setup_end = now_ns()
    result = {"setup_s": (setup_end - spawn_ns) / 1e9, "setup_ns": [spawn_ns, setup_end]}
    commands = spec.get("commands")
    if commands is not None:
        exits = []
        texts = []
        start = now_ns()
        for k, argv in enumerate(commands):
            if tracer is not None:
                tracer.cmd = k
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = hideseek.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed command, not a harness crash
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
            exits.append(code)
            texts.append(buf.getvalue())
        end = now_ns()
        result["wall_s"] = (end - start) / 1e9
        result["wall_ns"] = [start, end]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["exits"] = exits
    gauge.stop()
    result["ticks"] = gauge.ticks
    if commands is not None:
        for k, text in enumerate(texts):
            with open(f"{spec['out_dir']}/cmd{k}.txt", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        if tracer is not None:
            result["layers"] = tracer.summarize()
            tracer.dump(spec["spans_path"], {"commands": commands})
    with open(f"{spec['out_dir']}/result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
