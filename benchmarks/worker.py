"""One repetition of a workload, in a fresh interpreter.

Reads a JSON list of argv lists on stdin, imports qchar.cli from the
checkout's src/ (so every lru_cache starts cold, as for a CLI user),
feeds each argv through qchar.cli.main single-threaded and writes one
JSON object with the per-call exit code, seconds and stdout, the wall
time from the first call to the last verdict, the peak RSS, and the
time.perf_counter() reading right after `import qchar.cli` (perf_counter
is CLOCK_MONOTONIC on Linux, so the parent can subtract its own reading
taken before the spawn to get the set-up time).

    python3 benchmarks/worker.py [SPANS_PATH] < calls.json

Without SPANS_PATH the speed probe (speedref.py) samples the host's speed
throughout; its time is taken out of the call and wall times, each call
gets its normalised time ("norm_seconds"), and the samples taken right
after the import give the set-up its speed ("setup_speed"). With
SPANS_PATH the per-layer tracer is installed first, no probe runs, and the
spans are written there at the end.
"""

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speedref

SRC = Path(__file__).resolve().parent.parent / "src"


def run_call(main, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    except Exception as exc:  # an uncaught error is a failed call, not a crash
        code = f"uncaught {type(exc).__name__}"
        stderr.write(traceback.format_exc())
    return code, stdout.getvalue(), stderr.getvalue()


def main() -> int:
    spans_path = sys.argv[1] if len(sys.argv) > 1 else None
    sys.path.insert(0, str(SRC))
    import qchar.cli

    imported_at = time.perf_counter()
    calls = json.load(sys.stdin)
    if not Path(qchar.cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported qchar from {qchar.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    clock = time.perf_counter
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        clock = tracer.clock

    # the traced run has no probe, so the tracer's clock sees only the calls
    probe = None if tracer else speedref.Probe()
    if probe:
        probe.start()
        setup_speed = probe.speed(0, len(probe.samples))

    results, windows = [], []
    real_start = time.perf_counter()
    start = clock()
    spent_before = probe.spent_s if probe else 0.0
    for call_id, argv in enumerate(calls):
        if tracer:
            tracer.call_id = call_id
        first, spent = (len(probe.samples), probe.spent_s) if probe else (0, 0.0)
        t0 = clock()
        code, stdout, stderr = run_call(qchar.cli.main, argv)
        seconds = clock() - t0
        if probe:
            seconds -= probe.spent_s - spent
            windows.append((first, len(probe.samples)))
        results.append({"code": code, "seconds": seconds,
                        "stdout": stdout, "stderr": stderr[-2000:]})
    wall_s = clock() - start
    real_wall_s = time.perf_counter() - real_start
    if tracer:
        tracer.write(spans_path, wall_s)
    if probe:
        probe.stop()
        wall_s -= probe.spent_s - spent_before
        for result, window in zip(results, windows):
            result["norm_seconds"] = result["seconds"] * probe.speed(*window)
    json.dump({
        "imported_at": imported_at,
        "setup_speed": setup_speed if probe else None,
        "wall_s": wall_s,
        "real_wall_s": real_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": results,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
