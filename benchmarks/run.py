"""qchar benchmark: seeded workloads of CLI calls, timed end to end and per layer.

    python3 benchmarks/run.py --workload univariate --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

One run draws the workload's argv lists from the seed, then repeats the
whole list in fresh interpreters (see worker.py) for about --seconds and
reports medians over the repetitions. Every call of every repetition goes
through the correctness gate (gate.py); a run with any failed call exits 1.

--trace 0 reports the end-to-end metrics: norm_wall_s (first call to last
verdict), norm_slowest_call_s and setup_s (worker interpreter start plus
`import qchar.cli`), all three normalised by the speed probe of
speedref.py, and peak_rss_mb. The summary line also shows the raw wall_s,
slowest_call_s and setup time. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of the
median traced one (tracing.py); end-to-end numbers never come from traced
runs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit codes: 0 all calls passed, 1 a call
failed, 2 the benchmark could not run (no qchar sources, no digests).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"

MIN_REPS = 3          # untraced repetitions per run, however short --seconds
REP_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def declared_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json
    declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_rep(calls, spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")]
    if spans_path is not None:
        cmd.append(str(spans_path))
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(calls), capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout)
    rep["setup_s"] = rep["imported_at"] - spawned
    return rep


class Tally:
    """Gate verdicts over every call of every repetition."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def check(self, calls, rep: dict) -> None:
        for argv, result in zip(calls, rep["calls"], strict=True):
            self.attempted += 1
            reason = gate.check_call(argv, result["code"], result["stdout"],
                                     self.digests)
            if reason is not None:
                self.failed += 1
                print(f"FAIL {gate.argv_key(argv)}: {reason} {result['stderr']}",
                      file=sys.stderr)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 tally: Tally) -> dict:
    calls = workloads.generate(name, seed)
    spans_path = OUT / f"spans-{name}.json"
    if trace:
        OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        rep = run_rep(calls)
        tally.check(calls, rep)
        plain.append(rep)
        if trace:
            rep = run_rep(calls, spans_path)
            tally.check(calls, rep)
            with open(spans_path, encoding="utf-8") as fh:
                layers = tracing.summarize(json.load(fh))
            layers["cli.output_bytes"] = sum(
                len(r["stdout"].encode("utf-8")) for r in rep["calls"])
            # paired with the untraced repetition run just before it
            layers["trace.overhead_s"] = rep["real_wall_s"] - plain[-1]["wall_s"]
            traced.append(layers)
        n = len(plain)
        elapsed = time.monotonic() - start
        if n >= (1 if trace else MIN_REPS) and elapsed * (n + 1) / n > seconds:
            break

    if trace:
        units = declared_units("per_layer")
        # all per-layer values come from the median traced repetition, so its
        # layer self times still add up to its trace.wall_s
        traced.sort(key=lambda t: t["trace.wall_s"])
        metrics = dict(traced[(len(traced) - 1) // 2])
        metrics["trace.overhead_s"] = statistics.median(
            t["trace.overhead_s"] for t in traced)
    else:
        units = declared_units("end_to_end")
        norm = [[c["norm_seconds"] for c in r["calls"]] for r in plain]
        metrics = {
            "norm_wall_s": statistics.median(sum(n) for n in norm),
            "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in plain),
            "norm_slowest_call_s": statistics.median(max(n) for n in norm),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = {key: {"value": metrics[key], "unit": units[key]} for key in units}
    # raw times, shown in the summary line only: on a shared host they spread
    # too far from run to run to carry a bound
    raw = {} if trace else {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in plain),
                   "unit": "s"},
        "slowest_call_s": {"value": statistics.median(
            max(c["seconds"] for c in r["calls"]) for r in plain), "unit": "s"},
        "raw_setup_s": {"value": statistics.median(r["setup_s"] for r in plain),
                        "unit": "s"},
    }
    return {"metrics": metrics, "raw": raw, "reps": len(plain), "calls": len(calls)}


def summary_line(name: str, result: dict, attempted: int, failed: int) -> str:
    shown = [f"{key}={m['value']:.6g} {m['unit']}"
             for key, m in (result["metrics"] | result["raw"]).items()]
    ratio = failed / attempted if attempted else 0.0
    shown.append(f"fail_ratio={ratio:.6g} ratio ({failed} failed of {attempted} attempted)")
    return (f"{name}: " + "  ".join(shown)
            + f"  [{result['reps']} reps of {result['calls']} calls]")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "qchar" / "cli.py").is_file():
            raise BenchmarkError(f"no qchar sources at {SRC}")
        digests = gate.load_digests()
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        metrics = {}
        tally = Tally(digests)
        for name in names:
            before = (tally.attempted, tally.failed)
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), tally)
            print(summary_line(name, result, tally.attempted - before[0],
                               tally.failed - before[1]), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    except (BenchmarkError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
