"""Correctness gate for one CLI call of the benchmark.

A call fails when it exits nonzero, reports a verdict other than pass,
claims an order other than twice the requested q-order (a vacuous pass),
prints the wrong number of growth rows, or prints stdout whose SHA-256
differs from the digest recorded for its argv.
"""

import hashlib
import json
import shlex
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def argv_key(argv) -> str:
    return shlex.join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def _flag(argv, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_output(argv, code, stdout: str):
    """Reason the call failed, from its own output alone; None if it passed."""
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    try:
        if command in ("verify", "oracle"):
            want = 2 * _flag(argv, "--order" if command == "verify" else "--qbound")
            reports = json.loads(stdout)
            if not reports:
                return "no reports"
            for report in reports:
                if report["verdict"] != "pass":
                    return f"verdict {report['verdict']} for {report['params']}"
                if report["order_u"] != want:
                    return f"order_u {report['order_u']} != {want} for {report['params']}"
        elif command == "series":
            want = 2 * _flag(argv, "--order")
            series = json.loads(stdout)
            if series["order_u"] != want:
                return f"order_u {series['order_u']} != {want}"
            if series["coeffs"]:
                return "identity does not vanish"
        elif command == "asympt":
            rows = stdout.count("\n") - 1  # minus the header
            if rows != _flag(argv, "--nmax"):
                return f"{rows} rows != nmax"
        else:
            return f"unknown command {command!r}"
    except (ValueError, KeyError, TypeError) as err:
        return f"malformed output: {err!r}"
    return None


def check_call(argv, code, stdout: str, digests: dict):
    """Reason the call failed, including the digest check; None if it passed."""
    reason = check_output(argv, code, stdout)
    if reason is not None:
        return reason
    want = digests.get(argv_key(argv))
    if want is None:
        return "no recorded digest for this argv"
    if digest(stdout) != want:
        return "stdout differs from the recorded digest"
    return None
