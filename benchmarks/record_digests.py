"""Record the SHA-256 of the stdout of every argv any workload can draw.

Run this only on a commit whose outputs are trusted: the benchmark's gate
then requires every later commit to print exactly the same bytes.

    python3 benchmarks/record_digests.py

Each output must first pass the gate's own checks (exit 0, every verdict
pass, order_u twice the requested q-order, growth row count), so a wrong
output can never be recorded as the reference.
"""

import json
import subprocess
import sys

import gate
import workloads
from worker import SRC, run_call


def main() -> int:
    sys.path.insert(0, str(SRC))
    import qchar.cli

    digests = {}
    for argv in workloads.domain():
        code, stdout, stderr = run_call(qchar.cli.main, argv)
        reason = gate.check_output(argv, code, stdout)
        if reason is not None:
            print(f"not recorded, {gate.argv_key(argv)}: {reason}\n{stderr}",
                  file=sys.stderr)
            return 1
        digests[gate.argv_key(argv)] = gate.digest(stdout)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=SRC).stdout.strip() or "unknown"
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at_commit": commit, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
