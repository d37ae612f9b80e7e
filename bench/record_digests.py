"""Record the SHA-256 of the stdout of every command line the benchmark
can send (workloads.universe) into digests.json.

    python3 bench/record_digests.py

Run it only on a commit whose output is known to be right: the
benchmark fails any response whose bytes differ from these digests.
A command line whose response fails any other check of `run.gate` is
reported and not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    digests, bad = {}, []
    universe = workloads.universe()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH) as workdir, \
            run.Runner(Path(workdir), {}) as runner:
        for i, argv in enumerate(universe, 1):
            outcome = runner.run(argv)
            key = " ".join(argv)
            digest = hashlib.sha256(outcome.stdout).hexdigest()
            failure = run.gate(argv, outcome.code, outcome.stdout, {key: digest})
            if failure:
                bad.append((key, failure))
            else:
                digests[key] = digest
            print(f"[{i}/{len(universe)}] {outcome.latency:7.3f} s  {key}"
                  + (f"  FAILED: {failure}" if failure else ""), flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for key, failure in bad:
        print(f"not recorded: {key!r}: {failure}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
