"""Check that every command line in bench/digests.json prints the bytes
the benchmark pinned.

    python tests/check_bench_digests.py

Each command line runs in this process through `qmetallic.cli.main`,
imported from this checkout's `src`. The SHA-256 of its stdout is
compared with the pinned digest. The digest file is only read. Prints
the command lines that differ and exits 1 if there are any, else 0.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qmetallic import cli  # noqa: E402

DIGESTS = ROOT / "bench" / "digests.json"


def stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # --version and argparse's usage errors
            pass
    return out.getvalue().encode()


def main() -> int:
    digests = json.loads(DIGESTS.read_text())
    differ = [
        line for line, digest in digests.items()
        if hashlib.sha256(stdout_of(line.split())).hexdigest() != digest
    ]
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(digests) - len(differ)} of {len(digests)} command lines match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
