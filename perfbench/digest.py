"""Recompute the sha256 of the `splitinv verify --suite all --seed 0` report
and compare it with the reference recorded in perfbench/README.md.

Run through `python3 perfbench/run.py --verify-digest` (about a minute).
Exits 0 when the digests agree and verify passes, 1 otherwise."""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent / "README.md"
REFERENCE = re.compile(r"verify-digest: `([0-9a-f]{64})`")


def main() -> int:
    match = REFERENCE.search(README.read_text())
    if match is None:
        print(f"error: no `verify-digest: ...` line in {README}", file=sys.stderr)
        return 2
    proc = subprocess.run([sys.executable, "-m", "splitinv.cli", "verify", "--suite", "all",
                           "--seed", "0"], stdout=subprocess.PIPE)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    same = digest == match.group(1)
    print(f"verify exit {proc.returncode}; sha256 {digest}; reference {match.group(1)}: "
          f"{'same' if same else 'DIFFERENT'}")
    return 0 if same and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
