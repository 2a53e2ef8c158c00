"""Record the expected outputs the benchmark compares against.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/record_expected.py

Writes ``expected/cli.json`` (SHA-256 and length of the stdout of every
label subcommand on all 15 0/1 labels, text and JSON) and
``expected/verify_report.txt`` (the verify report for seed 314159).
"""

from __future__ import annotations

import json
import subprocess
import sys

from checks import digest
from common import (EXPECTED, LABEL_COMMANDS, PATTERNS, child_env, cli_argv,
                    pattern_text)


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    env = child_env()
    record = {}
    for cmd in LABEL_COMMANDS:
        for fmt in (("off",) if cmd == "export" else ("text", "json")):
            for pattern in PATTERNS:
                label = pattern_text(pattern)
                proc = subprocess.run(
                    [sys.executable, "-m", "f4weyl",
                     *cli_argv(cmd, label, fmt)],
                    env=env, capture_output=True, check=True)
                record[f"{cmd} {label} {fmt}"] = {
                    "sha256": digest(proc.stdout), "bytes": len(proc.stdout)}
                print(cmd, label, fmt, len(proc.stdout), flush=True)
    (EXPECTED / "cli.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "f4weyl", "verify", "--seed", "314159"],
        env=env, capture_output=True, check=True, text=True)
    (EXPECTED / "verify_report.txt").write_text(proc.stdout)


if __name__ == "__main__":
    main()
