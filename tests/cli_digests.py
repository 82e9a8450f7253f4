"""Per-command sha256 digests of CLI output, for byte-identity checks.

The commands are `lattice --dot` and `classify --recheck` on each of the
260 default-corpus rings, then `search --property "w1ap AND NOT
weaklyPrime" --max-size 64`. Each runs in-process through
`idealis.cli.main`, and its digest is the sha256 of its exit code,
stdout and stderr. `tests/golden/cli_digests.txt` holds one line per
command: the digest, two spaces, and the shell-quoted arguments.

Regenerate the golden only when an output is meant to change:

    PYTHONPATH=src python tests/cli_digests.py > tests/golden/cli_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from idealis import cli
from idealis.expr import print_expr
from idealis.theorems import default_corpus_exprs

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.txt"


def commands() -> list[list[str]]:
    texts = [print_expr(e) for e in default_corpus_exprs()]
    return ([["lattice", "--dot", t] for t in texts]
            + [["classify", "--recheck", t] for t in texts]
            + [["search", "--property", "w1ap AND NOT weaklyPrime",
                "--max-size", "64"]])


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def digest_lines() -> list[str]:
    return [f"{digest(argv)}  {shlex.join(argv)}" for argv in commands()]


if __name__ == "__main__":
    sys.stdout.write("\n".join(digest_lines()) + "\n")
