"""Write the committed correctness references under references/.

Run once, at the commit that defines the benchmark:

    python3 perfbench/make_references.py

The references are the CLI's own output at that commit, so a later
change is checked against what idealis printed before it. Never re-run
this to make a failing benchmark pass: a reference that changes is a
change of answers, which the benchmark exists to catch.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from idealis import default_corpus_exprs, print_expr  # noqa: E402
from idealis.cli import main as cli_main  # noqa: E402

from workloads import (  # noqa: E402
    CLASSIFY_POOL,
    KNOWN_FAILURE,
    KNOWN_FAILURE_TWIN,
    REFERENCE_DIR,
    canonical,
    sha256,
    table_digest,
)


def cli_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"idealis {' '.join(argv)} exited {code}")
    return buf.getvalue()


def ideal_entry_digests(output: str) -> list[str]:
    return [sha256(canonical(e)) for e in json.loads(output)["ideals"]]


def classify_reference() -> dict:
    rings = {}
    for text in CLASSIFY_POOL:
        out = cli_stdout("classify", text)
        digests = ideal_entry_digests(out)
        rings[text] = {"sha256": sha256(out), "proper_ideals": len(digests),
                       "ideal_sha256": digests}
    twin = cli_stdout("classify", KNOWN_FAILURE_TWIN)
    return {"rings": rings,
            "known_failure": {"ring": KNOWN_FAILURE, "twin": KNOWN_FAILURE_TWIN,
                              "table_sha256": table_digest(twin)}}


def verify_reference() -> dict:
    """verify over a fixed random half of the default corpus, in corpus
    order, written to references/verify_corpus.txt as the workload's
    input. A stride would drop whole families: the corpus lists Z_n by n."""
    corpus = REFERENCE_DIR / "verify_corpus.txt"
    lines = [print_expr(e) for e in default_corpus_exprs()]
    lines = [lines[i] for i in sorted(random.Random(0).sample(range(len(lines)),
                                                          len(lines) // 2))]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = cli_stdout("verify", "--corpus", str(corpus))
    table = out.split("\n", 1)[1].rstrip("\n")     # drop the corpus line
    instances = 0
    for line in table.splitlines()[1:]:
        m = re.match(r"^\S+\s+\S+\s+(\d+)\s+(\d+)$", line)
        if m:
            instances += int(m.group(1)) + int(m.group(2))
    boundary = re.search(r"shape predicate is false: ([\d, ]+)$", table, re.M)
    return {"table": table, "instances": instances,
            "zn_boundary": [int(n) for n in boundary.group(1).split(", ")]}


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, ref in (("classify_large", classify_reference()),
                      ("verify_corpus", verify_reference())):
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
