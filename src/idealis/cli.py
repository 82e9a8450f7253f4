"""Command-line interface.

Subcommands: classify (JSON report), lattice (JSON or DOT Hasse
diagram), verify (theorem harness over a corpus), search (stream
(ring, ideal) pairs matching a property expression).

Exit codes: 0 success, 1 failed check or recheck, 2 syntax or domain
error (a malformed IDEALIS_CAP included), 3 cap exceeded or out of
memory. IDEALIS_CAP is the caps' one setting; no flag overrides it. JSON
output is key-sorted and byte-stable for a fixed input and tool version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .classify import VERDICT_KEYS, classify, witness_violates
from .dsl import _Parser, build_ring_text, ideal_text, parse_ideal, parse_ring
from .errors import CapExceeded, EngineError, ParseError
from .ideals import Ideal, all_ideals
from .rings import DEFAULT_ELEMENT_CAP, FiniteRing, make_product, make_zn
from .theorems import (
    TheoremCheck,
    build_corpus,
    corpus_hash,
    default_corpus_exprs,
    run_checks,
)

# one letter per class, false shown as '-'; row order mirrors the
# implication diagram: prime, weakly prime, 1-absorbing, weakly
# 1-absorbing, 2-absorbing, weakly 2-absorbing
_CODE_ORDER = (
    ("prime", "P"),
    ("weaklyPrime", "p"),
    ("oneAbsorbingPrime", "A"),
    ("weaklyOneAbsorbingPrime", "a"),
    ("twoAbsorbing", "B"),
    ("weaklyTwoAbsorbing", "b"),
)


def _verdict_code(verdicts: dict[str, bool]) -> str:
    return "".join(letter if verdicts[key] else "-"
                   for key, letter in _CODE_ORDER)


# ---------------------------------------------------------------------------
# classify


def _ideal_entry(p: Ideal) -> dict:
    rep = classify(p)
    witnesses = {
        k: (None if w is None else [int(a) for a in w])
        for k, w in rep.witnesses.items()
    }
    return {
        "generators": ideal_text(p),
        "elements": [int(a) for a in p.elements],
        "verdicts": dict(rep.verdicts),
        "witnesses": witnesses,
        "footnotes": list(rep.footnotes),
    }


def _input_hash(lines: list[str]) -> str:
    """Hash of the canonical input lines, same format as corpus_hash."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def classification_report(ring: FiniteRing, ideals: list[Ideal],
                          hash_lines: list[str]) -> dict:
    lat = all_ideals(ring)
    labels = [ideal_text(p) for p in lat]
    edges = [[labels[i], labels[j]] for i, j in lat.covers]
    return {
        "ring": ring.text,
        "ringSize": ring.size,
        "ideals": [_ideal_entry(p) for p in ideals],
        "latticeEdges": edges,
        "toolVersion": __version__,
        "corpusHash": _input_hash(hash_lines),
    }


def _cmd_classify(args) -> int:
    ring = build_ring_text(args.ring)
    if args.ideal is not None:
        ideals = [parse_ideal(args.ideal, ring)]
        lines = [f"{ring.text} {ideal_text(ideals[0])}"]
    else:
        ideals = all_ideals(ring).proper
        lines = [ring.text]
    report = classification_report(ring, ideals, lines)
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.recheck:
        bad = 0
        for p in ideals:
            rep = classify(p)
            for key in VERDICT_KEYS:
                wit = rep.witnesses[key]
                if rep.verdicts[key] != (wit is None):
                    bad += 1
                elif wit is not None and not witness_violates(p, key, wit):
                    bad += 1
                    print(f"recheck: witness {wit} for {key} on "
                          f"{ideal_text(p)} does not violate the definition",
                          file=sys.stderr)
        if bad:
            print(f"recheck: {bad} witness mismatches", file=sys.stderr)
            return 1
        print("recheck: all witnesses re-validate", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# lattice


def _maximal_annotation(lat, idx: int) -> str:
    if idx not in lat.maximal_indices:
        return ""
    m2 = lat.product_table[idx, idx]          # index 0 is the zero ideal
    if m2 == 0:
        return " m2=0"
    if lat.product_table[m2, idx] == 0:
        return " m3=0"
    return ""


def _cmd_lattice(args) -> int:
    ring = build_ring_text(args.ring)
    lat = all_ideals(ring)
    labels = [ideal_text(p) for p in lat]
    codes = [_verdict_code(classify(p).verdicts) for p in lat.proper]
    if args.dot:
        lines = ["digraph lattice {", "  rankdir=BT;",
                 '  node [shape=box, fontname="monospace"];']
        for i, p in enumerate(lat):
            note = _maximal_annotation(lat, i)
            if i < len(lat) - 1:
                label = f"{labels[i]}\\n{codes[i]}{note}"
            else:
                label = labels[i] + note
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in lat.covers:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        print("\n".join(lines))
        return 0
    nodes = []
    for i, p in enumerate(lat):
        nodes.append({
            "generators": labels[i],
            "size": len(p),
            "code": codes[i] if i < len(lat) - 1 else None,
        })
    doc = {
        "ring": ring.text,
        "ringSize": ring.size,
        "nodes": nodes,
        "edges": [[labels[i], labels[j]] for i, j in lat.covers],
        "toolVersion": __version__,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# verify


def _read_corpus(path: str) -> list:
    exprs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                exprs.append(parse_ring(text))
    return exprs


def render_checks(checks: list[TheoremCheck]) -> str:
    lines = [f"{'check':30} {'outcome':8} {'tested':>7} {'vacuous':>8}"]
    for c in checks:
        lines.append(f"{c.check_id:30} {c.outcome:8} {c.tested:>7} {c.vacuous:>8}")
        if c.detail:
            lines.append(f"    {c.detail}")
    for c in checks:
        if not c.failures:
            continue
        lines.append(f"failures in {c.check_id}:")
        for f in c.failures:
            cmd = f'  idealis classify "{f["ring"]}"'
            if f["ideal"] is not None:
                cmd += f' "{f["ideal"]}"'
            lines.append(f"{cmd}  # {f['note']}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.corpus is not None:
        exprs = _read_corpus(args.corpus)
    else:
        exprs = default_corpus_exprs()
    rings = build_corpus(exprs)
    checks = run_checks(rings)
    print(f"corpus: {len(rings)} rings, hash {corpus_hash(exprs)}")
    print(render_checks(checks))
    if any(c.outcome == "fail" for c in checks):
        return 1
    if all(c.outcome == "vacuous" for c in checks):
        print("warning: every check was vacuous; the corpus exercises "
              "no hypotheses", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# search

_PROPERTY_ALIASES = {
    "prime": "prime",
    "weaklyprime": "weaklyPrime",
    "wprime": "weaklyPrime",
    "wp": "weaklyPrime",
    "twoabsorbing": "twoAbsorbing",
    "2absorbing": "twoAbsorbing",
    "2abs": "twoAbsorbing",
    "weaklytwoabsorbing": "weaklyTwoAbsorbing",
    "w2absorbing": "weaklyTwoAbsorbing",
    "w2abs": "weaklyTwoAbsorbing",
    "oneabsorbingprime": "oneAbsorbingPrime",
    "oneabsorbing": "oneAbsorbingPrime",
    "1absorbing": "oneAbsorbingPrime",
    "1absprime": "oneAbsorbingPrime",
    "1abs": "oneAbsorbingPrime",
    "weaklyoneabsorbingprime": "weaklyOneAbsorbingPrime",
    "w1absorbing": "weaklyOneAbsorbingPrime",
    "w1abs": "weaklyOneAbsorbingPrime",
    "w1ap": "weaklyOneAbsorbingPrime",
}


class _PropertyParser(_Parser):
    """Property expressions: OR < AND < NOT, parenthesized subterms.
    Keywords and property names are case-insensitive words."""

    def _word(self) -> str:
        """The lowercased word at the cursor, without consuming it."""
        self._ws()
        end = self.pos
        while end < len(self.text) and (self.text[end].isalnum()
                                        or self.text[end] == "_"):
            end += 1
        return self.text[self.pos:end].lower()

    def _keyword(self, word: str) -> bool:
        if self._word() != word:
            return False
        self.pos += len(word)
        return True

    def parse(self):
        node = self.or_expr()
        if not self.at_end():
            self._fail("AND", "OR", "end of input")
        return node

    def or_expr(self):
        node = self.and_expr()
        while self._keyword("or"):
            node = ("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self._keyword("and"):
            node = ("and", node, self.not_expr())
        return node

    def not_expr(self):
        if self._keyword("not"):
            return ("not", self.not_expr())
        if self._eat("("):
            node = self.or_expr()
            self._expect(")")
            return node
        word = self._word()
        if word not in _PROPERTY_ALIASES:
            self._fail("NOT", "'('", "a property name")
        self.pos += len(word)
        return ("name", _PROPERTY_ALIASES[word])


def parse_property(text: str):
    return _PropertyParser(text).parse()


def eval_property(node, verdicts: dict[str, bool]) -> bool:
    kind = node[0]
    if kind == "name":
        return verdicts[node[1]]
    if kind == "not":
        return not eval_property(node[1], verdicts)
    if kind == "and":
        return eval_property(node[1], verdicts) and eval_property(node[2], verdicts)
    return eval_property(node[1], verdicts) or eval_property(node[2], verdicts)


def _search_rings(size: int, _unused=None):  # perfbench/tests/test_harness.py passes None
    """Deterministic universe for one size: Z_size, then two-factor
    products Z_a x Z_b with a <= b and ab = size."""
    yield make_zn(size)
    for a in range(2, size + 1):
        if a * a > size:
            break
        if size % a == 0:
            yield make_product(make_zn(a), make_zn(size // a))


def _cmd_search(args) -> int:
    prop = parse_property(args.property)
    if args.max_size < 1:
        raise ValueError(f"--max-size must be a positive integer, got {args.max_size}")
    for size in range(2, args.max_size + 1):
        for ring in _search_rings(size):
            for p in all_ideals(ring).proper:
                if eval_property(prop, classify(p).verdicts):
                    print(f"{ring.text}\t{ideal_text(p)}")
                    sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# entry point


_CAP_NOTE = (f"IDEALIS_CAP=N (default {DEFAULT_ELEMENT_CAP}) bounds rings at N elements "
             "and ideal lattices at N ideals; exceeding either exits 3.")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealis", epilog=_CAP_NOTE,
        description="Exact ideal classification over finite commutative rings.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", epilog=_CAP_NOTE,
                       help="classify one ideal or all proper ideals")
    p.add_argument("ring", help='ring expression, e.g. "Z12"')
    p.add_argument("ideal", nargs="?", default=None,
                   help='ideal literal, e.g. "(4)"')
    p.add_argument("--recheck", action="store_true",
                   help="re-validate every reported witness; exit 1 on mismatch")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lattice", epilog=_CAP_NOTE, help="ideal lattice as JSON or DOT")
    p.add_argument("ring")
    p.add_argument("--dot", action="store_true", help="emit a DOT Hasse diagram")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", epilog=_CAP_NOTE,
                       help="run every theorem check over a corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", help="file of ring expressions, one per line")
    src.add_argument("--default", action="store_true",
                     help="use the built-in default corpus")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", epilog=_CAP_NOTE,
                       help="stream (ring, ideal) pairs matching a property")
    p.add_argument("--property", required=True,
                   help='e.g. "w1ap AND NOT weaklyPrime"')
    p.add_argument("--max-size", type=int, default=16, dest="max_size")
    p.set_defaults(func=_cmd_search)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()          # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:         # the reader stopped early: not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CapExceeded, MemoryError) as err:  # overload
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 3
    except (EngineError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
