"""The README agrees with the code: every ring form of its expression
table builds and prints back to itself, its element-literal example
resolves, its Python API example runs, and its `verify` sample is the
start of the golden output, and every flag it names is one the CLI
accepts."""

import argparse
import re
from pathlib import Path

from idealis import (
    build_ring_text,
    ideal_text,
    parse_ideal,
    zn_isomorphism,
)
from idealis.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _table_forms() -> list[str]:
    section = README.split("| form ", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_table_forms_build_and_print_back():
    forms = _table_forms()
    assert len(forms) == 6
    for text in forms:
        assert build_ring_text(text).text == text


def test_idealization_in_product_literal():
    ring = build_ring_text("Idealize(Z4, (2)) x Z2")
    assert ideal_text(parse_ideal("(((1, 0), 1))", ring)) == "(((1, 0), 1))"


def test_python_example_runs(capsys):
    (block,) = _python_blocks()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 5   # proper ideals of Z12
    assert zn_isomorphism(namespace["loc"]) is not None     # "isomorphic to Z4"


def test_verify_sample_is_the_golden_output():
    section = README.split("### verify", 1)[1].split("### search", 1)[0]
    sample = re.findall(r"```\n(corpus: .*?)```", section, flags=re.DOTALL)[0]
    *shown, elided = sample.splitlines()
    golden = (ROOT / "tests" / "golden" / "verify_default.txt").read_text(encoding="utf-8")
    assert elided == "..." and len(shown) > 2
    assert shown == golden.splitlines()[:len(shown)]


def _readme_flags() -> set[str]:
    """Every --option in a code span or on an `idealis ...` line."""
    texts = re.findall(r"`([^`\n]+)`", README) + re.findall(r"\bidealis [^\n]*", README)
    return {flag for text in texts for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", text)}


def test_readme_flags_are_cli_flags():
    ap = _build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    accepted = set(ap._option_string_actions).union(
        *(p._option_string_actions for p in sub.choices.values()))
    named = _readme_flags()
    assert {"--recheck", "--dot", "--corpus", "--default", "--property",
            "--max-size"} <= named
    assert named <= accepted, named - accepted
