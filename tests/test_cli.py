"""Command-line interface: output formats, determinism, exit codes.

Commands run in-process through main(), so exit codes are return
values and output is captured per call.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from idealis import (
    Ideal,
    ParseError,
    TheoremCheck,
    __version__,
    make_idealization,
    make_local_algebra,
)
from idealis.cli import main, parse_property, eval_property


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_single_ideal(capsys):
    rc, out, _ = run(capsys, "classify", "Z12", "(4)")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ring"] == "Z12" and doc["ringSize"] == 12
    assert doc["toolVersion"] == __version__
    assert len(doc["corpusHash"]) == 64
    entry, = doc["ideals"]
    assert entry["generators"] == "(4)"
    assert entry["elements"] == [0, 4, 8]
    assert entry["verdicts"]["weaklyOneAbsorbingPrime"] is True
    assert entry["verdicts"]["weaklyPrime"] is False
    assert entry["witnesses"]["weaklyPrime"] == [2, 2]
    assert entry["witnesses"]["weaklyOneAbsorbingPrime"] is None
    assert len(doc["latticeEdges"]) == 7


def test_classify_all_proper_ideals(capsys):
    rc, out, _ = run(capsys, "classify", "Z5")
    assert rc == 0
    doc = json.loads(out)
    assert [e["generators"] for e in doc["ideals"]] == ["(0)"]
    assert doc["ideals"][0]["verdicts"]["prime"] is True
    assert doc["latticeEdges"] == [["(0)", "(1)"]]


def test_classify_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "classify", "Z30")
    rc2, out2, _ = run(capsys, "classify", "Z30")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1


def _ideal_tables(doc):
    return [{k: e[k] for k in ("elements", "verdicts", "witnesses")}
            for e in doc["ideals"]]


@pytest.mark.parametrize("derived, plain", [
    ("Z2 x Z720/(120)", "Z2 x Z120"),
    ("Z2 x Z4/(2)", "Z2 x Z2"),
])
def test_classify_product_with_quotient_factor(capsys, derived, plain):
    # the quotient's cosets are labelled by least members 0..m-1 with
    # arithmetic mod m, so both rings have identical tables
    rc, out, err = run(capsys, "classify", derived)
    assert rc == 0, err
    rc, ref, _ = run(capsys, "classify", plain)
    assert rc == 0
    assert _ideal_tables(json.loads(out)) == _ideal_tables(json.loads(ref))


def test_classify_golden_z30(capsys):
    rc, out, _ = run(capsys, "classify", "Z30", "(6)")
    doc = json.loads(out)
    v = doc["ideals"][0]["verdicts"]
    assert v["weaklyOneAbsorbingPrime"] is False
    assert v["weaklyTwoAbsorbing"] is True
    assert doc["ideals"][0]["witnesses"]["weaklyOneAbsorbingPrime"] == [2, 2, 3]


def test_classify_recheck(capsys):
    rc, _, err = run(capsys, "classify", "Z12", "--recheck")
    assert rc == 0
    assert "re-validate" in err


def test_classify_zero_ideal_footnote(capsys):
    _, out, _ = run(capsys, "classify", "Z12", "(0)")
    doc = json.loads(out)
    assert doc["ideals"][0]["footnotes"]


def test_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "classify", "Z12x")
    assert rc == 2
    assert "offset" in err
    rc, _, err = run(capsys, "classify", "Z12", "(13)")
    assert rc == 2
    rc, _, err = run(capsys, "classify", "Z6/(1)")
    assert rc == 2


def test_cap_exits_3(capsys):
    rc, _, err = run(capsys, "classify", "Z40", "--cap", "30")
    assert rc == 3
    assert "cap" in err


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.6 GiB", "error: Unable to allocate 7.6 GiB\n"),
    ("", "error: out of memory\n"),
])
def test_memory_error_exits_3(capsys, monkeypatch, tmp_path, message, line):
    def exhausted(rings):
        raise MemoryError(message)
    monkeypatch.setattr("idealis.cli.run_checks", exhausted)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z6\n")
    rc, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert (rc, out, err) == (3, "", line)


def _cli(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a subprocess at the default caps, on this checkout's
    source, with env added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "IDEALIS_CAP"}
    return subprocess.run([sys.executable, "-m", "idealis.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**base, "PYTHONPATH": path, **(env or {})}, **kwargs)


def test_lattice_cap_exits_3_quickly():
    # LocalAlg(2) idealized five times by its maximal ideal: 256 elements
    # and 29213 ideals, above the 1024 a lattice may hold at the default
    # caps; --cap raises the element cap, not this bound
    ring = make_local_algebra(2)
    for _ in range(5):
        ring = make_idealization(ring, Ideal(ring, ring.nonunits))
    start = time.monotonic()
    proc = _cli("classify", ring.text)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "more than 1024 ideals" in proc.stderr
    assert time.monotonic() - start < 5


def test_verify_fits_a_memory_limit(tmp_path):
    """verify on a ring of 1024 elements and 576 ideals under a 1 GiB
    address-space limit, set in the child only. The zero ideal has
    171685664 1-triple zeros, which the triple-zero checks fold over
    blocks of the class cube; listing them ran out of that memory."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("LocalAlg(2) x LocalAlg(2) x Z2 x Z2 x Z2 x Z2\n")
    limit = 1 << 30

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    start = time.monotonic()
    # one BLAS thread: the limit then bounds the program's arrays, not the
    # address space a BLAS thread pool reserves per core
    proc = _cli("verify", "--corpus", str(corpus), env={"OPENBLAS_NUM_THREADS": "1"},
                preexec_fn=limited)
    assert proc.returncode == 0, proc.stderr
    assert "171685664 triples across the tested ideals" in proc.stdout
    assert time.monotonic() - start < 60


def test_cap_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("IDEALIS_CAP", "30")
    rc, _, _ = run(capsys, "classify", "Z40", "(0)")
    assert rc == 3
    rc, _, _ = run(capsys, "classify", "Z40", "(0)", "--cap", "50")
    assert rc == 0
    monkeypatch.setenv("IDEALIS_CAP", "50")
    rc, _, _ = run(capsys, "classify", "Z40", "(0)")
    assert rc == 0


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_invalid_cap_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("IDEALIS_CAP", value)
    rc, out, err = run(capsys, "classify", "Z12", "(4)")
    assert rc == 2 and out == ""
    assert "IDEALIS_CAP must be a positive integer" in err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_nonpositive_cap_flag_exits_2(capsys, value):
    rc, out, err = run(capsys, "classify", "Z12", "(4)", "--cap", value)
    assert rc == 2 and out == ""
    assert "--cap must be a positive integer" in err


def test_non_integer_cap_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "Z12", "(4)", "--cap", "abc"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "lattice", "verify", "search"])
def test_every_command_documents_cap(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "element cap override" in capsys.readouterr().out


def test_localization_with_many_denominators(capsys):
    """|Z720| * |S| = 8640 pairs; the localization is built as a quotient,
    so there is no pair table to cap."""
    rc, out, _ = run(capsys, "classify",
                     "Loc(Z720, 1, 7, 49, 103, 241, 247, 289, 343, 481, 487, 529, 583)",
                     "(0)")
    assert rc == 0
    assert json.loads(out)["ringSize"] == 720


def test_lattice_dot_z12(capsys):
    rc, out, _ = run(capsys, "lattice", "Z12", "--dot")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph lattice {"
    nodes = [ln for ln in lines if "label=" in ln]
    edges = [ln for ln in lines if "->" in ln]
    assert len(nodes) == 6 and len(edges) == 7
    assert any('label="(0)\\n-p-a-b"' in ln for ln in nodes)
    assert any('label="(2)\\nPpAaBb"' in ln for ln in nodes)
    assert any('label="(1)"' in ln for ln in nodes)   # whole ring: no code


def test_lattice_dot_maximal_annotations(capsys):
    _, out2, _ = run(capsys, "lattice", "Z2", "--dot")
    assert "m2=0" in out2
    _, out8, _ = run(capsys, "lattice", "Z8", "--dot")
    assert "m3=0" in out8 and "m2=0" not in out8
    _, out12, _ = run(capsys, "lattice", "Z12", "--dot")
    assert "m2=0" not in out12 and "m3=0" not in out12
    # m = (2) in Z16 has m^3 = (8) but m^4 = 0
    _, out16, _ = run(capsys, "lattice", "Z16", "--dot")
    assert "m2=0" not in out16 and "m3=0" not in out16


def test_lattice_json(capsys):
    rc, out, _ = run(capsys, "lattice", "Z12")
    assert rc == 0
    doc = json.loads(out)
    assert [n["generators"] for n in doc["nodes"]] == \
        ["(0)", "(6)", "(4)", "(3)", "(2)", "(1)"]
    assert doc["nodes"][0]["code"] == "-p-a-b"
    assert doc["nodes"][-1]["code"] is None
    assert len(doc["edges"]) == 7
    assert ["(0)", "(6)"] in doc["edges"]


def test_verify_small_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z12\nZ30  # reduced\n\n# full-line comment\nZ2 x Z3\n")
    rc, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert rc == 0
    assert "corpus: 3 rings" in out
    lines = [ln for ln in out.splitlines()
             if ln and not ln.startswith((" ", "corpus", "check"))]
    assert len(lines) == 17
    assert all(" pass " in ln or " vacuous " in ln for ln in lines)
    assert "warning" not in err


def test_verify_empty_corpus_warns(capsys, tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("# nothing here\n")
    rc, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert rc == 0
    assert "warning" in err
    assert out.count(" vacuous ") >= 17


def test_verify_failure_exits_1(capsys, monkeypatch):
    fake = [TheoremCheck(check_id=cid, outcome="pass", tested=1, vacuous=0)
            for cid in ("a", "b")]
    fake.append(TheoremCheck(
        check_id="zn_table", outcome="fail", tested=1, vacuous=0,
        failures=[{"ring": "Z8", "ideal": "(4)", "note": "engine says False"}]))
    monkeypatch.setattr("idealis.cli.run_checks", lambda rings: fake)
    rc, out, _ = run(capsys, "verify", "--default")
    assert rc == 1
    assert 'idealis classify "Z8" "(4)"' in out
    assert "engine says False" in out


def test_verify_bad_corpus_path_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", "--corpus", str(tmp_path / "missing.txt"))
    assert rc == 2


def test_search_separating_example(capsys):
    rc, out, _ = run(capsys, "search", "--property",
                     "w1ap AND NOT weaklyPrime", "--max-size", "12")
    assert rc == 0
    assert out.splitlines() == ["Z8\t(4)", "Z2 x Z4\t((1, 0))",
                                "Z12\t(4)", "Z3 x Z4\t((1, 0))"]


def test_closed_pipe_exits_0_quietly():
    # as in `idealis search ... | head -2`: the reader leaves after two lines
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idealis.cli", "search", "--property",
         "w1ap AND NOT weaklyPrime", "--max-size", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path})
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert lines == ["Z8\t(4)\n", "Z2 x Z4\t((1, 0))\n"]
    assert proc.returncode == 0 and err == ""


@pytest.mark.parametrize("value", ["-3", "0"])
def test_nonpositive_max_size_exits_2(capsys, value):
    rc, out, err = run(capsys, "search", "--property", "w1ap", "--max-size", value)
    assert rc == 2 and out == ""
    assert "--max-size must be a positive integer" in err


def test_search_prime_small(capsys):
    rc, out, _ = run(capsys, "search", "--property", "prime", "--max-size", "4")
    assert rc == 0
    assert out.splitlines() == [
        "Z2\t(0)", "Z3\t(0)", "Z4\t(2)",
        "Z2 x Z2\t((0, 1))", "Z2 x Z2\t((1, 0))"]


def test_search_contradiction_is_empty(capsys):
    rc, out, _ = run(capsys, "search", "--property", "prime AND NOT prime",
                     "--max-size", "8")
    assert rc == 0 and out == ""


def test_search_property_grammar(capsys):
    tree = parse_property("w1ap AND NOT (prime OR 2abs)")
    verdicts = {"weaklyOneAbsorbingPrime": True, "prime": False,
                "twoAbsorbing": False}
    assert eval_property(tree, verdicts)
    verdicts["twoAbsorbing"] = True
    assert not eval_property(tree, verdicts)
    # case-insensitive keywords and names
    assert parse_property("W1AP and not PRIME") == \
        ("and", ("name", "weaklyOneAbsorbingPrime"), ("not", ("name", "prime")))


def test_search_bad_property_exits_2(capsys):
    rc, _, err = run(capsys, "search", "--property", "w1ap AND NOT wibble")
    assert rc == 2
    assert "offset" in err
    rc, _, _ = run(capsys, "search", "--property", "w1ap AND")
    assert rc == 2
    rc, _, _ = run(capsys, "search", "--property", "(w1ap")
    assert rc == 2


def test_search_property_error_offsets():
    cases = (("w1ap AND", 8), ("(w1ap", 5), ("w1ap wibble", 5),
             ("w1ap AND NOT wibble", 13), ("w1ap ANDprime", 5))
    for text, offset in cases:
        with pytest.raises(ParseError) as info:
            parse_property(text)
        assert info.value.offset == offset, text
