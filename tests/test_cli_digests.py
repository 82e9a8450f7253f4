"""Every CLI output of tests/cli_digests.py still has its golden digest."""

from cli_digests import GOLDEN, digest_lines


def test_cli_outputs_match_their_golden_digests():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = digest_lines()
    assert len(lines) == len(golden) == 521
    changed = [new.split("  ", 1)[1] for new, old in zip(lines, golden)
               if new != old]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
