"""The plain-format command-line examples of README.md reproduce.

Each ``$ isomean … --format plain`` example is run through ``cli.main``.
Every ``key = value`` line it shows must appear in the output under the
same key, numbers within 1e-12 relative and text exactly.
"""
import re
import shlex
from pathlib import Path

import pytest

from isomean.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, {key: shown value}) for each plain-format example."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        lines = block.splitlines()
        if not (lines and lines[0].startswith("$ isomean ") and "--format plain" in lines[0]):
            continue
        shown = {}
        for line in lines[1:]:
            key, sep, value = re.sub(r"\s+#.*$", "", line).partition(" = ")
            if sep:
                shown[key.strip()] = value.strip()
        out.append((shlex.split(lines[0][len("$ isomean ") :]), shown))
    return out


EXAMPLES = _examples()


def test_readme_has_plain_examples():
    assert len(EXAMPLES) >= 3
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(argv[:1] + argv[1:5]) for argv, _ in EXAMPLES])
def test_readme_example_reproduces(capsys, argv, shown):
    assert main(argv) == 0
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    for key, want in shown.items():
        assert key in printed, f"{key} not printed"
        try:
            want_number = float(want)
        except ValueError:
            assert printed[key] == want, key
        else:
            assert float(printed[key]) == pytest.approx(want_number, rel=1e-12), key
