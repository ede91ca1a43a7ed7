"""The README's examples run as written: each ```python block executes and
gives the values its comments show, and each `$ wpfield ...` line that is
followed by its output prints exactly that line."""

import re
import shlex
from pathlib import Path

import pytest

from wpfield import expr_to_text
from wpfield.cli import main
from wpfield.reduction import UnimodularMatrix

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_examples():
    """(command, output) for every `$ wpfield` line whose next line is its
    output: not another command, not a `...` placeholder, not a pipe."""
    out = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for line, following in zip(lines, lines[1:] + [""]):
            if not line.startswith("$ wpfield ") or "|" in line:
                continue
            if not following or following.startswith(("$", "...")):
                continue
            out.append((line[len("$ wpfield "):], following))
    return out


SHELL_EXAMPLES = _shell_examples()


def test_python_blocks_run_and_show_their_values():
    blocks = _blocks("python")
    assert len(blocks) == 2
    ns = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    wp = ns["wp"]
    assert (f"{wp.value.real:.4f}", f"{wp.value.imag:.4f}") == ("-2.8408", "-3.0104")
    assert wp.est_error == 1e-12
    assert ns["p"] == wp  # a held Lattice reads the value the evaluator does
    r = ns["r"]
    assert r.gamma == UnimodularMatrix(1, -3, 1, -2)
    assert (r.m, r.n) == (8, -4)
    assert abs(r.tau_star - complex(-0.2, 1.6)) < 1e-12
    assert abs(r.z_star - complex(0.384, -0.112)) < 1e-12
    assert abs(r.scale - complex(0.3, 0.4)) < 1e-12
    assert expr_to_text(ns["d"]) == "-(wp)"
    assert ns["residual"] < 1e-10
    exec(compile(blocks[1], "README.md", "exec"), {})


def test_the_shell_examples_are_found():
    commands = [command.split()[0] for command, _ in SHELL_EXAMPLES]
    assert sorted(set(commands)) == ["diff", "eval", "reduce", "series"]


@pytest.mark.parametrize(
    "command, output", SHELL_EXAMPLES, ids=[command for command, _ in SHELL_EXAMPLES]
)
def test_shell_example_prints_its_output(capsys, command, output):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == output + "\n"
