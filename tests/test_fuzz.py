"""Byte-level fuzz of the three inputs: config, dictionary and data.

Each run mutates one of ``sample/``'s inputs (the data cut to its first
rows, the forest to a few trees, ``features`` set so that ``mine`` needs no
selection) with a seeded ``random.Random`` and runs ``describe``,
``select-vars`` and ``mine`` in-process. Whatever the bytes, a command must
exit 0, or exit 2 and name the stage it failed in: exit 1 is for runtime and
I/O failures, which a bad input is not. Mutations are mostly printable ASCII,
so that most runs get past UTF-8 decoding to the parsers behind it.
"""

import json
import random
import shutil
import string
from pathlib import Path

import pytest

from rulekit.cli import main

SAMPLE = Path(__file__).resolve().parent.parent / "sample"
COMMANDS = ("describe", "select-vars", "mine")
DATA_ROWS = 150
RUNS = 40  # mutated copies of each input
PRINTABLE = string.printable.encode()
KINDS = tuple(k.encode() for k in (string.digits, string.ascii_lowercase, string.ascii_uppercase))


def _inputs() -> dict[str, bytes]:
    config = json.loads((SAMPLE / "config.json").read_text())
    config["data"] = "data.csv"
    config["forest"]["n_trees"] = 3
    config["features"] = ["weather", "road_surface", "alignment", "driver_condition"]
    lines = (SAMPLE / "crashes.csv").read_bytes().splitlines(keepends=True)
    return {
        "config.json": json.dumps(config, indent=2).encode(),
        "dictionary.json": (SAMPLE / "dictionary.json").read_bytes(),
        "data.csv": b"".join(lines[: DATA_ROWS + 1]),
    }


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """data with one to three edits: a byte replaced (one in twenty by any
    byte at all), inserted or deleted, a digit or letter replaced by another
    of its kind, or a line swapped with another, deleted or repeated."""
    b = bytearray(data)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        op = rng.randrange(8)
        at = rng.randrange(len(b))
        if op == 0:
            b[at] = rng.randrange(256) if rng.random() < 0.05 else rng.choice(PRINTABLE)
        elif op == 1:
            b.insert(at, rng.choice(PRINTABLE))
        elif op == 2:
            del b[at]
        elif op <= 4:
            # a field stays well formed: a count, seed, id or name changes
            kind = next((k for k in KINDS if b[at] in k), None)
            if kind is not None:
                b[at] = rng.choice(kind)
        else:
            lines = bytes(b).splitlines(keepends=True)
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 5:
                lines[i], lines[j] = lines[j], lines[i]
            elif op == 6:
                del lines[i]
            else:
                lines.insert(i, lines[j])
            b = bytearray(b"".join(lines))
    return bytes(b)


@pytest.mark.parametrize("target", ["config.json", "dictionary.json", "data.csv"])
def test_mutated_inputs_exit_0_or_2(tmp_path, capsys, target):
    inputs = _inputs()
    rng = random.Random(f"fuzz-{target}")
    out = tmp_path / "out"
    codes = []
    for run in range(RUNS):
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(_mutate(data, rng) if name == target else data)
        for command in COMMANDS:
            shutil.rmtree(out, ignore_errors=True)
            code = main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2), (run, command, err)
            assert (f"rulekit: {command} failed in stage '" in err) == (code == 2), (run, err)
            codes.append(code)
    assert 0 in codes and 2 in codes
