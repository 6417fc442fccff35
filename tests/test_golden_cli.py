"""Byte-for-byte CLI output on a fixed set of commands.

Each file under tests/golden/ holds the stdout of one command, recorded
before the code it pins was rewritten: the S-matrix, kernel, fusion and
(4,3) verify files before the S-matrix builder moved to the sl3
factorisation, the (5,4) and (4,5) fusion-oracle files before the oracle
was batched over candidate classes, and the list-modules, orbit, resolve,
simple-currents, full (4,3) verify and (6,5) fusion files before orbit
identity, order and fusion representatives moved into one table per level
pair, and the (7,5) and (5,4) fusion files before labels cached their
hashes and standard fusion read the sl3 tables directly.  The S-matrix
dumps pin every printed float bit; the kernel, fusion and verify outputs
pin the exact results that read the matrix.  The (6,5) fusion has
u = 0 mod 3, so its W3 fusions take the s-side representative.  The (7,5)
fusion is a highest-weight label at half-integral flow against a standard
label of charge 5/97, through resolutions (25 terms); the (5,4) fusion is
highest-weight by highest-weight.  The (5,4) out-of-order resolution
fusion was recorded before the resolution path was rewritten to build
one product; its second label's resolution lists a standard term at flow
11 before the same term at flow 5.  The (6,5) highest-weight by
highest-weight fusion (u = 0 mod 3, so s-side representatives, at
half-integral flow) and the (8,7) resolution fusion (the first past
(7,5)) were recorded before the resolution path moved to integer keys
over one charge denominator per call.  The (6,5) S-matrix was recorded
before the builder moved to gathering entries from two cached Weyl-sum
tables; it pins the sign of exact zeros such as entry [12][19], whose
unscaled product is -0 + 0j: Python's complex-by-float division gives
+0.0 there and a componentwise division -0.0, which neither the (5,3),
(4,5) and (7,5) dumps nor the tests' `np.array_equal` would notice.
The two `--table` files (plain text, hence `.txt`) were recorded before the
JSON writer took the S-matrix as an array: the (6,5) table prints both
signs of zero, and the (4,3) one prints every suite's result.
"""
from pathlib import Path

import pytest

from bpfusion.cli import COMMANDS as CLI_COMMANDS
from bpfusion.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "smatrix-w3-5-3": ["smatrix-w3", "5", "3"],
    "smatrix-w3-4-5": ["smatrix-w3", "4", "5"],
    "smatrix-w3-7-5": ["smatrix-w3", "7", "5"],
    "smatrix-w3-6-5": ["smatrix-w3", "6", "5"],
    "kernel-bp-3-4": ["kernel-bp", "3", "4", "I[0,0,0;2,-1,0]^0", "R~[1/7;[[0,0,0;1,0,0]]]^0"],
    "fuse-3-4-standard": ["fuse", "3", "4", "R~[1/7;[[0,0,0;1,0,0]]]^0", "R~[2/7;[[0,0,0;1,0,0]]]^0"],
    "fuse-3-4-resolution": ["fuse", "3", "4", "I[0,0,0;0,0,1]^0", "I[0,0,0;1,-1,1]^0"],
    "verify-4-3-fusion-oracle": ["verify", "4", "3", "--suite", "fusion-oracle"],
    "verify-5-4-fusion-oracle": ["verify", "5", "4", "--suite", "fusion-oracle"],
    "verify-4-5-fusion-oracle": ["verify", "4", "5", "--suite", "fusion-oracle"],
    "verify-4-3": ["verify", "4", "3"],
    "list-modules-5-4": ["list-modules", "5", "4"],
    "orbit-5-3": ["orbit", "5", "3", "[1,1,0;0,0,0]"],
    "resolve-3-4": ["resolve", "3", "4", "I[0,0,0;0,0,1]", "--depth", "12"],
    "simple-currents-5-3": ["simple-currents", "5", "3"],
    "fuse-6-5-s-representative": [
        "fuse", "6", "5", "R~[1/7;[[0,1,2;0,1,1]]]^0", "R~[2/7;[[1,1,1;0,1,1]]]^0",
    ],
    "fuse-7-5-resolution-half-flow": [
        "fuse", "7", "5", "I[1,1,2;0,1,1]^1/2", "R~[5/97;[[1,1,2;0,1,1]]]^1",
    ],
    "fuse-5-4-hw-by-hw": ["fuse", "5", "4", "I[0,0,2;1,-1,1]^0", "I[0,1,1;0,0,1]^1/2"],
    "fuse-5-4-out-of-order-resolution": ["fuse", "5", "4", "I[2,0,0;1,-1,1]^3", "I[1,0,1;1,-1,1]^1"],
    "fuse-6-5-hw-by-hw-half-flow": ["fuse", "6", "5", "I[1,0,2;1,-1,2]^1/2", "I[1,1,1;1,0,1]^1"],
    "fuse-8-7-resolution": ["fuse", "8", "7", "I[2,1,2;1,1,2]^1", "R~[11/97;[[0,2,3;1,2,1]]]^-1"],
    "smatrix-w3-6-5-table": ["smatrix-w3", "6", "5", "--table"],
    "verify-4-3-table": ["verify", "4", "3", "--table"],
}


def golden(name: str) -> Path:
    return GOLDEN / (name + (".txt" if "--table" in COMMANDS[name] else ".json"))


def test_every_golden_file_has_a_command():
    assert {p.name for p in GOLDEN.iterdir()} == {golden(name).name for name in COMMANDS}


def test_every_cli_command_has_a_golden_file():
    assert {argv[0] for argv in COMMANDS.values()} == set(CLI_COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_byte_identical(capsys, name):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == golden(name).read_text()
