import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpfusion
import fusion_reference as reference
from bpfusion import cli
from bpfusion.cli import COMMANDS as CLI_COMMANDS
from bpfusion.cli import main
from bpfusion.labels import parse_label
from bpfusion.levels import level_params
from bpfusion.w3modular import W3SMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_fuse_standard_pair(self, capsys):
        code, out = run(
            capsys, "fuse", "3", "4", "R~[1/7;[[0,0,0;1,0,0]]]^0", "R~[2/7;[[0,0,0;1,0,0]]]^0"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["result"]) == 4
        p = level_params(3, 4)
        for entry in payload["result"]:
            parse_label(p, entry["label"])  # every printed label re-parses

    def test_fuse_general_label(self, capsys):
        code, out = run(capsys, "fuse", "3", "4", "I[0,0,0;0,0,1]^0", "I[0,0,0;1,-1,1]^0")
        assert code == 0
        labels = {e["label"] for e in json.loads(out)["result"]}
        assert labels == {"I[0,0,0;1,-1,1]^0", "R~[3/4;[[0,0,0;0,0,1]]]^-1"}

    def test_list_modules(self, capsys):
        code, out = run(capsys, "list-modules", "4", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == "-5/3" and len(payload["highest_weight"]) == 9

    def test_smatrix_dump(self, capsys):
        code, out = run(capsys, "smatrix-w3", "5", "3")
        payload = json.loads(out)
        assert code == 0 and len(payload["orbits"]) == 2
        assert {"re", "im"} == set(payload["entries"][0][0])

    def test_kernel(self, capsys):
        code, out = run(capsys, "kernel-bp", "3", "4", "I[0,0,0;2,-1,0]^0", "R~[1/7;[[0,0,0;1,0,0]]]^0")
        assert code == 0
        assert json.loads(out)["kind"] == "type3"

    def test_resolve(self, capsys):
        code, out = run(capsys, "resolve", "3", "4", "I[0,0,0;1,-1,1]", "--depth", "4")
        assert code == 0
        assert [e["coeff"] for e in json.loads(out)["terms"]] == [1, -1, 1]

    def test_simple_currents(self, capsys):
        code, out = run(capsys, "simple-currents", "5", "3")
        payload = json.loads(out)
        assert code == 0
        assert {c["j"] for c in payload["currents"]} == {"2/3", "-2/3"}
        assert {c["delta"] for c in payload["currents"]} == {"1"}

    def test_verify_suite(self, capsys):
        code, out = run(capsys, "verify", "4", "3", "--suite", "w3-unitarity")
        assert code == 0 and json.loads(out)["ok"]

    def test_orbit(self, capsys):
        code, out = run(capsys, "orbit", "5", "3", "[1,1,0;0,0,0]")
        payload = json.loads(out)
        assert code == 0 and payload["w3_delta"] == "-1/5"


class TestErrors:
    def test_bad_level(self, capsys):
        code, _ = run(capsys, "list-modules", "6", "3")
        assert code == 1

    def test_bad_label(self, capsys):
        code, _ = run(capsys, "fuse", "4", "3", "nonsense", "more")
        assert code == 1

    def test_gap_kernel_is_domain_error(self, capsys):
        code, _ = run(capsys, "kernel-bp", "3", "4", "I[0,0,0;2,-1,0]^0", "R~[1/4;[[0,0,0;1,0,0]]]^0")
        assert code == 1

    def test_usage_error(self, capsys):
        code, _ = run(capsys, "fuse", "4", "3")
        assert code == 1

    def test_malformed_flow_index(self, capsys):
        code, _ = run(capsys, "fuse", "3", "4", "I[0,0,0;0,0,1]^x", "R~[1/7;[[0,0,0;1,0,0]]]^0")
        assert code == 1

    def test_zero_denominator_charge(self, capsys):
        code, _ = run(
            capsys, "kernel-bp", "3", "4", "R~[1/0;[[0,0,0;1,0,0]]]^0", "R~[1/7;[[0,0,0;1,0,0]]]^0"
        )
        assert code == 1

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "verify", "4", "3", "--suite", "nope")
        assert code == 1

    @pytest.mark.parametrize("other", ["[0,0,0;1,0,0]", "[[0,0,0;1,0,0]]"])
    def test_fuse_rejects_weight_and_orbit_labels(self, capsys, other):
        for labels in (("R~[1/7;[[0,0,0;1,0,0]]]^0", other), (other, "R~[1/7;[[0,0,0;1,0,0]]]^0")):
            code = main(["fuse", "3", "4", *labels])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_resolve_rejects_a_depth_below_one(self, capsys, depth):
        code = main(["resolve", "7", "5", "I[1,1,2;0,1,1]", "--depth", depth])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: depth must be >= 1") and "Traceback" not in captured.err

    @pytest.mark.parametrize("depth", ["0", "-100", "12"])
    def test_fuse_refuses_a_depth(self, capsys, depth):
        """fuse has no --depth: a product is the exact quotient of whole resolutions."""
        code = main(["fuse", "5", "4", "I[0,2,0;1,0,0]", "R~[1/7;[[0,0,2;0,0,1]]]^0", "--depth", depth])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: unrecognized arguments: --depth {depth}" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code = main(["smatrix-w3", "4", "3", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 1 and not target.exists()
        assert err.startswith("error:") and "No such file or directory" in err

    @pytest.mark.parametrize("command", [name for name, (_, n) in CLI_COMMANDS.items() if n == 0])
    def test_zero_label_commands_refuse_a_label(self, capsys, command):
        code = main([command, "5", "3", "[1,1,0;0,0,0]"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: unrecognized arguments: [1,1,0;0,0,0]" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
    def test_bad_tolerance_flag(self, capsys, tol):
        code = main(["verify", "4", "3", "--suite", "w3-unitarity", "--tol", tol])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --tol") and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["abc", "nan", "-1"])
    def test_bad_tolerance_env(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("BPFUSION_TOL", tol)
        code = main(["verify", "4", "3", "--suite", "w3-unitarity"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: BPFUSION_TOL") and "Traceback" not in err

    def test_tolerance_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BPFUSION_TOL", "abc")
        code, out = run(capsys, "verify", "4", "3", "--suite", "w3-unitarity", "--tol", "1e-8")
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["smatrix-w3", "5", "3", "--depth", "3"],
            ["verify", "4", "3", "--depth", "3"],
            ["orbit", "5", "3", "[1,1,0;0,0,0]", "--tol", "1e-8"],
            ["fuse", "3", "4", "I[0,0,0;0,0,1]^0", "I[0,0,0;1,-1,1]^0", "--tol", "1e-8"],
        ],
        ids=" ".join,
    )
    def test_an_option_the_command_does_not_read_is_refused(self, capsys, argv):
        """--depth belongs to resolve, --tol to verify."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
        assert "Traceback" not in captured.err

    def test_a_bad_tolerance_env_leaves_commands_that_do_not_read_it(self, capsys, monkeypatch):
        expected = run(capsys, "orbit", "5", "3", "[1,1,0;0,0,0]")
        monkeypatch.setenv("BPFUSION_TOL", "abc")
        assert run(capsys, "orbit", "5", "3", "[1,1,0;0,0,0]") == expected
        assert expected[0] == 0


class TestRoundTrip:
    def test_every_printed_label_reparses(self, capsys):
        p = level_params(3, 4)
        code, out = run(capsys, "list-modules", "3", "4")
        payload = json.loads(out)
        for row in payload["highest_weight"]:
            parse_label(p, "I" + row["label"])
        for fam in payload["standard_families"]:
            parse_label(p, fam["orbit"])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dump.json"
        code = main(["smatrix-w3", "4", "3", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["orbits"] == ["[[0,0,1;0,0,0]]"]


class TestOutputBytes:
    """The golden files pin S-matrix dumps up to (7,5); past them the CLI's
    writer is held to json.dumps(indent=2) of the same payload, computed here."""

    @pytest.mark.parametrize("u,v", [(8, 7), (10, 9)])
    def test_smatrix_at_larger_levels_equals_json_dumps(self, capsys, u, v):
        code, out = run(capsys, "smatrix-w3", str(u), str(v))
        assert code == 0
        assert out == json.dumps(reference.smatrix_json(W3SMatrix(level_params(u, v))), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [["smatrix-w3", "5", "3"], ["verify", "4", "3"]], ids=" ".join)
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out = run(capsys, *argv)
        target = tmp_path / "dump.json"
        assert run(capsys, *argv, "--out", str(target)) == (code, "")
        assert code == 0
        assert target.read_bytes() == out.encode()


def test_one_parser_serves_every_call_as_separate_runs_would(capsys, monkeypatch):
    """main builds the parser once per process, and a usage error between
    two calls leaves it as it was: the exit codes and stdout bytes are those
    of separate interpreters."""
    argvs = [
        ["orbit", "5", "3", "[1,1,0;0,0,0]"],
        ["fuse", "4", "3"],
        ["orbit", "5", "3", "[1,1,0;0,0,0]"],
        ["verify", "4", "3", "--suite", "levels", "--tol", "1e-8"],
    ]
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        in_process = [(code, out.encode()) for code, out in (run(capsys, *argv) for argv in argvs)]
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(bpfusion.__file__).resolve().parent.parent))
    separate = [
        (proc.returncode, proc.stdout)
        for proc in (
            subprocess.run([sys.executable, "-m", "bpfusion.cli", *argv], capture_output=True, env=env, timeout=120)
            for argv in argvs
        )
    ]
    assert in_process == separate
    assert [code for code, _ in in_process] == [0, 1, 0, 0]
