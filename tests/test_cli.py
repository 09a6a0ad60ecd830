import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinchains import cli, verify
from spinchains.chains import ChainSet
from spinchains.scattered import build_record
from spinchains.spin import spin_lowest_k_type, verify_spin_identity

EX22_JSON = '{"chains": [[10,8],[9,7,5,3,1],[6],[4]]}'


@pytest.fixture
def ex22_file(tmp_path):
    path = tmp_path / "chains.json"
    path.write_text(EX22_JSON)
    return str(path)


def test_tau_worked_example(ex22_file, capsys):
    assert cli.main(["tau", "-f", ex22_file]) == 0
    out = capsys.readouterr().out
    assert "chains (canonical order): {10,8} {6} {9,7,5,3,1} {4}" in out.splitlines()
    assert "tau = (10, 9, 8, 7, 5, 5, 4, 3, 2)" in out
    assert "rules: (a) T2,T3 p=2; (b) T0,T2 p=1; (c) T1,T2 q=2" in out
    assert "identity {tau-rho} = 2*lambda - rho: PASS" in out


def test_tau_single_chain(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"chains": [[3,1]]}')
    assert cli.main(["tau", "-f", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tau = (2, 2)" in out
    assert "rules: none" in out
    assert "PASS" in out


def test_tau_two_chain_family(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"chains": [[4,2],[3,1]]}')
    assert cli.main(["tau", "-f", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rules: (b) T0,T1 p=1" in out
    assert "PASS" in out


def test_tau_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli.main(["tau", "-f", str(path)]) == 2


def test_tau_bad_chain_sequence_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [[5, 2]]}')
    assert cli.main(["tau", "-f", str(path)]) == 2


def test_tau_non_list_chain_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [5]}')
    assert cli.main(["tau", "-f", str(path)]) == 2


@pytest.mark.parametrize(
    "command, content",
    [
        ("tau", b"\xff\xfe{}"),  # not UTF-8
        ("tau", b'{"chains": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),  # nested past the parser's depth
        ("perm", b'{"chains": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    ],
    ids=["not-utf8-tau", "deep-tau", "deep-perm"],
)
def test_unparseable_chain_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main([command, "-f", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert line.startswith("error: ")


def test_tau_overlapping_chains_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [[5, 3], [3, 1]]}')
    assert cli.main(["tau", "-f", str(path)]) == 3


def test_perm_worked_example(ex22_file, capsys):
    assert cli.main(["perm", "-f", ex22_file]) == 0
    out = capsys.readouterr().out
    assert "s = (3, 9, 1, 8, 5, 6, 7, 4, 2)" in out
    assert "involves all simple reflections: yes" in out
    assert "interlaced: yes" in out


def test_enumerate_table_rank_four(capsys):
    assert cli.main(["enumerate", "-n", "4", "--table"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("4 |")]
    assert len(rows) == 4
    taus = {row.split(" | ")[4] for row in rows}
    assert taus == {"[0, 0, 0]", "[2, 0, 1]", "[1, 0, 2]", "[1, 1, 1]"}


def test_enumerate_rank_two_single_row(capsys):
    assert cli.main(["enumerate", "-n", "2"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("2 |")]
    assert len(rows) == 1
    assert "[0]" in rows[0]  # the trivial representation


def test_enumerate_json_round_trip(capsys):
    assert cli.main(["enumerate", "-n", "5", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        payload = json.loads(line)
        cs = ChainSet.from_lists(payload["chains"])
        assert build_record(cs).as_dict() == payload
        assert verify_spin_identity(spin_lowest_k_type(cs))


def test_enumerate_with_multiplicity(capsys):
    assert cli.main(["enumerate", "-n", "4", "--json", "--with-multiplicity"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        assert json.loads(line)["multiplicity"] == 1


def test_enumerate_deterministic(capsys):
    """A `python -m spinchains` process exits 0 and prints byte for byte what
    an in-process run prints: the records in ascending `chains` list order,
    each with its tops descending.  The only test that starts a process."""
    argv = ["enumerate", "-n", "6", "--json"]
    # run from the directory that holds the imported package, so the process
    # imports the same code whether or not spinchains is installed
    package_root = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "spinchains", *argv], cwd=package_root, capture_output=True)
    assert cli.main(argv) == proc.returncode == 0
    out = capsys.readouterr().out
    assert proc.stdout == out.encode()
    chains = [json.loads(line)["chains"] for line in out.splitlines()]
    assert len(chains) == 16 and chains == sorted(chains)
    for lists in chains:
        tops = [c[0] for c in lists]
        assert all(x > y for x, y in zip(tops, tops[1:]))


@pytest.mark.parametrize(
    "argv, lines, sha256",
    [
        (["enumerate", "-n", "12", "--json"], 1024, "f35f09876cc9d4eae22d99de46f41451fe937494f785a641c15dca418348b472"),
        (
            ["enumerate", "-n", "7", "--table", "--with-multiplicity"],
            2 + 32,
            "ad812d884d4476baa3c7aa2fd6f0ba91ff3ff4643a2dd582048a0de6e45024d6",
        ),
    ],
)
def test_enumerate_output_is_pinned(argv, lines, sha256, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt, header_lines", [("--json", 0), ("--table", 2)])
def test_enumerate_writes_each_record_before_building_the_next(monkeypatch, fmt, header_lines):
    out = io.StringIO()
    lines_at_build = []

    def counting_build_record(*args):
        lines_at_build.append(out.getvalue().count("\n"))
        return build_record(*args)

    monkeypatch.setattr(cli, "build_record", counting_build_record)
    with contextlib.redirect_stdout(out):
        assert cli.main(["enumerate", "-n", "6", fmt]) == 0
    assert lines_at_build == [header_lines + k for k in range(16)]


def test_enumerate_bound_exceeded_exits_4():
    assert cli.main(["enumerate", "-n", "17"]) == 4
    assert cli.main(["enumerate", "-n", "9", "--with-multiplicity"]) == 4
    assert cli.main(["enumerate", "-n", "1"]) == 4


def test_count_command(capsys):
    assert cli.main(["count", "-n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "256"
    assert cli.main(["count", "-n", "17"]) == 4


def test_verify_small_rank_passes(capsys):
    assert cli.main(["verify", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "count n=4: PASS" in out
    assert cli.main(["verify", "-n", "13"]) == 4
    assert cli.main(["verify", "-n", "1"]) == 4


def test_verify_failure_exits_1(monkeypatch, capsys):
    def failing(ranks, n_max):
        yield "always fails", False, ""

    monkeypatch.setattr(verify, "CHECKS", (failing,))
    assert cli.main(["verify", "-n", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == ["always fails: FAIL", "RESULT: FAIL"]


def test_lr_command(capsys):
    assert cli.main(["lr", "--outer", "1,1", "--inner", "1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.main(["lr", "--outer", "3,2,1", "--inner", "2,1", "--weight", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["lr", "--outer", "3,1", "--inner", "2,1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_lr_malformed_exits_2():
    assert cli.main(["lr", "--outer", "x", "--weight", "1"]) == 2
    assert cli.main(["lr", "--outer", "1,2", "--weight", "3"]) == 2
    # inner and weight both outside outer: an error, not 0
    assert cli.main(["lr", "--outer", "4", "--inner", "1,1", "--weight", "1,1"]) == 2
    # wrong size, in both orientations
    assert cli.main(["lr", "--outer", "3,2", "--inner", "1", "--weight", "2,1"]) == 2
    assert cli.main(["lr", "--outer", "3,2", "--inner", "2,1", "--weight", "1"]) == 2


def test_lr_cell_bound_exceeded_exits_4(capsys):
    assert cli.main(["lr", "--outer", "1200,1200", "--inner", "1200", "--weight", "1200"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: lr would fill 1200 cells, at most {cli.LR_CELL_CAP} allowed\n"


def test_spherical_command(capsys):
    assert cli.main(["spherical", "-a", "5", "-b", "2"]) == 0
    out = capsys.readouterr().out
    assert "chains: {9,7,5,3,1} {6,4}" in out
    assert "2lambda' fundamental = [2, 1, 1, 1, 1, 2]" in out
    assert "lowest K-type = (5, 5, 5, 5, 5, 5, 5)" in out
    assert cli.main(["spherical", "-a", "2", "-b", "2"]) == 2


def test_spherical_bound_exceeded_exits_4(capsys):
    assert cli.main(["spherical", "-a", "300001", "-b", "2"]) == 4
    assert cli.main(["spherical", "-a", "9", "-b", "8"]) == 4  # rank 17
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: a + b must be at most 16\n" * 2
    assert cli.main(["spherical", "-a", "9", "-b", "6"]) == 0  # rank 15, the largest odd a + b allowed
