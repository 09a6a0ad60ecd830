import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinchains import cli, scattered, verify
from spinchains.chains import ChainSet
from spinchains.scattered import build_record
from spinchains.spin import spin_lowest_k_type, verify_spin_identity

from test_scattered import record_on_chain_sets, reference_records

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
        cs = ChainSet.from_lists(json.loads(line)["chains"])
        # the record build_record returns is the line enumerate prints
        assert json.dumps(build_record(cs)) == line
        assert verify_spin_identity(spin_lowest_k_type(cs))


def test_enumerate_with_multiplicity(capsys):
    assert cli.main(["enumerate", "-n", "4", "--json", "--with-multiplicity"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        payload = json.loads(line)
        assert payload["multiplicity"] == 1
        assert json.dumps(build_record(ChainSet.from_lists(payload["chains"]), with_multiplicity=True)) == line


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
        (
            ["enumerate", "-n", "12", "--json", "--with-multiplicity"],
            1024,
            "633bee1a0595a2629d9469f5d450e35f9918d3e2dc5e4436bdfc0cc115153bde",
        ),
        (
            ["enumerate", "-n", "14", "--json", "--with-multiplicity"],
            4096,
            "23542d2a94159605293738bf296c77dbe8bd1ac188fb0b5aec3ae703d2b2dda1",
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
    # the prefix walk builds each record in scattered._assemble, once per leaf
    out = io.StringIO()
    lines_at_build = []

    assemble = scattered._assemble

    def counting_assemble(*args):
        lines_at_build.append(out.getvalue().count("\n"))
        return assemble(*args)

    monkeypatch.setattr(scattered, "_assemble", counting_assemble)
    with contextlib.redirect_stdout(out):
        assert cli.main(["enumerate", "-n", "6", fmt]) == 0
    assert lines_at_build == [header_lines + k for k in range(16)]


def test_json_line_is_json_dumps(capsys):
    # every line enumerate prints is json.dumps of the field-by-field reference
    runs = [*((k, False) for k in range(2, 14)), *((k, True) for k in range(2, 8))]
    for k, with_multiplicity in runs:
        assert cli.main(["enumerate", "-n", str(k), "--json", *["--with-multiplicity"] * with_multiplicity]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [json.dumps(rec) for rec in reference_records(k, with_multiplicity)], (k, with_multiplicity)
    # and so is the line of fields whose last two values no rank above prints
    pairs, fields = list(scattered._records(7, True))[-1]
    rec = record_on_chain_sets(ChainSet(pairs), True)
    for u_small, mult in [(False, 1), (True, 0), (True, 2), (False, None)]:
        line = cli._json_line(fields[:-2] + (u_small, mult))
        assert line == json.dumps(dict(rec, u_small=u_small, multiplicity=mult)), (u_small, mult)


@pytest.mark.parametrize(
    "cap, value, argv, bound, message",
    [
        ("ENUM_CAP", 5, ["count", "-n", "6"], "2 <= n <= 5 for enumerate", "n must satisfy 2 <= n <= 5"),
        ("ENUM_CAP", 5, ["spherical", "-a", "4", "-b", "3"], "a + b <= 5 for spherical", "a + b must be at most 5"),
        ("ENUM_CAP", 5, ["enumerate", "-n", "6", "--with-multiplicity"], "2 <= n <= 5 for enumerate", "n must satisfy 2 <= n <= 5"),
        ("VERIFY_CAP", 14, ["verify", "-n", "15"], "2 <= n <= 14 for verify", "n must satisfy 2 <= n <= 14"),
        (
            "LR_CELL_CAP",
            2,
            ["lr", "--outer", "3,2,1", "--inner", "2,1", "--weight", "2,1"],
            "at most 2 filled cells",
            "lr would fill 3 cells, at most 2 allowed",
        ),
        ("TAU_ENTRY_CAP", 8, ["tau", "-f", None], "at most 8 entries for tau", "tau would run on 9 entries, at most 8 allowed"),
    ],
    ids=["enumerate", "spherical", "with-multiplicity", "verify", "lr", "tau"],
)
def test_help_and_the_bound_error_read_the_caps(monkeypatch, capsys, ex22_file, cap, value, argv, bound, message):
    monkeypatch.setattr(cli, cap, value)
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    assert bound in " ".join(capsys.readouterr().out.split())
    assert cli.main([ex22_file if arg is None else arg for arg in argv]) == cli.EXIT_BOUND
    assert capsys.readouterr() == ("", f"error: {message}\n")


class ReaderGoneAfter(io.StringIO):
    """A stdout whose reader goes away after k lines: the write that would
    complete line k + 1 raises BrokenPipeError, as a closed pipe does."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def write(self, text: str) -> int:
        if self.getvalue().count("\n") + text.count("\n") > self.k:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize(
    "argv", [["enumerate", "-n", "8", "--json"], ["enumerate", "-n", "8", "--table"], ["verify", "-n", "6"]]
)
@pytest.mark.parametrize("k", [0, 3])
def test_a_reader_that_stops_early_ends_the_command_quietly(argv, k, capsys):
    assert cli.main(argv) == 0
    full = capsys.readouterr().out
    out, err = ReaderGoneAfter(k), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == cli.EXIT_OK
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == k and full.startswith(out.getvalue())


def test_enumerate_into_a_closed_pipe_sends_the_rest_to_devnull(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        # 1,024 lines overflow the buffer, so a write reaches the closed pipe
        assert cli.main(["enumerate", "-n", "12", "--json"]) == cli.EXIT_OK
        stdout.write("more\n")
        stdout.flush()  # the descriptor now leads to os.devnull: no BrokenPipeError
        monkeypatch.undo()


def test_count_command(capsys):
    assert cli.main(["count", "-n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "256"


def test_verify_small_rank_passes(capsys):
    assert cli.main(["verify", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "count n=4: PASS" in out


def test_verify_failure_exits_1(monkeypatch, capsys):
    def failing(n_max):
        yield "always fails", False, ""

    monkeypatch.setattr(verify, "CHECKS", (failing,))
    assert cli.main(["verify", "-n", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == ["always fails: FAIL", "RESULT: FAIL"]


def test_verify_prints_each_line_before_the_next_check_runs(monkeypatch):
    out = io.StringIO()
    printed_before = []

    def doctored(n_max):
        printed_before.append(out.getvalue())
        yield "doctored check", False, "first offender"

    monkeypatch.setattr(verify, "CHECKS", (verify.check_count, doctored))
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "-n", "3"]) == 1
    assert printed_before == ["count n=2: PASS (1 parameters)\ncount n=3: PASS (2 parameters)\n"]
    assert out.getvalue().splitlines()[2:] == ["doctored check: FAIL (first offender)", "RESULT: FAIL"]


def test_lr_command(capsys):
    assert cli.main(["lr", "--outer", "1,1", "--inner", "1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.main(["lr", "--outer", "3,2,1", "--inner", "2,1", "--weight", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["lr", "--outer", "3,1", "--inner", "2,1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    at_cap = str(cli.LR_CELL_CAP)
    assert cli.main(["lr", "--outer", f"{at_cap},{at_cap}", "--inner", at_cap, "--weight", at_cap]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_spherical_command(capsys):
    assert cli.main(["spherical", "-a", "5", "-b", "2"]) == 0
    out = capsys.readouterr().out
    assert "chains: {9,7,5,3,1} {6,4}" in out
    assert "2lambda' fundamental = [2, 1, 1, 1, 1, 2]" in out
    assert "lowest K-type = (5, 5, 5, 5, 5, 5, 5)" in out
    assert cli.main(["spherical", "-a", "9", "-b", "6"]) == 0  # rank 15, the largest odd a + b allowed


DEEP_JSON = b'{"chains": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"  # nested past the parser's depth
TOO_MANY_ENTRIES = json.dumps({"chains": [[2 * k + 1] for k in range(cli.TAU_ENTRY_CAP + 1)]}).encode()


@pytest.mark.parametrize(
    "argv, content, code, err",
    [
        pytest.param("tau -f {file}", b"{nope", 2, None, id="tau-malformed-json"),
        pytest.param("tau -f {file}", b'{"chains": [[5, 2]]}', 2, None, id="tau-bad-chain-sequence"),
        pytest.param("tau -f {file}", b'{"chains": [5]}', 2, None, id="tau-non-list-chain"),
        pytest.param("tau -f {file}", b"\xff\xfe{}", 2, None, id="tau-not-utf8"),
        pytest.param("tau -f {file}", DEEP_JSON, 2, None, id="tau-deep"),
        pytest.param("perm -f {file}", DEEP_JSON, 2, None, id="perm-deep"),
        pytest.param("tau -f {file}", b'{"chains": [[5, 3], [3, 1]]}', 3, None, id="tau-overlapping-chains"),
        # overlap is reported in the order the chains are given, before they are sorted
        pytest.param(
            "tau -f {file}",
            b'{"chains": [[3, 1], [6, 4], [7, 5, 3], [4, 2]]}',
            3,
            "error: invalid chain set: entry 3 appears in two chains",
            id="tau-overlap-in-given-order",
        ),
        pytest.param(
            "tau -f {file}",
            TOO_MANY_ENTRIES,
            4,
            f"error: tau would run on {cli.TAU_ENTRY_CAP + 1} entries, at most {cli.TAU_ENTRY_CAP} allowed",
            id="tau-entries",
        ),
        # the largest entry the parser accepts: 2*{tau-rho} holds an integer
        # one digit longer, which the interpreter refuses to print
        pytest.param(
            "tau -f {file}",
            b'{"chains": [[' + b"9" * sys.get_int_max_str_digits() + b"]]}",
            4,
            f"error: tau would print an integer of more than {sys.get_int_max_str_digits()} digits",
            id="tau-entry-at-the-digit-limit",
        ),
        pytest.param("enumerate -n 17", None, 4, "error: n must satisfy 2 <= n <= 16", id="enumerate-17"),
        pytest.param(
            "enumerate -n 17 --with-multiplicity", None, 4, "error: n must satisfy 2 <= n <= 16", id="enumerate-17-with-multiplicity"
        ),
        pytest.param("enumerate -n 1", None, 4, None, id="enumerate-1"),
        pytest.param("count -n 17", None, 4, None, id="count-17"),
        pytest.param("verify -n 13", None, 4, None, id="verify-13"),
        pytest.param("verify -n 1", None, 4, None, id="verify-1"),
        pytest.param("lr --outer x --weight 1", None, 2, "error: malformed partition 'x'", id="lr-malformed"),
        pytest.param("lr --outer 1,2 --weight 3", None, 2, None, id="lr-not-a-partition"),
        # inner and weight both outside outer: an error, not 0
        pytest.param("lr --outer 4 --inner 1,1 --weight 1,1", None, 2, None, id="lr-outside-outer"),
        # wrong size, in both orientations
        pytest.param("lr --outer 3,2 --inner 1 --weight 2,1", None, 2, None, id="lr-wrong-size-small-inner"),
        pytest.param("lr --outer 3,2 --inner 2,1 --weight 1", None, 2, None, id="lr-wrong-size-large-inner"),
        pytest.param(
            "lr --outer {0},{0} --inner {0} --weight {0}".format(cli.LR_CELL_CAP + 1),
            None,
            4,
            f"error: lr would fill {cli.LR_CELL_CAP + 1} cells, at most {cli.LR_CELL_CAP} allowed",
            id="lr-cells-past-cap",
        ),
        pytest.param(
            "lr --outer 1200,1200 --inner 1200 --weight 1200",
            None,
            4,
            f"error: lr would fill 1200 cells, at most {cli.LR_CELL_CAP} allowed",
            id="lr-cells",
        ),
        pytest.param("spherical -a 2 -b 2", None, 2, None, id="spherical-invalid"),
        pytest.param("spherical -a 300001 -b 2", None, 4, "error: a + b must be at most 16", id="spherical-huge"),
        pytest.param("spherical -a 9 -b 8", None, 4, "error: a + b must be at most 16", id="spherical-rank-17"),
        # parse errors of the command line itself, caught before any command runs
        pytest.param("enumerate -n x", None, 2, "error: argument -n: invalid int value: 'x'", id="enumerate-n-not-int"),
        pytest.param("enumerate -n 4 --json --table", None, 2, None, id="enumerate-json-and-table"),
        pytest.param("lr --weight 1", None, 2, "error: the following arguments are required: --outer", id="lr-no-outer"),
        pytest.param("", None, 2, "error: the following arguments are required: command", id="no-command"),
    ],
)
def test_failure_prints_one_error_line(tmp_path, capsys, argv, content, code, err):
    path = tmp_path / "chains.json"
    if content is not None:
        path.write_bytes(content)
    assert cli.main([arg.format(file=path) for arg in argv.split()]) == code
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert line.startswith("error: ")
    assert err is None or out.err == f"{err}\n"
