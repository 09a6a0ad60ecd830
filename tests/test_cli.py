import json

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


def test_tau_worked_example(run_cli, ex22_file):
    result = run_cli("tau", "-f", ex22_file)
    assert result.returncode == 0
    assert "chains (canonical order): {10,8} {6} {9,7,5,3,1} {4}" in result.stdout.splitlines()
    assert "tau = (10, 9, 8, 7, 5, 5, 4, 3, 2)" in result.stdout
    assert "rules: (a) T2,T3 p=2; (b) T0,T2 p=1; (c) T1,T2 q=2" in result.stdout
    assert "identity {tau-rho} = 2*lambda - rho: PASS" in result.stdout


def test_tau_single_chain(run_cli, tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"chains": [[3,1]]}')
    result = run_cli("tau", "-f", str(path))
    assert result.returncode == 0
    assert "tau = (2, 2)" in result.stdout
    assert "rules: none" in result.stdout
    assert "PASS" in result.stdout


def test_tau_two_chain_family(run_cli, tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"chains": [[4,2],[3,1]]}')
    result = run_cli("tau", "-f", str(path))
    assert result.returncode == 0
    assert "rules: (b) T0,T1 p=1" in result.stdout
    assert "PASS" in result.stdout


def test_tau_malformed_json_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run_cli("tau", "-f", str(path)).returncode == 2


def test_tau_bad_chain_sequence_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [[5, 2]]}')
    assert run_cli("tau", "-f", str(path)).returncode == 2


def test_tau_non_list_chain_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [5]}')
    assert run_cli("tau", "-f", str(path)).returncode == 2


def test_tau_overlapping_chains_exits_3(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chains": [[5, 3], [3, 1]]}')
    assert run_cli("tau", "-f", str(path)).returncode == 3


def test_perm_worked_example(run_cli, ex22_file):
    result = run_cli("perm", "-f", ex22_file)
    assert result.returncode == 0
    assert "s = (3, 9, 1, 8, 5, 6, 7, 4, 2)" in result.stdout
    assert "involves all simple reflections: yes" in result.stdout
    assert "interlaced: yes" in result.stdout


def test_enumerate_table_rank_four(run_cli):
    result = run_cli("enumerate", "-n", "4", "--table")
    assert result.returncode == 0
    rows = [line for line in result.stdout.splitlines() if line.startswith("4 |")]
    assert len(rows) == 4
    taus = {row.split(" | ")[4] for row in rows}
    assert taus == {"[0, 0, 0]", "[2, 0, 1]", "[1, 0, 2]", "[1, 1, 1]"}


def test_enumerate_rank_two_single_row(run_cli):
    result = run_cli("enumerate", "-n", "2")
    assert result.returncode == 0
    rows = [line for line in result.stdout.splitlines() if line.startswith("2 |")]
    assert len(rows) == 1
    assert "[0]" in rows[0]  # the trivial representation


def test_enumerate_json_round_trip(run_cli):
    result = run_cli("enumerate", "-n", "5", "--json")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        payload = json.loads(line)
        cs = ChainSet.from_lists(payload["chains"])
        assert build_record(cs).as_dict() == payload
        assert verify_spin_identity(spin_lowest_k_type(cs))


def test_enumerate_with_multiplicity(run_cli):
    result = run_cli("enumerate", "-n", "4", "--json", "--with-multiplicity")
    assert result.returncode == 0
    for line in result.stdout.strip().splitlines():
        assert json.loads(line)["multiplicity"] == 1


def test_enumerate_deterministic(run_cli):
    """Two runs print the same records, in ascending `chains` list order, each with its tops descending."""
    a = run_cli("enumerate", "-n", "6", "--json")
    b = run_cli("enumerate", "-n", "6", "--json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0
    chains = [json.loads(line)["chains"] for line in a.stdout.splitlines()]
    assert len(chains) == 16 and chains == sorted(chains)
    for lists in chains:
        tops = [c[0] for c in lists]
        assert all(x > y for x, y in zip(tops, tops[1:]))


def test_enumerate_bound_exceeded_exits_4(run_cli):
    assert run_cli("enumerate", "-n", "17").returncode == 4
    assert run_cli("enumerate", "-n", "9", "--with-multiplicity").returncode == 4
    assert run_cli("enumerate", "-n", "1").returncode == 4


def test_count_command(run_cli):
    result = run_cli("count", "-n", "10")
    assert result.returncode == 0
    assert result.stdout.strip() == "256"
    assert run_cli("count", "-n", "17").returncode == 4


def test_verify_small_rank_passes(run_cli):
    result = run_cli("verify", "-n", "4")
    assert result.returncode == 0
    assert "RESULT: PASS" in result.stdout
    assert "count n=4: PASS" in result.stdout
    assert run_cli("verify", "-n", "13").returncode == 4
    assert run_cli("verify", "-n", "1").returncode == 4


def test_verify_failure_exits_1(monkeypatch, capsys):
    def failing(ranks, n_max):
        yield "always fails", False, ""

    monkeypatch.setattr(verify, "CHECKS", (failing,))
    assert cli.main(["verify", "-n", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == ["always fails: FAIL", "RESULT: FAIL"]


def test_lr_command(run_cli):
    assert run_cli("lr", "--outer", "1,1", "--inner", "1", "--weight", "1").stdout.strip() == "1"
    assert run_cli("lr", "--outer", "3,2,1", "--inner", "2,1", "--weight", "2,1").stdout.strip() == "2"
    assert run_cli("lr", "--outer", "3,1", "--inner", "2,1", "--weight", "1").stdout.strip() == "1"


def test_lr_malformed_exits_2(run_cli):
    assert run_cli("lr", "--outer", "x", "--weight", "1").returncode == 2
    assert run_cli("lr", "--outer", "1,2", "--weight", "3").returncode == 2
    # inner and weight both outside outer: an error, not 0
    assert cli.main(["lr", "--outer", "4", "--inner", "1,1", "--weight", "1,1"]) == 2
    # wrong size, in both orientations
    assert cli.main(["lr", "--outer", "3,2", "--inner", "1", "--weight", "2,1"]) == 2
    assert cli.main(["lr", "--outer", "3,2", "--inner", "2,1", "--weight", "1"]) == 2


def test_spherical_command(run_cli):
    result = run_cli("spherical", "-a", "5", "-b", "2")
    assert result.returncode == 0
    assert "chains: {9,7,5,3,1} {6,4}" in result.stdout
    assert "2lambda' fundamental = [2, 1, 1, 1, 1, 2]" in result.stdout
    assert "lowest K-type = (5, 5, 5, 5, 5, 5, 5)" in result.stdout
    assert run_cli("spherical", "-a", "2", "-b", "2").returncode == 2


def test_spherical_bound_exceeded_exits_4(capsys):
    assert cli.main(["spherical", "-a", "300001", "-b", "2"]) == 4
    assert cli.main(["spherical", "-a", "9", "-b", "8"]) == 4  # rank 17
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: a + b must be at most 16\n" * 2
    assert cli.main(["spherical", "-a", "9", "-b", "6"]) == 0  # rank 15, the largest odd a + b allowed
