"""Command-line interface: exit codes, output shapes, file artifacts."""
import io
import json

import pytest
from conftest import join_with_a_non_pair

from qlegendre import cli, evensearch
from qlegendre.hadamard import is_binary_hadamard, is_quaternary_hadamard
from qlegendre.matrices import parse_matrix_text
from qlegendre.pairs import is_legendre_pair
from qlegendre.sequences import parse_qseq


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own rejections
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "[1,-1]", "[1,i]")
    assert code == 0
    assert "verdict: Legendre pair" in out
    assert "lag 1: PAF(A)+PAF(B) = -2 ok" in out


def test_verify_fail(capsys):
    code, out, _ = run(capsys, "verify", "[1,1]", "[1,i]")
    assert code == 1
    assert "not a Legendre pair" in out
    assert "first failing lag 1" in out


def test_verify_invalid_input(capsys):
    code, _, err = run(capsys, "verify", "[1,2]", "[1,i]")
    assert code == 2
    assert "error:" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "[1,-1]", "[1,i]")
    assert code == 0
    doc = json.loads(out)
    assert doc["legendre"] is True
    assert doc["length"] == 2
    assert doc["paf_sums"] == ["-2"]
    assert doc["half_psd"] == [4, 2]
    assert doc["first_failing_lag"] is None


def test_verify_from_text_file(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("[1,-1]\n[1,i]\n")
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0 and "Legendre pair" in out


def test_verify_from_json_file(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"A": "[1,-1]", "B": "[1,i]"}))
    code, _, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0


def test_verify_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1,-1]\n[1,i]\n"))
    code, _, _ = run(capsys, "verify", "--file", "-")
    assert code == 0


def test_corpus_check(capsys):
    code, out, _ = run(capsys, "corpus-check")
    assert code == 0
    assert "ok" in out


def test_search_seed_found(capsys):
    code, out, _ = run(capsys, "search-seed", "--p", "5")
    assert code == 0
    lines = [s for s in out.splitlines() if s.startswith("[")]
    assert len(lines) == 2
    assert "2 half-vector(s) for p=5" in out


def test_search_seed_emit_pairs(capsys):
    code, out, _ = run(capsys, "search-seed", "--p", "5", "--emit-pairs")
    assert code == 0
    rows = [s for s in out.splitlines() if "A=" in s]
    assert rows
    for row in rows:
        a = parse_qseq(row.split("A=")[1].split()[0])
        b = parse_qseq(row.split("B=")[1].split()[0])
        assert len(a) == len(b) == 10
        assert is_legendre_pair(a, b)


def test_search_seed_infeasible(capsys):
    code, out, _ = run(capsys, "search-seed", "--p", "11")
    assert code == 1
    assert "infeasible" in out
    assert "42" in out


def test_search_seed_invalid_p(capsys):
    code, _, err = run(capsys, "search-seed", "--p", "9")
    assert code == 2
    assert "error:" in err


def test_search_even_complete(capsys):
    code, out, _ = run(
        capsys, "search-even", "--length", "4", "--all", "--no-reductions"
    )
    assert code == 0
    rows = [s for s in out.splitlines() if s.startswith("A=")]
    assert len(rows) == 64
    assert "64 pair(s) at length 4" in out
    for row in rows[:8]:
        a = parse_qseq(row.split("A=")[1].split()[0])
        b = parse_qseq(row.split("B=")[1].split()[0])
        assert is_legendre_pair(a, b)


def test_search_even_first_and_json_file(capsys, tmp_path):
    out_path = tmp_path / "pairs.json"
    code, out, _ = run(
        capsys, "search-even", "--length", "8", "--first", "--json", str(out_path)
    )
    assert code == 0
    docs = json.loads(out_path.read_text())
    assert len(docs) == 1
    doc = docs[0]
    assert doc["verified"] is True and doc["length"] == 8
    assert is_legendre_pair(parse_qseq(doc["A"]), parse_qseq(doc["B"]))


def test_search_even_rejects_bad_psd_pair(capsys):
    code, _, err = run(capsys, "search-even", "--length", "4", "--psd-pair", "3,7")
    assert code == 2
    assert "error:" in err


def test_search_even_rejects_odd_length(capsys):
    code, _, err = run(capsys, "search-even", "--length", "3")
    assert code == 2


def test_compress_round_trip(capsys):
    code, out, _ = run(capsys, "compress", "[1,1,-1,-1,1,-1]", "--ratio", "2")
    assert code == 0
    assert out.strip() == "[0,2,-2]"
    code, out, _ = run(capsys, "decompress", "[0,2,-2]", "--ratio", "2", "--count")
    assert code == 0
    assert out.strip() == "4"


def test_compress_rejects_bad_ratio(capsys):
    code, _, err = run(capsys, "compress", "[1,1,-1,-1,1,-1]", "--ratio", "4")
    assert code == 2


def test_decompress_members_recompress(capsys):
    code, out, _ = run(capsys, "decompress", "[0,2,-2]", "--ratio", "2")
    assert code == 0
    members = [s for s in out.splitlines() if s.startswith("[")]
    assert len(members) == 4
    for text in members:
        inner, _, _ = run(capsys, "compress", text, "--ratio", "2")
        assert inner == 0


def test_decompress_sample_is_seeded(capsys):
    args = ("--seed", "7", "decompress", "[0,2,-2]", "--ratio", "2", "--sample", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "2 of 4 member(s)" in first


def test_psd_filters_text(capsys):
    code, out, _ = run(capsys, "psd-filters", "--length", "22")
    assert code == 0
    assert "(20, 26)" in out and "(36, 10)" in out
    code, out, _ = run(capsys, "psd-filters", "--length", "12")
    assert "quarter lag 3" in out
    assert "threefold seed candidates" in out


def test_psd_filters_rejects_odd(capsys):
    code, _, _ = run(capsys, "psd-filters", "--length", "9")
    assert code == 2


def test_hadamard_writes_both_matrices(capsys, tmp_path):
    prefix = tmp_path / "had"
    code, out, _ = run(capsys, "hadamard", "[1,-1]", "[1,i]", "--out", str(prefix))
    assert code == 0
    assert "quaternary order 6" in out and "binary order 12" in out
    h = parse_matrix_text((tmp_path / "had.quaternary.txt").read_text())
    k = parse_matrix_text((tmp_path / "had.binary.txt").read_text())
    assert is_quaternary_hadamard(h)
    assert is_binary_hadamard(k)


def test_hadamard_json_files(capsys, tmp_path):
    prefix = tmp_path / "hj"
    code, _, _ = run(
        capsys, "--json", "hadamard", "[1,-1]", "[1,i]", "--out", str(prefix)
    )
    assert code == 0
    doc = json.loads((tmp_path / "hj.quaternary.json").read_text())
    assert doc["kind"] == "quaternary-hadamard"


def test_hadamard_rejects_non_pair(capsys, tmp_path):
    code, out, err = run(
        capsys, "hadamard", "[1,1]", "[1,i]", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert err == "error: input is not a Legendre pair; nothing to build\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["hadamard", "[1,-1]", "[1,i,1]"],  # length mismatch
        ["hadamard", "[1,-1]", "[1,i]"],  # --out into a missing directory
        ["--json", "hadamard", "[1,-1]", "[1,i]"],
    ],
)
def test_hadamard_bad_input_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "h"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "[1,-1]", "[1,i,1]"],  # length mismatch
        ["verify", "[1,x]", "[1,i]"],  # malformed token
        ["verify", "[1]", "[i]"],  # length 1
        ["search-seed", "--p", "9"],
        ["search-seed", "--p", "13", "--tol", "0"],
        ["--workers", "0", "search-seed", "--p", "5"],
        ["search-even", "--length", "7"],
        ["search-even", "--length", "6", "--a3-seed", "9,9"],
        ["search-even", "--length", "6", "--psd-pair", "1,2,3"],
        ["search-even", "--length", "6", "--quarter-pair", "2,10"],
        ["--workers", "0", "search-even", "--length", "4"],
        ["compress", "[1,-1]", "--ratio", "0"],
        ["decompress", "[0,3]", "--ratio", "2"],
        ["decompress", "[0,2,-2]", "--ratio", "2", "--sample", "-1"],
        ["decompress", "[0,2,-2]", "--ratio", "2", "--limit", "-1"],
        ["decompress", "[0,2,-2]", "--ratio", "2", "--sample", "3", "--limit", "1"],
        ["psd-filters", "--length", "0"],
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["verify", "[1,1]", "[1,i]"], 1, "out", "not a Legendre pair"),
        (["search-seed", "--p", "23"], 1, "out", "0 half-vector(s) for p=23"),
        (["search-even", "--length", "6", "--all", "--no-reductions"], 3, "err",
         "internal error:"),
    ],
    ids=["verify-non-pair", "search-seed-none", "search-even-join-defect"],
)
def test_negative_and_internal_exit_codes(capsys, monkeypatch, argv, code, stream, text):
    if code == 3:  # the re-verification must catch a join defect
        bad_join = join_with_a_non_pair(evensearch.paf_join)
        monkeypatch.setattr(evensearch, "paf_join", bad_join)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert text in (out if stream == "out" else err)
    assert "Traceback" not in err


def test_decompress_sample_and_limit_zero(capsys):
    code, out, _ = run(capsys, "decompress", "[0,2,-2]", "--ratio", "2", "--sample", "0")
    assert code == 0 and "0 of 4 member(s)" in out
    code, out, _ = run(capsys, "decompress", "[0,2,-2]", "--ratio", "2", "--limit", "0")
    assert code == 0 and "0 of 4 member(s)" in out


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
