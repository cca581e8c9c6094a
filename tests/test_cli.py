import json
import os
import subprocess
import sys

import pytest

import partreg
from partreg.cli import EXIT_DEFINITIVE, EXIT_ERROR, EXIT_INCONCLUSIVE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_linear_schur(capsys):
    code, out, _ = run(capsys, "linear", "--matrix", "1 1 -1")
    assert code == EXIT_DEFINITIVE
    assert "partition regular" in out
    assert "{1,3}, {2}" in out


def test_linear_not_regular(capsys):
    code, out, _ = run(capsys, "linear", "--matrix", "1 -2")
    assert code == EXIT_DEFINITIVE
    assert "NOT partition regular" in out


def test_linear_char2(capsys):
    code, out, _ = run(capsys, "linear", "--domain", "GF(2)[t]", "--matrix", "1 1 1")
    assert code == EXIT_DEFINITIVE
    assert "{1,2}" in out


# ---------------------------------------------------------------------------
# search / window
# ---------------------------------------------------------------------------


def test_search_schur_certifies(capsys, tmp_path):
    out_file = tmp_path / "schur.json"
    code, out, _ = run(
        capsys,
        "search",
        "--poly",
        "x + y - z",
        "--colors",
        "2",
        "--budget",
        "12",
        "--out",
        str(out_file),
    )
    assert code == EXIT_DEFINITIVE
    assert "PartitionCertified" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "PartitionCertified"
    assert doc["window"]["provenance"] == "prefix:9"


def test_search_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(capsys, "search", "--poly", "x - 2*y", "--colors", "2", "--budget", "5")
    assert code == EXIT_INCONCLUSIVE
    assert "Exhausted" in out


def test_window_colorable_prints_coloring(capsys):
    code, out, _ = run(
        capsys, "window", "--poly", "x + y - z", "--colors", "2", "--window", "1..4"
    )
    assert code == EXIT_DEFINITIVE
    assert "PartitionColorable" in out
    assert "[0, 1, 1, 0]" in out


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_certified(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "--poly",
        "x + y - 2*z",
        "--window",
        "1..9",
        "--delta",
        "0.6",
        "--injective",
    )
    assert code == EXIT_DEFINITIVE
    assert "DensityCertified" in out
    assert "max avoider 5" in out


def test_density_avoider(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "--poly",
        "x + y - 2*z",
        "--window",
        "1..9",
        "--delta",
        "5/9",
        "--injective",
    )
    assert code == EXIT_DEFINITIVE
    assert "DensityAvoider" in out
    assert "['1', '3', '4', '8', '9']" in out


# ---------------------------------------------------------------------------
# roots / refute / reduce
# ---------------------------------------------------------------------------


def test_roots_listing(capsys):
    code, out, _ = run(
        capsys, "roots", "--poly", "x + y - z", "--window", "1..4", "--injective"
    )
    assert code == EXIT_DEFINITIVE
    assert "root tuples" in out
    assert "(1, 2, 3)" in out


def test_roots_disjoint(capsys):
    code, out, _ = run(
        capsys,
        "roots",
        "--poly",
        "x + y - z",
        "--window",
        "1..12",
        "--disjoint",
        "2",
        "--injective",
    )
    assert code == EXIT_DEFINITIVE
    assert "disjoint root tuples" in out


def test_roots_disjoint_large_window(capsys, tmp_path):
    # 1001 is the most coordinate-disjoint roots of x - 2y in 1..3000, and
    # first-fit reaches 1000 without backtracking or recursion
    cert_file = tmp_path / "disjoint.json"
    code, out, _ = run(
        capsys,
        "roots",
        "--poly",
        "x-2*y",
        "--window",
        "1..3000",
        "--disjoint",
        "1000",
        "--out",
        str(cert_file),
    )
    assert code == EXIT_DEFINITIVE
    assert out.count("\n  (") == 1000
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == EXIT_DEFINITIVE
    assert out.startswith("VALID")


def test_roots_disjoint_without_enough_tuples_writes_no_file(capsys, tmp_path):
    path = tmp_path / "none.json"
    argv = ["roots", "--poly", "x+y-z", "--window", "1..3", "--disjoint", "5"]
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_INCONCLUSIVE
    assert out == (
        "no 5 coordinate-disjoint root tuples in the window\n"
        f"no certificate written to {path}\n"
    )
    assert not path.exists()


def test_refute_clean_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "refute", "--poly", "x - 2*y", "--coloring", "basep:3", "--window", "1..200"
    )
    assert code == EXIT_INCONCLUSIVE
    assert "Clean" in out


def test_refute_finds_monochromatic_root(capsys):
    code, out, _ = run(
        capsys, "refute", "--poly", "x + y - z", "--coloring", "basep:3", "--window", "1..10"
    )
    assert code == EXIT_DEFINITIVE
    assert "MonochromaticRoot (1, 3, 4)" in out


def test_reduce_q3(capsys):
    code, out, _ = run(capsys, "reduce", "--poly", "x^2 - 2", "--transform", "q3")
    assert code == EXIT_DEFINITIVE
    assert "verified" in out
    assert "homogeneous" in out


# ---------------------------------------------------------------------------
# one emit path for every kind
# ---------------------------------------------------------------------------

EMITTED = {
    "ColumnsWitness": ["linear", "--matrix", "1 1 -1"],
    "NoColumnsWitness": ["linear", "--matrix", "1 -2"],
    "PartitionCertified": ["window", "--poly", "x+y-z", "--colors", "2", "--window", "1..5"],
    "PartitionColorable": ["window", "--poly", "x+y-z", "--colors", "2", "--window", "1..4"],
    "Exhausted": ["search", "--poly", "x-2*y", "--colors", "2", "--budget", "5"],
    "DensityCertified": [
        "density", "--poly", "x+y-2*z", "--window", "1..9", "--delta", "0.6", "--injective"
    ],
    "DensityAvoider": [
        "density", "--poly", "x+y-2*z", "--window", "1..9", "--delta", "5/9", "--injective"
    ],
    "Roots": ["roots", "--poly", "x+y-z", "--window", "1..5"],
    "DisjointSolutions": [
        "roots", "--poly", "x+y-z", "--window", "1..12", "--disjoint", "2", "--injective"
    ],
    "MonochromaticRoot": [
        "refute", "--poly", "x+y-z", "--coloring", "basep:3", "--window", "1..10"
    ],
    "Clean": ["refute", "--poly", "x-2*y", "--coloring", "basep:3", "--window", "1..20"],
    "Reduction": ["reduce", "--poly", "x^2 - 2", "--transform", "q3"],
}


@pytest.mark.parametrize("kind", list(EMITTED))
def test_every_kind_is_emitted_alike(kind, capsys, tmp_path):
    argv = EMITTED[kind]
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == (EXIT_INCONCLUSIVE if kind in ("Exhausted", "Clean") else EXIT_DEFINITIVE)
    written_line = f"certificate written to {path}\n"
    assert out.endswith(written_line)
    report = out[: -len(written_line)]
    printed_code, printed, _ = run(capsys, *argv, "--print-cert")
    assert printed_code == code
    assert printed.startswith(report)
    written, printed = json.loads(path.read_text()), json.loads(printed[len(report) :])
    for doc, extra in ((written, ["--out", str(path)]), (printed, ["--print-cert"])):
        assert doc.pop("command") == argv + extra
        assert isinstance(doc.pop("elapsed_ms"), int)
    assert written == printed
    assert written["kind"] == kind
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_DEFINITIVE
    assert out.startswith("VALID")


# ---------------------------------------------------------------------------
# verify round trip and errors
# ---------------------------------------------------------------------------


def test_verify_round_trip(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    run(capsys, "linear", "--matrix", "1 1 -1", "--out", str(cert_file))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == EXIT_DEFINITIVE
    assert out.startswith("VALID")


def test_verify_rejects_tampering(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    run(capsys, "linear", "--matrix", "1 1 -1", "--out", str(cert_file))
    doc = json.loads(cert_file.read_text())
    doc["payload"]["cells"] = [[0, 1], [2]]
    cert_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == EXIT_ERROR
    assert out.startswith("INVALID")


def test_verify_reads_utf8_under_a_c_locale(tmp_path):
    """Certificate files are UTF-8 (RFC 8259), whatever the locale's encoding."""
    doc = {
        "schema": 1,
        "tool_version": partreg.__version__,
        "kind": "Roots",
        "domain": "Z",
        "enumeration_scheme": "zigzag",
        "command": [],
        "injective": False,
        "poly": {
            "nvars": 3,
            "terms": [
                {"c": "1", "e": [1, 0, 0]},
                {"c": "1", "e": [0, 1, 0]},
                {"c": "-1", "e": [0, 0, 1]},
            ],
            "vars": ["x", "y", "z"],
        },
        "window": {"elements": ["1", "2", "3"], "provenance": "Schur’s window 1…3, ≤ 3"},
        "payload": {"tuples": [[0, 0, 1], [0, 1, 2], [1, 0, 2]], "edges": [[0, 1], [0, 1, 2]]},
    }
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(partreg.__file__))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    result = subprocess.run(
        [sys.executable, "-m", "partreg.cli", "verify", str(cert_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (EXIT_DEFINITIVE, "")
    assert result.stdout.startswith("VALID")


def test_verify_re_decides_a_certified_window(capsys, tmp_path):
    # a Schur certificate relabelled as x - 2y, which is 2-colorable on the
    # same window, used to print "VALID: structural check only"
    cert_file = tmp_path / "schur.json"
    argv = ["search", "--poly", "x + y - z", "--colors", "2", "--budget", "12"]
    run(capsys, *argv, "--out", str(cert_file))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == EXIT_DEFINITIVE
    assert out.startswith("VALID")
    doc = json.loads(cert_file.read_text())
    doc["poly"] = {
        "nvars": 2,
        "terms": [{"c": "1", "e": [1, 0]}, {"c": "-2", "e": [0, 1]}],
        "vars": ["x", "y"],
    }
    cert_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == EXIT_ERROR
    assert out.startswith("INVALID")


def test_verify_schema_only_is_exit_1(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps({"schema": 1}))
    code, _, err = run(capsys, "verify", str(cert_file))
    assert code == EXIT_ERROR
    assert "error:" in err


def test_bad_input_is_exit_1(capsys):
    code, _, err = run(capsys, "window", "--poly", "x +", "--colors", "2", "--window", "1..4")
    assert code == EXIT_ERROR
    assert "error:" in err
    code2, _, _ = run(capsys, "search", "--poly", "x+y-z", "--colors", "0", "--budget", "3")
    assert code2 == EXIT_ERROR
    # a zero count and an empty prefix window once gave a definitive answer
    for argv in (
        ["roots", "--poly", "x+y-z", "--window", "1..6", "--disjoint", "0"],
        ["window", "--poly", "x+y-z", "--colors", "2", "--window", "prefix:0"],
        ["window", "--poly", "x+y-z", "--colors", "2", "--window", "prefix:-3"],
        # a gate index outside the variables must not wrap around
        ["reduce", "--poly", "x*y-2", "--transform", "gate:mul", "--gate-var", "-1"],
        ["reduce", "--poly", "x*y-2", "--transform", "gate:add", "--gate-var", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_ERROR, ""), argv
        assert "error:" in err


@pytest.mark.parametrize("delta", ["1/0", "nan", "0", "3/2"])
def test_bad_delta_is_exit_1(capsys, delta):
    argv = ["density", "--poly", "x+y-2*z", "--window", "1..9", "--delta", delta]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: --delta must be a rational in (0, 1], not {delta!r}\n"


def test_search_checks_the_budget_before_the_colors(capsys):
    argv = ["search", "--poly", "x+y-z", "--budget", "0", "--colors", "0"]
    assert run(capsys, *argv) == (EXIT_ERROR, "", "error: budget must be positive\n")
    argv = ["search", "--poly", "x+y-z", "--budget", "3", "--colors", "0"]
    assert run(capsys, *argv) == (EXIT_ERROR, "", "error: need at least one color\n")


def test_deep_parentheses_are_exit_1(capsys):
    ok = "(" * 200 + "x+y-z" + ")" * 200
    assert run(capsys, "roots", "--poly", ok, "--window", "1..5")[0] == EXIT_DEFINITIVE
    deep = "(" * 300 + "x+y-z" + ")" * 300
    code, out, err = run(capsys, "roots", "--poly", deep, "--window", "1..5")
    assert (code, out) == (EXIT_ERROR, "")
    assert "error: parentheses nested too deeply at position 200" in err


def test_long_unary_minus_run_parses(capsys):
    # read in a loop, so a run of 3000 minuses is an even negation, not a traceback
    plain = run(capsys, "roots", "--poly", "x+y-z", "--window", "1..5")
    assert run(capsys, "roots", "--poly=" + "-" * 3000 + "x+y-z", "--window", "1..5") == plain
    nested = "-(" * 300 + "x" + ")" * 300
    code, out, err = run(capsys, "roots", "--poly=" + nested, "--window", "1..5")
    assert (code, out) == (EXIT_ERROR, "")
    assert "nested too deeply" in err


def test_verify_deeply_nested_json_is_exit_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert "error: certificate JSON nested too deeply" in err


def test_ordmod_prime_too_large_to_certify_is_exit_1(capsys):
    code, out, err = run(
        capsys,
        "refute",
        "--poly",
        "x + y - z",
        "--coloring",
        "ordmod:170141183460469231731687303715884105727:3",  # 2^127 - 1
        "--window",
        "1..10",
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert "error: prime too large to certify" in err


def test_large_extension_field_answers(capsys):
    # the degree-40 modulus is found by Rabin's test; trial division never finished
    domain = "GF(1099511627776)[t]"  # 2^40
    code, out, _ = run(capsys, "roots", "--domain", domain, "--poly", "x+y-z", "--window", "prefix:4")
    assert code == EXIT_DEFINITIVE
    assert out.startswith("6 root tuples, 1 edges")


def test_unknown_subcommand_is_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_ERROR


def test_one_process_matches_separate_processes(capsys):
    # main keeps its argument parser between calls; a usage error in between
    # must not change what the later calls print or return, and a density
    # check that does not transfer prints the same line every time
    non_transferable = ["density", "--poly", "x*y-z+1", "--window", "1..9", "--delta", "0.6"]
    non_transferable += ["--mode", "mul"]
    commands = [
        ["window", "--poly", "x + y - z", "--colors", "2", "--window", "1..4"],
        ["window", "--colors", "2"],
        ["density", "--poly", "x + y - 2*z", "--window", "1..9", "--delta", "5/9", "--injective"],
        ["window", "--poly", "x + y - z", "--colors", "2", "--window", "1..5"],
        non_transferable,
        non_transferable,
    ]
    src = os.path.dirname(os.path.dirname(partreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for argv in commands:
        alone = subprocess.run(
            [sys.executable, "-m", "partreg.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert run(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(alone.returncode)
    assert codes == [EXIT_DEFINITIVE, EXIT_ERROR] + [EXIT_DEFINITIVE] * 4
