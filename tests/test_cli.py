"""End-to-end runs of every subcommand through run(argv)."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlam import GoodParityParameter, HalfInt, Segment, cli, criterion, tableau
from aqlam import packets as packets_mod
from aqlam.cli import run
from aqlam.packets import fiber_audit
from aqlam.padic import project_EF, to_extended
from aqlam.segments import lambda_values
from aqlam.tableau import trapa_reduce

from conftest import random_parameter
from test_criterion import reordered_family
from test_packets import loosen_pair

DOC_A = {
    "components": [{"a": 12, "m": 3}, {"a": 10, "m": 5}, {"a": 7, "m": 6}],
    "p": [2, 2, 2],
    "p_rank": 6,
}
DOC_B = {
    "components": [{"a": 12, "m": 3}, {"a": 8, "m": 5}, {"a": 7, "m": 6}],
    "p": [2, 2, 2],
}
DOC_D = {"components": [{"a": 5, "m": 2}, {"a": 4, "m": 3}, {"a": 3, "m": 2}]}
DOC_R5 = {
    "components": [
        {"a": 14, "m": 3}, {"a": 12, "m": 5}, {"a": 11, "m": 4},
        {"a": 9, "m": 6}, {"a": 6, "m": 3},
    ],
}
# an end of -3/2: outside the comparison domain of the p-adic side
DOC_NEGATIVE_END = {"components": [{"a": 1, "m": 5}, {"a": 0, "m": 2}], "p": [2, 1]}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DOC_HALF = {
    "segments": [
        {"b": "7/2", "e": "5/2"},
        {"b": "7/2", "e": "5/2"},
        {"b": "5/2", "e": "3/2"},
    ],
    "p": [2, 1, 0],
    "p_rank": 3,
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_stdin(argv, doc):
    """The exit code and stdout of ``run`` on argv, with doc on stdin."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = run([*argv[:1], "-", *argv[1:]])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_nonzero_exits_zero(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["check", write_doc(tmp_path, DOC_A), "--verify"]
        )
        assert code == 0
        assert payload == {"nonzero": True, "witness": None}

    def test_zero_exits_one_with_witness(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["check", write_doc(tmp_path, DOC_B)])
        assert code == 1
        assert payload["nonzero"] is False
        witness = payload["witness"]
        assert witness["kind"] == "C"
        assert witness["indices"] == [2, 3]
        assert witness["values"][-2:] == [4, 5]

    def test_verify_exits_four_when_the_engines_disagree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "nonvanishing", lambda psi, p: criterion.Verdict(False))
        assert run(["check", write_doc(tmp_path, DOC_A), "--verify"]) == 4
        assert capsys.readouterr().err == (
            "internal error: engines disagree on p=(2, 2, 2): simplified=True,"
            " full=False, tableau=True\n"
        )

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(DOC_A)))
        code, payload = run_json(capsys, ["check", "-"])
        assert code == 0 and payload["nonzero"] is True


class TestTableau:
    def test_fixture_antitableau(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["tableau", write_doc(tmp_path, DOC_A)])
        assert code == 0
        assert payload["zero"] is False
        assert payload["antitableau"] == [
            ["7", "7", "6"], ["6", "6", "5"], ["5", "5", "4"],
            ["4", "3"], ["3"], ["2"], ["1"],
        ]
        assert payload["rows"][:3] == [[3, "+"], [3, "+"], [3, "-"]]

    def test_text_format(self, tmp_path, capsys):
        code = run(["tableau", write_doc(tmp_path, DOC_A), "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "antitableau:" in out
        assert "7 7 6" in out

    def test_zero_reports_overlap(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["tableau", write_doc(tmp_path, DOC_B)])
        assert code == 0
        assert payload["zero"] is True


class TestPadic:
    def test_half_integer_document(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["padic", write_doc(tmp_path, DOC_HALF)])
        assert code == 0
        assert payload["l_eta"]["l"] == [0, 1, 0]
        assert payload["l_eta"]["eta"] == ["-", "+", "+"]
        assert "EF_image" in payload

    def test_outside_the_comparison_domain_prints_l_eta_only(self, tmp_path, capsys):
        # as ``av`` reports no image there and ``padic_nonvanishing`` refuses it
        code, payload = run_json(capsys, ["padic", write_doc(tmp_path, DOC_NEGATIVE_END)])
        assert code == 0
        assert payload == {"l_eta": {"eta": ["-", "+"], "l": [2, 1], "sigma": [1, 2]}}
        code, payload = run_json(capsys, ["av", write_doc(tmp_path, DOC_NEGATIVE_END)])
        assert payload["total"] > 0
        assert all(e["padic_image"] is None for es in payload["packets"].values() for e in es)


class TestPacket:
    def test_fixture_counts(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["packet", write_doc(tmp_path, DOC_A), "--verify"]
        )
        assert code == 0
        assert payload["scanned"] == 21
        assert len(payload["entries"]) == 9
        assert any(e["p"] == [2, 2, 2] for e in payload["entries"])

    def test_text_format_prints_one_entry_per_line(self, tmp_path, capsys):
        path = write_doc(tmp_path, DOC_A)
        code, payload = run_json(capsys, ["packet", path])
        assert run(["packet", path, "--format", "text"]) == code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["p_rank: 6", "scanned: 21", "entries:"]
        assert [json.loads(line) for line in lines[3:]] == payload["entries"]

    def test_missing_rank_is_input_error(self, tmp_path, capsys):
        code = run(["packet", write_doc(tmp_path, DOC_B)])
        assert code == 2
        assert "p_rank" in capsys.readouterr().err


class TestArrangementsAndTransition:
    def test_arrangements(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["arrangements", write_doc(tmp_path, DOC_A)]
        )
        assert code == 0
        assert payload["count"] == 2
        assert payload["sigmas"] == [[1, 2, 3], [2, 1, 3]]

    def test_transition(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["transition", write_doc(tmp_path, DOC_A), "--sigma", "2,1,3"],
        )
        assert code == 0
        assert payload == {"sigma": [2, 1, 3], "entries": [3, 1, 2]}

    def test_transition_needs_sigma(self, tmp_path, capsys):
        assert run(["transition", write_doc(tmp_path, DOC_A)]) == 2

    def test_the_order_budget_refuses_nine_equal_segments_not_a_long_chain(
        self, tmp_path, capsys
    ):
        nine = {"segments": [{"b": "4", "e": "2"}] * 9}
        assert run(["arrangements", write_doc(tmp_path, nine)]) == 3
        assert "more than 109601 partial arrangements" in capsys.readouterr().err
        # sixteen one-box segments in a precedence chain: one order
        chain = {"segments": [{"b": str(k), "e": str(k)} for k in range(16, 0, -1)]}
        code, payload = run_json(capsys, ["arrangements", write_doc(tmp_path, chain)])
        assert (code, payload["sigmas"]) == (0, [list(range(1, 17))])
        doc = {**chain, "p": [1, 0] * 8}
        assert run(["check", write_doc(tmp_path, doc), "--verify"]) == 0


class TestAV:
    def test_even_fixture_audit(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["av", write_doc(tmp_path, DOC_HALF), "--verify"]
        )
        assert code == 0
        assert payload["fibers_ok"] is True
        assert payload["total"] == len(payload["fiber_sizes"])

    # fixtures A to D (DOC_HALF holds fixture C) and the r=5 parameter
    @pytest.mark.parametrize("doc", [DOC_A, DOC_B, DOC_HALF, DOC_D, DOC_R5])
    def test_verify_prints_the_same_bytes(self, tmp_path, capsys, doc):
        # the search and the full scan by both engines agree to the byte
        path = write_doc(tmp_path, doc)
        assert run(["av", path]) == 0
        searched = capsys.readouterr().out
        assert run(["av", path, "--verify"]) == 0
        assert capsys.readouterr().out == searched

    def test_a_survivor_the_tableau_zeroes_exits_four(self, tmp_path, capsys, monkeypatch):
        loosen_pair(monkeypatch, 2, 3)
        assert run(["av", write_doc(tmp_path, DOC_B)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("internal error: ")

    def test_past_the_budget_exits_three_before_any_per_value_table(
        self, tmp_path, capsys, monkeypatch
    ):
        # one segment of length 200,000, ends 1 and 200,000 (in the
        # comparison domain), with the box limit lifted: the search refuses
        # at its first node, before the image's table, the entry text
        # pieces (rows of m + 1 each) or the n + 1 rank buckets are built
        monkeypatch.setattr(tableau, "MAX_BOXES", 10**6)
        path = write_doc(tmp_path, {"components": [{"a": 200_001, "m": 200_000}]})
        tracemalloc.start()
        try:
            code = run(["av", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 2_000_000
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["av"], ["av", "--verify"], ["packet"]])
    def test_node_budget_exits_three(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", 20)
        assert run([argv[0], write_doc(tmp_path, DOC_A), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_verify_refuses_only_a_scan_past_the_budget(self, tmp_path, capsys, monkeypatch):
        # fixture D's box (2, 3, 2): listing rank 2 visits 15 nodes, rank 3
        # 19 and the whole box 51; the criterion's search of rank 3 visits
        # 17 and of the whole box 33
        def exits(argv):
            code = run(argv)
            return code, capsys.readouterr()

        monkeypatch.setattr(criterion, "MAX_DFS_NODES", 18)
        rank2 = write_doc(tmp_path, {**DOC_D, "p_rank": 2}, "rank2.json")
        plain = exits(["packet", rank2])
        assert plain[0] == 0 and exits(["packet", rank2, "--verify"]) == plain
        rank3 = write_doc(tmp_path, {**DOC_D, "p_rank": 3}, "rank3.json")
        assert exits(["packet", rank3])[0] == 0
        code, captured = exits(["packet", rank3, "--verify"])
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: the lattice-point search visited more than 18")
        # av --verify scans the whole box, as it did when the box's node
        # count was checked up front: refused at 50 nodes, run at 51
        path = write_doc(tmp_path, DOC_D)
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", 50)
        assert exits(["av", path])[0] == 0
        code, captured = exits(["av", path, "--verify"])
        assert code == 3 and captured.out == "" and captured.err.startswith("error: ")
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", 51)
        assert exits(["av", path, "--verify"]) == exits(["av", path])


class TestBoxLimit:
    """A parameter of more than ``tableau.MAX_BOXES`` boxes is refused
    (exit 3) by every subcommand that reduces it, before anything is built
    per box; ``check`` still answers."""

    # one segment just past the limit, with ends 1 and MAX_BOXES + 1 (in
    # the comparison domain), and one survivor at rank 1: small enough that
    # a reduction which builds its tables does so in under a second
    DOC = {
        "components": [{"a": tableau.MAX_BOXES + 2, "m": tableau.MAX_BOXES + 1}],
        "p": [1],
        "p_rank": 1,
    }

    @pytest.mark.parametrize("argv", [["packet"], ["tableau"], ["av"], ["check", "--verify"]])
    def test_past_the_limit_exits_three_before_any_per_box_table(self, tmp_path, capsys, argv):
        path = write_doc(tmp_path, self.DOC)
        tracemalloc.start()
        try:
            code = run([argv[0], path, *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "") and peak < 2_000_000
        assert captured.err.startswith("error: ") and "boxes" in captured.err

    def test_check_still_answers(self, tmp_path, capsys):
        assert run(["check", write_doc(tmp_path, self.DOC)]) == 0
        assert json.loads(capsys.readouterr().out) == {"nonzero": True, "witness": None}

    def test_the_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, DOC_A)  # 14 boxes
        for limit, code in ((14, 0), (13, 3)):
            monkeypatch.setattr(tableau, "MAX_BOXES", limit)
            for command in ("tableau", "packet", "av"):
                assert run([command, path]) == code
        capsys.readouterr()

    def test_far_apart_segments_write_only_the_values_they_hold(self, tmp_path, capsys):
        # two one-box segments 100,000 apart: the antitableau has two cells
        doc = {"components": [{"a": 200_001, "m": 1}, {"a": 1, "m": 1}], "p": [0, 0]}
        tracemalloc.start()
        try:
            code = run(["tableau", write_doc(tmp_path, doc)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2_000_000
        assert json.loads(capsys.readouterr().out)["antitableau"] == [["200001/2"], ["1/2"]]


class TestOutput:
    @pytest.mark.parametrize("argv", [["av"], ["packet", "--verify"], ["check"]])
    def test_json_is_one_compact_line(self, tmp_path, capsys, argv):
        assert run([argv[0], write_doc(tmp_path, DOC_A), *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


class TestInputHandling:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["check", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_deep_nesting_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
        assert run(["av", "-"]) == 2
        assert "nests too deeply" in capsys.readouterr().err

    def test_an_unexpected_exception_exits_four(self, tmp_path, capsys, monkeypatch):
        def broken(doc, psi, args):
            raise ZeroDivisionError("a defect")

        monkeypatch.setitem(cli._COMMANDS, "av", broken)
        assert run(["av", write_doc(tmp_path, DOC_A)]) == 4
        assert capsys.readouterr().err == "internal error: ZeroDivisionError: a defect\n"

    def test_closed_stdout_exits_141_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "from aqlam.cli import main; main()",
             "av", "-", "--format", "text"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        proc.stdout.close()  # the reader is gone before anything is written
        proc.stdin.write(json.dumps(DOC_R5).encode())
        proc.stdin.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent.json"]) == 2

    def test_a_document_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(DOC_A).encode("utf-16"))
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed JSON: 'utf-8' codec")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter reads integers of any length",
    )
    def test_an_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"components": [{"a": 12, "m": 3}], "p": [' + "9" * 4301 + "]}")
        assert run(["check", str(path)]) == 2
        assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"components": [{"a": 12}], "p": [1]}, "bad component entry: {'a': 12}"),
        ({"segments": [{"b": "3"}], "p": [0]}, "bad segment entry: {'b': '3'}"),
        ({"components": [{"a": 12, "m": 3}]}, "this subcommand needs an entry vector 'p'"),
        ({"components": [{"a": 1, "m": 0}]}, "component length must be positive, got 0"),
        ({"components": []}, "parameter needs at least one segment"),
        ({"segments": []}, "parameter needs at least one segment"),
    ])
    def test_an_incomplete_document_is_input_error(self, tmp_path, capsys, doc, message):
        assert run(["check", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_segment_end_outside_the_half_integer_grammar_is_input_error(
        self, tmp_path, capsys
    ):
        doc = {"segments": [{"b": "1_0", "e": "\u0663"}], "p": [1]}
        assert run(["check", write_doc(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: not a half-integer: '1_0'\n")

    def test_both_segment_forms_rejected(self, tmp_path, capsys):
        doc = dict(DOC_A)
        doc["segments"] = DOC_HALF["segments"]
        assert run(["check", write_doc(tmp_path, doc)]) == 2

    def test_wrong_p_length(self, tmp_path, capsys):
        doc = dict(DOC_A)
        doc["p"] = [2, 2]
        assert run(["check", write_doc(tmp_path, doc)]) == 2

    def test_strict_parity_flag(self, tmp_path, capsys):
        # one even-length integer segment: fails the parity congruence
        doc = {"components": [{"a": 5, "m": 2}], "p": [1]}
        path = write_doc(tmp_path, doc)
        assert run(["check", path]) in (0, 1)
        capsys.readouterr()
        assert run(["check", path, "--strict-parity"]) == 2

    def test_json_round_trip(self, tmp_path, capsys):
        path = write_doc(tmp_path, DOC_A)
        code, payload = run_json(capsys, ["packet", path, "--verify"])
        again_code, again = run_json(capsys, ["packet", path, "--verify"])
        assert (code, payload) == (again_code, again)

    @pytest.mark.parametrize("command, doc", [
        ("check", {**DOC_A, "p": [1.5, 2, 2]}),
        ("check", {**DOC_A, "p": [True, 2, 2]}),
        ("check", {**DOC_A, "p": ["x", 2, 2]}),
        ("check", {**DOC_A, "components": [{"a": 12.7, "m": 3}], "p": [1]}),
        ("check", {**DOC_A, "components": 5}),
        ("check", 5),
        ("packet", {**DOC_A, "p_rank": "x"}),
        ("packet", {**DOC_A, "p_rank": True}),
        ("check", {"segments": [{"b": 3, "e": 3}], "p": [0]}),
        ("check", {"segments": [{"b": 3.5, "e": "1/2"}], "p": [0]}),
    ])
    def test_non_integer_or_non_object_is_input_error(
        self, tmp_path, capsys, command, doc
    ):
        assert run([command, write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


COMMANDS = ("check", "packet", "tableau", "padic", "arrangements", "transition", "av")
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGITS, reason="this interpreter writes integers of any length")
class TestPrintLimit:
    """Python writes no integer of more than ``DIGITS`` digits (4,300 by
    default), so a parameter whose outputs would need one is refused."""

    @staticmethod
    def argv(command, path):
        return [command, path, *(["--sigma", "1"] * (command == "transition"))]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_ends_past_the_limit_exit_two(self, tmp_path, capsys, command):
        # a = 10**DIGITS - 1, so the top end (10**DIGITS + 1)/2 doubles to one digit more
        path = write_doc(tmp_path, {"components": [{"a": int("9" * DIGITS), "m": 3}], "p": [0]})
        assert run(self.argv(command, path)) == 2
        assert capsys.readouterr().err == (
            f"error: the segment ends are too long to print: past {DIGITS} digits\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_digit_less_runs(self, tmp_path, capsys, command):
        doc = {"components": [{"a": int("9" * (DIGITS - 1)), "m": 3}], "p": [0], "p_rank": 0}
        assert run(self.argv(command, write_doc(tmp_path, doc))) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_lambda_values_past_the_limit_exit_two(self, tmp_path, capsys, command):
        # every doubled end has DIGITS digits, but twice lambda_2 = 10**DIGITS + 1
        top, low = int("9" * DIGITS), int("9" * (DIGITS - 1) + "7")
        doc = {
            "segments": [{"b": f"{top}/2", "e": f"{low}/2"}, {"b": f"{top}/2", "e": f"{top}/2"}],
            "p": [0, 0],
            "p_rank": 0,
        }
        psi = GoodParityParameter(
            (Segment(HalfInt(top), HalfInt(low)), Segment(HalfInt(top), HalfInt(top)))
        )
        assert lambda_values(psi)[1].twice == 10**DIGITS + 1
        assert run(self.argv(command, write_doc(tmp_path, doc))) == 2
        assert "too long to print" in capsys.readouterr().err


    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_transported_entry_past_the_limit_exits_two(self, tmp_path, capsys, sign, fmt):
        # p_1 = +-(10**DIGITS - 1) prints, but the swap of [6,4] and [7,3]
        # gives the contained component q_1 = 3 - p_1 and the container
        # p_1 + p_2 - q_1, one of them a digit longer than p_1
        doc = {"components": [{"a": 10, "m": 3}, {"a": 10, "m": 5}],
               "p": [sign * int("9" * DIGITS), 0]}
        argv = ["transition", write_doc(tmp_path, doc), "--sigma", "2,1", "--format", fmt]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # not even the sigma line of the text view
        assert err == f"error: an output is too long to print: past {DIGITS} digits\n"


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["tableau", "--sigma", "2,1"],
        ["check", "--sigma", "2,1,3"],
        ["tableau", "--verify"],
        ["check", "--max-r", "8"],  # the order search has a work budget, not this bound
        ["arrangements", "--max-r", "8"],
    ])
    def test_misplaced_or_negative_flag_exits_two(self, tmp_path, capsys, argv):
        assert run([argv[0], write_doc(tmp_path, DOC_A), *argv[1:]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sigma_message(self, tmp_path, capsys):
        assert run(["transition", write_doc(tmp_path, DOC_A), "--sigma", "2 x"]) == 2
        err = capsys.readouterr().err
        assert "argument --sigma: expected integers separated by commas or spaces, got '2 x'" in err
        assert "_parse_sigma" not in err


def recorded_runs():
    """(argv, doc) pairs whose output bytes are on record: fixtures A to D
    and the r=5 parameter with ``av``, ``av --verify``, ``av --format text``
    and ``packet`` at every rank; 300 seeded random parameters at r <= 6,
    m <= 4 with ``av``, ``av --verify`` where the box is at most 300, and
    ``packet`` at every rank of every tenth."""
    for doc in (DOC_A, DOC_B, DOC_HALF, DOC_D, DOC_R5):
        doc = {k: v for k, v in doc.items() if k not in ("p", "p_rank")}
        yield from _recorded(doc, verify=True, ranks=True)
        yield ["av", "--format", "text"], doc
    rng = random.Random(71)
    for t in range(300):
        psi = random_parameter(rng, rng.randint(1, 6), m_max=4)
        doc = {"segments": [{"b": str(s.b), "e": str(s.e)} for s in psi.segments]}
        box = math.prod(s.m + 1 for s in psi.segments)
        yield from _recorded(doc, verify=box <= 300, ranks=t % 10 == 0)


def _recorded(doc, verify, ranks):
    yield ["av"], doc
    if verify:
        yield ["av", "--verify"], doc
    if ranks:
        n = cli._parse_parameter(doc, False).n
        for rank in range(n + 1):
            yield ["packet"], {**doc, "p_rank": rank}


class TestOutputRecord:
    # sha256 of the exit codes and stdout of ``recorded_runs()``, recorded
    # before survivors were described by resuming reductions and written
    # straight to JSON text
    RECORD = "2d350f3b9ae44a3da7770ac41f57dc04de48aafe233823e1e4a553b5c1943b5d"

    def test_matches_the_record(self):
        lines = [f"{argv} {run_stdin(argv, doc)}" for argv, doc in recorded_runs()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (897, self.RECORD)


def image_payload(image):
    """The JSON payload of a p-adic image, None for no image."""
    return None if image is None else {
        "l": list(image.l),
        "eta": ["+" if e == 1 else "-" for e in image.eta],
        "sigma": list(image.sigma),
    }


def compact(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_entry_text_matches_the_reference_definitions():
    rng = random.Random(73)
    # fixtures A to D, the r=5 parameter and one outside the comparison domain
    docs = [DOC_A, DOC_B, DOC_HALF, DOC_D, DOC_R5, DOC_NEGATIVE_END]
    psis = [cli._parse_parameter(doc, False) for doc in docs]
    psis += [random_parameter(rng, rng.randint(1, 6), m_max=4) for _ in range(40)]
    # and parameters whose canonical arrangement is not the reference order
    psis += reordered_family()
    written = grids = 0
    kinds = set()  # n mod 2 in the comparison domain, None outside it
    for psi in psis:
        compiled = packets_mod.CompiledPackets(psi)
        entries = list(compiled.entries())
        lam = [str(x) for x in lambda_values(psi)]
        references = []
        for p, text, image in entries:
            reduction = trapa_reduce(psi, p)
            reference = project_EF(psi, to_extended(psi, p)) if compiled.in_domain else None
            assert text == compact({
                "p": list(p),
                "levi": [[p_i, s.m - p_i] for p_i, s in zip(p, psi.segments)],
                "lambda": lam,
                "antitableau": [[str(x) for x in row] for row in reduction.antitableau],
                "rows": [[length, sign] for length, sign in reduction.rows],
                "padic_image": image_payload(reference),
            }), (psi, p)
            assert image == compact(image_payload(reference)), (psi, p)
            references.append(reference)
        written += len(entries)
        kinds.add(psi.n % 2 if compiled.in_domain else None)
        if compiled.in_domain:
            texts = [image for _, _, image in entries]
            by_text, by_object = fiber_audit(texts, psi.n), fiber_audit(references, psi.n)
            assert sorted(by_text[0].values()) == sorted(by_object[0].values())
            assert by_text[1] is by_object[1] is True
        # one antitableau text per final types; a second pass reads them all from the memo
        assert len(compiled.grids) == len({compiled.reduction.run(p)[0] for p, _, _ in entries})
        assert list(compiled.entries()) == entries
        grids += len(compiled.grids)
    assert kinds == {0, 1, None}
    assert written > 1000 and grids < written / 2  # survivors share final types


# sha256 of the newline-joined ``repr`` of the ``(p, entry, image)`` triples
# of ``CompiledPackets(psi).entries()`` over ``reordered_family()``, whose
# reductions transport every vector to a canonical arrangement that is not
# the reference order (5,118 entries), recorded before the entries were
# written from the reduction's numbered types and row counts
REORDERED_ENTRIES_RECORD = "b4295ab4bec73cdbe5034328b156d2561ba243b2345f8498a556dd3d62d94048"


@pytest.mark.parametrize("verify", [False, True])
def test_entries_of_reordered_parameters_match_their_record(verify):
    lines = [
        repr(entry)
        for psi in reordered_family()
        for entry in packets_mod.CompiledPackets(psi).entries(None, verify)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (5118, REORDERED_ENTRIES_RECORD)


# --- the command-line boundary on any document -------------------------------

NINES = int("9" * 4300)  # parses; one more digit, or doubling it, is past the limit
# a value where the document wants a number or a half-integer string
SIZES = st.one_of(
    st.integers(-2, 14),
    st.sampled_from([0, 10**9, 10**12 + 1, NINES, -NINES]),
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
)
HALFINTS = st.one_of(
    st.integers(-14, 14).map(str),
    st.builds("{}/{}".format, st.integers(-14, 14), st.sampled_from([1, 2, 3])),
    st.sampled_from([str(NINES), f"{NINES}/2", "1/0", "", " 3", "x"]),
    SIZES,
)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def well_formed(draw):
    """Components on one grid (a + m of one parity) in descending order of
    a (so no later one precedes an earlier one), with p in or just off the
    box and a rank in or just off range: these parse, and many are answered."""
    r, grid = draw(st.integers(1, 5)), draw(st.integers(0, 1))
    m = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    a = [x + (x + y + grid) % 2 for x, y in zip(draw(st.lists(st.integers(0, 14), min_size=r, max_size=r)), m)]
    components = sorted(zip(a, m), reverse=True)
    m = [y for _, y in components]
    return {
        "components": [{"a": x, "m": y} for x, y in components],
        "p": [draw(st.integers(-1, y + 1)) for y in m],
        "p_rank": draw(st.integers(-1, sum(m) + 1)),
    }


# past a limit: the box limit with one survivor, nine equal segments (9!
# orders), an end past the digit limit, and an entry of 4,300 nines
OVERSIZED = st.one_of(
    st.sampled_from([
        {"components": [{"a": 10**9 + 1, "m": 10**9}], "p": [1], "p_rank": 1},
        {"segments": [{"b": "4", "e": "2"}] * 9, "p": [1] * 9, "p_rank": 9},
        {"components": [{"a": NINES, "m": 3}], "p": [0], "p_rank": 0},
    ]),
    well_formed().map(lambda doc: {**doc, "p": [NINES, *doc["p"][1:]]}),
)
DOCUMENTS = st.one_of(
    well_formed(),
    OVERSIZED,
    st.fixed_dictionaries({}, optional={
        "components": st.lists(st.fixed_dictionaries({"a": SIZES, "m": SIZES}) | JUNK, max_size=7) | JUNK,
        "segments": st.lists(st.fixed_dictionaries({"b": HALFINTS, "e": HALFINTS}) | JUNK, max_size=7) | JUNK,
        "p": st.lists(SIZES, max_size=7) | JUNK,
        "p_rank": SIZES | JUNK,
    }),
    JUNK,
).map(json.dumps).map(str.encode)
RAW = st.one_of(DOCUMENTS, st.binary(max_size=12), DOCUMENTS.map(lambda doc: doc[:-1]))
SIGMAS = st.sampled_from(["1", "2,1", "1,2", "2,1,3", "3 2 1", "1,2,3,4", "0,1", "x", ""])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(cli._COMMANDS)), RAW,
    st.lists(st.sampled_from(["--format text", "--strict-parity", "--verify"]), unique=True),
    SIGMAS,
)
@example(
    "transition",
    json.dumps({"components": [{"a": 10, "m": 3}, {"a": 10, "m": 5}], "p": [NINES, 0]}).encode(),
    [], "2,1",
)
def test_any_document_gets_an_exit_code_and_no_traceback(command, raw, flags, sigma):
    if command not in ("check", "packet", "av"):
        flags = [flag for flag in flags if flag != "--verify"]
    argv = [command, "-", *" ".join(flags).split()]
    if command == "transition":
        argv += ["--sigma", sigma]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), (argv, raw, err.getvalue())
    assert code != 1 or command == "check", (argv, raw)
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), (argv, raw)
