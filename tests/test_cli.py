"""End-to-end command line behaviour, run in-process through main()."""

import argparse
import contextlib
import io
import logging
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fparray.cli as cli

from fparray import (
    FrequencyPermutationArray,
    affine_classes_from_mols,
    canonical_max_distance_fpa,
    fpa_from_hadamard,
    fpa_steiner_848,
    hadamard_matrix,
    mofs_complete,
    mols_from_field,
    oa_from_mols,
    separable_from_mols,
    verify,
)
from fparray import combinators, core
from fparray.cli import formats, main
from fparray.gf import LinearizedPolynomial
from fparray.cli.formats import (
    FormatError,
    parse_design,
    parse_fpa,
    parse_hadamard,
    parse_oa,
    parse_squares,
    write_design,
    write_fpa,
    write_hadamard,
    write_oa,
    write_squares,
)

# ---------------------------------------------------------------------------
# construct: files, summaries, stream conventions


def test_steiner_file_and_summary(tmp_path, capsys):
    out = tmp_path / "s.fpa"
    assert main(["construct", "steiner-848", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#fpa v1"
    assert lines[1] == "n=8 lambda=4 m=2 d=4 size=14"
    assert lines[2] == "1 0 1 1 0 0 0 1"
    assert len(lines) == 2 + 14
    captured = capsys.readouterr()
    assert captured.out == "FPA(n=8, m=2, lambda=4, d=4, size=14)\n"
    assert captured.err == ""


def test_array_on_stdout_summary_on_stderr(capsys):
    assert main(["construct", "steiner-848"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("#fpa v1\n")
    assert "FPA(n=8, m=2, lambda=4, d=4, size=14)" in captured.err


def test_one_based_is_display_only(tmp_path, capsys):
    assert main(["construct", "steiner-848", "--one-based"]) == 0
    captured = capsys.readouterr()
    assert "\n2 1 2 2 1 1 1 2\n" in captured.out
    out = tmp_path / "s.fpa"
    assert main(["construct", "steiner-848", "--one-based", "-o", str(out)]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def _write_steiner(tmp_path):
    out = tmp_path / "s.fpa"
    assert main(["construct", "steiner-848", "-o", str(out)]) == 0
    return out


def test_verify_accepts_a_good_file(tmp_path, capsys):
    out = _write_steiner(tmp_path)
    assert main(["verify", str(out), "--expect-d", "4", "--expect-size", "14"]) == 0
    stdout = capsys.readouterr().out
    assert "valid: true" in stdout
    assert "size: 14" in stdout
    assert "actual_min_distance: 4" in stdout
    assert "equidistant: false" in stdout
    assert "pair_profile: none" in stdout


def test_verify_reports_profile_of_an_equidistant_array(tmp_path, capsys):
    out = tmp_path / "a.fpa"
    assert main(["construct", "oa", "--q", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "equidistant: true" in stdout
    assert "pair_profile: (0,0)=1 (0,1)=1" in stdout


def test_verify_expectation_mismatch_fails(tmp_path, capsys):
    out = _write_steiner(tmp_path)
    assert main(["verify", str(out), "--expect-d", "5"]) == 1
    stdout = capsys.readouterr().out
    assert "reason: expected min distance 5, measured 4" in stdout


def test_verify_catches_an_overclaimed_distance(tmp_path, capsys):
    rows = fpa_steiner_848().rows
    bogus = FrequencyPermutationArray(2, 4, rows, 5)
    path = tmp_path / "bogus.fpa"
    path.write_text(write_fpa(bogus))
    assert main(["verify", str(path)]) == 1
    stdout = capsys.readouterr().out
    assert "valid: false" in stdout
    assert "reason: minimum distance 4 below claim 5" in stdout


@pytest.mark.parametrize(
    "mutation",
    [
        lambda text: text.replace("#fpa v1", "#fpa v2"),
        lambda text: text.replace("size=14", "size=13"),
        lambda text: text.replace("n=8", "n=8 n=8"),
        lambda text: text.replace("n=8", "n=8 colour=3"),
        lambda text: text.replace("1 0 1 1 0 0 0 1", "1 0 1 1 0 0 0 0"),
    ],
)
def test_corrupt_files_exit_two(tmp_path, capsys, mutation):
    out = _write_steiner(tmp_path)
    capsys.readouterr()
    out.write_text(mutation(out.read_text()))
    assert main(["verify", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the three routes to one array, via files


def test_triple_agreement_byte_for_byte(tmp_path, capsys):
    oa_file = tmp_path / "oa.fpa"
    ard_file = tmp_path / "ard.fpa"
    mds_file = tmp_path / "mds.fpa"
    gen = tmp_path / "g.txt"
    gen.write_text("# generator rows\n1 0 1 2\n0 1 1 1\n")

    assert main(["construct", "oa", "--q", "3", "-o", str(oa_file)]) == 0
    assert main(["construct", "ard", "--q", "3", "-o", str(ard_file)]) == 0
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen), "-o", str(mds_file)]) == 0

    data = oa_file.read_text()
    assert data == ard_file.read_text() == mds_file.read_text()
    assert "n=9 lambda=3 m=3 d=6 size=4" in data
    summaries = capsys.readouterr().out
    assert summaries.count("FPA(n=9, m=3, lambda=3, d=6, size=4)") == 3


def test_rs_convenience_generator_is_also_valid(tmp_path, capsys):
    out = tmp_path / "rs.fpa"
    assert main(["construct", "mds", "--q", "3", "--k", "2", "--n", "4", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "FPA(n=9, m=3, lambda=3, d=6, size=4)\n"
    assert main(["verify", str(out), "--expect-d", "6"]) == 0


def test_mds_requires_exactly_one_source(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    gen.write_text("1 0 1 2\n0 1 1 1\n")
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen), "--k", "2"]) == 2
    assert main(["construct", "mds", "--q", "3"]) == 2


@pytest.mark.parametrize("entry", ["-1", "3", "7"])
def test_mds_rejects_generator_entries_outside_the_field(tmp_path, capsys, entry):
    gen = tmp_path / "g.txt"
    gen.write_text(f"1 0 1 2\n0 1 {entry} 1\n")
    out = tmp_path / "mds.fpa"
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: field element {entry} outside 0..2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_oa_ingredient_roundtrip(tmp_path):
    a = tmp_path / "a.fpa"
    b = tmp_path / "b.fpa"
    c = tmp_path / "c.fpa"
    oa_txt = tmp_path / "oa.txt"
    sq_txt = tmp_path / "sq.txt"

    assert main(["construct", "oa", "--q", "3", "--ingredient-out", str(oa_txt), "-o", str(a)]) == 0
    assert oa_txt.read_text().startswith("#ing v1 oa\nv=9 r=4 s=3 t=2\n")
    assert main(["construct", "oa", "--oa", str(oa_txt), "-o", str(b)]) == 0
    assert main(["construct", "mols", "--q", "3", "-o", str(sq_txt)]) == 0
    assert main(["construct", "oa", "--squares", str(sq_txt), "-o", str(c)]) == 0
    assert a.read_text() == b.read_text() == c.read_text()

    assert main(["construct", "oa", "--q", "3", "--squares", str(sq_txt)]) == 2
    assert main(["construct", "oa"]) == 2


@pytest.mark.parametrize(
    "argv, kind, header, edited, message",
    [
        (["construct", "fpa-from-mofs"], "fsq", "n=3 m=3 lambda=1", "n=4 m=3 lambda=1",
         "inconsistent parameters n=4 lambda=1 m=3"),
        (["construct", "oa"], "fsq", "n=3 m=3 lambda=1", "n=3 m=3 lambda=3",
         "inconsistent parameters n=3 lambda=3 m=3"),
        (["construct", "oa"], "oa", "r=4", "r=5", "header says r=5, found 4 rows"),
        (["construct", "oa"], "oa", "r=4", "r=3", "header says r=3, found 4 rows"),
        (["construct", "oa"], "oa", "t=2", "t=3", "only strength 2 is supported"),
    ],
)
def test_header_that_disagrees_with_its_body_exits_two(
    tmp_path, capsys, argv, kind, header, edited, message
):
    text = _KIND_FILES[kind]()
    assert header in text.splitlines()[1]
    ingredient = tmp_path / "ingredient.txt"
    ingredient.write_text(text.replace(header, edited, 1))
    out = tmp_path / "a.fpa"
    flag = "--squares" if kind == "fsq" else "--oa"
    assert main([*argv, flag, str(ingredient), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_hadamard_header_that_disagrees_with_its_body_is_refused():
    # no command reads a Hadamard file, so the parser answers for the CLI
    text = write_hadamard(hadamard_matrix(4))
    for n, found in (("n=8", "header says n=8, found 4 rows"), ("n=2", "header says n=2, found 4 rows")):
        with pytest.raises(FormatError) as info:
            parse_hadamard(text.replace("n=4", n, 1))
        assert str(info.value) == found


@pytest.mark.parametrize(
    "method, text, message",
    [
        ("oa", "#ing v1 oa\nv=4 r=2 s=0 t=2\n0 0 0 0\n0 0 0 0\n", "need s >= 1"),
        ("ard", "#ing v1 ard\nv=0 k=1 classes=0\n", "need v >= 1 points"),
    ],
)
def test_ingredient_with_nothing_to_count_exits_two(tmp_path, capsys, method, text, message):
    # both headers used to die with a ZeroDivisionError traceback and exit 1
    ingredient = tmp_path / "ingredient.txt"
    ingredient.write_text(text)
    out = tmp_path / "a.fpa"
    flag = "--oa" if method == "oa" else "--design"
    assert main(["construct", method, flag, str(ingredient), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# remaining construct methods


def test_linearized_summaries(tmp_path, capsys):
    f = tmp_path / "x.fpa"
    assert main(
        ["construct", "linearized", "--q", "3", "--i", "2", "--kind", "trace",
         "--h", "1", "--d", "1", "-o", str(f)]
    ) == 0
    assert capsys.readouterr().out == "FPA(n=9, m=3, lambda=3, d=6, size=24)\n"

    assert main(
        ["construct", "linearized", "--q", "2", "--i", "4", "--kind", "subfield",
         "--subfield-n", "2", "--d", "1", "-o", str(f)]
    ) == 0
    assert capsys.readouterr().out == "FPA(n=16, m=4, lambda=4, d=12, size=60)\n"

    assert main(
        ["construct", "linearized", "--q", "2", "--i", "2", "--kind", "monomial",
         "--d", "1", "-o", str(f)]
    ) == 0
    assert capsys.readouterr().out == "FPA(n=4, m=4, lambda=1, d=2, size=12)\n"

    assert main(
        ["construct", "linearized", "--q", "2", "--i", "4", "--kind", "subfield",
         "--d", "1"]
    ) == 2
    assert main(
        ["construct", "linearized", "--q", "3", "--i", "2", "--kind", "trace",
         "--h", "1", "--d", "3"]
    ) == 2


def test_hadamard_modes(tmp_path, capsys):
    assert main(["construct", "hadamard", "--order", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("#ing v1 had\nn=12\n")
    assert "HAD(n=12)" in captured.err

    f = tmp_path / "h.fpa"
    assert main(["construct", "hadamard", "--order", "12", "--to-fpa", "-o", str(f)]) == 0
    assert capsys.readouterr().out == "FPA(n=12, m=2, lambda=6, d=6, size=22)\n"
    assert main(["construct", "hadamard", "--order", "6"]) == 2


def test_hadamard_one_based_needs_the_array(tmp_path, capsys):
    # the flag shifts array symbols; a matrix file or listing has none
    out = tmp_path / "h.txt"
    for tail in ([], ["-o", str(out)]):
        assert main(["construct", "hadamard", "--order", "4", "--one-based", *tail]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --one-based is a display flag for arrays; it needs --to-fpa\n"
    assert not out.exists()
    assert main(["construct", "hadamard", "--order", "4", "--to-fpa", "--one-based"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "1 2 1 2"


def _refused_without_output(argv, message, out, capsys):
    """argv, alone and with -o out, exits 2 with the one error line and no file."""
    for tail in ([], ["-o", str(out)]):
        assert main([*argv, *tail]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def _stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_mds_length_needs_the_reed_solomon_route(tmp_path, capsys):
    # --n sets the Reed-Solomon length; a generator file fixes its own
    gen = tmp_path / "g.txt"
    gen.write_text("1 1 1\n0 1 2\n")
    base = ["construct", "mds", "--q", "3", "--gen", str(gen)]
    _refused_without_output(
        [*base, "--n", "3"], "--n is a Reed-Solomon length; it needs --k", tmp_path / "f", capsys
    )
    assert _stdout_of(base, capsys) == _stdout_of(
        ["construct", "mds", "--q", "3", "--k", "2", "--n", "3"], capsys
    )


def test_linearized_subfield_degree_needs_the_subfield_kind(tmp_path, capsys):
    base = ["construct", "linearized", "--q", "2", "--i", "4", "--d", "2"]
    for kind in ([], ["--kind", "trace"], ["--kind", "monomial"]):
        _refused_without_output(
            [*base, *kind, "--subfield-n", "2"],
            "--subfield-n is a subfield degree; it needs --kind subfield", tmp_path / "f", capsys,
        )
    subfield = _stdout_of([*base, "--kind", "subfield", "--subfield-n", "2"], capsys)
    assert subfield.startswith("#fpa v1\nn=16 lambda=4 m=4 d=8 size=120\n")


def test_linearized_trace_step_needs_the_trace_kind(tmp_path, capsys):
    base = ["construct", "linearized", "--q", "3", "--i", "2", "--d", "1"]
    for kind in (["--kind", "subfield", "--subfield-n", "1"], ["--kind", "monomial"]):
        _refused_without_output(
            [*base, *kind, "--h", "1"], "--h is a trace step; it needs --kind trace",
            tmp_path / "f", capsys,
        )
    # the trace kind is the default, and --h 1 is its default step
    trace = _stdout_of(base, capsys)
    for given in (["--h", "1"], ["--kind", "trace"], ["--kind", "trace", "--h", "1"]):
        assert _stdout_of([*base, *given], capsys) == trace


def test_mofs_pipeline(tmp_path, capsys):
    sq = tmp_path / "sq.txt"
    f = tmp_path / "f.fpa"
    assert main(["construct", "mofs", "--q", "2", "--i", "2", "-o", str(sq)]) == 0
    assert capsys.readouterr().out == "FSQ(n=4, m=2, lambda=2, count=9)\n"
    assert main(["construct", "fpa-from-mofs", "--squares", str(sq), "-o", str(f)]) == 0
    assert capsys.readouterr().out == "FPA(n=8, m=4, lambda=2, d=4, size=18)\n"


# ---------------------------------------------------------------------------
# transform


def test_split_transforms_match_the_size_ladder(tmp_path, capsys):
    h = tmp_path / "h.fpa"
    r = tmp_path / "r.fpa"
    p = tmp_path / "p.fpa"
    assert main(["construct", "hadamard", "--order", "12", "--to-fpa", "-o", str(h)]) == 0
    assert main(["transform", "refine", str(h), "--l", "3", "-o", str(r)]) == 0
    assert main(["transform", "expand-to-pa", str(r), "-o", str(p)]) == 0
    out = capsys.readouterr().out
    assert "FPA(n=12, m=4, lambda=3, d=6, size=44)" in out
    assert "FPA(n=12, m=12, lambda=1, d=6, size=132)" in out
    assert main(["verify", str(p), "--expect-size", "132"]) == 0


def test_reduce_mod_transform(tmp_path, capsys):
    a = tmp_path / "a.fpa"
    b = tmp_path / "b.fpa"
    assert main(["construct", "oa", "--q", "4", "-o", str(a)]) == 0
    assert main(["transform", "reduce-mod", str(a), "--r", "2", "-o", str(b)]) == 0
    out = capsys.readouterr().out
    assert "FPA(n=16, m=2, lambda=8, d=8, size=5)" in out
    assert main(["transform", "reduce-mod", str(a)]) == 2  # missing --r
    assert main(["transform", "refine", str(a)]) == 2  # missing --l


def test_pad_juxtapose_product_compose(tmp_path, capsys):
    base = tmp_path / "base.fpa"
    assert main(["construct", "oa", "--q", "3", "-o", str(base)]) == 0

    assert main(["transform", "pad", str(base)]) == 0
    assert main(["transform", "juxtapose", str(base), str(base)]) == 0
    assert main(["transform", "product", str(base), str(base)]) == 0
    err_before = capsys.readouterr().err
    assert "FPA(n=12, m=4, lambda=3, d=6, size=4)" in err_before
    assert "FPA(n=18, m=3, lambda=6, d=12, size=4)" in err_before
    assert "FPA(n=18, m=6, lambda=3, d=6, size=16)" in err_before
    assert main(["transform", "juxtapose", str(base)]) == 2  # arity

    ing = tmp_path / "ing.fpa"
    coarse = tmp_path / "coarse.fpa"
    ing.write_text(write_fpa(canonical_max_distance_fpa(2, 2)))
    coarse.write_text(write_fpa(canonical_max_distance_fpa(3, 4)))
    assert main(
        ["transform", "compose", str(ing), str(ing), str(ing), "--c", str(coarse)]
    ) == 0
    assert "FPA(n=12, m=6, lambda=2, d=12, size=6)" in capsys.readouterr().err
    assert main(["transform", "compose", str(ing)]) == 2  # missing --c


def test_sep_product_transform(tmp_path, capsys):
    sep = separable_from_mols(mols_from_field(4))
    stacked = tmp_path / "классы.fpa"
    stacked.write_text(write_fpa(sep.array))

    out = tmp_path / "prod.fpa"
    assert main(
        ["transform", "sep-product", str(stacked), str(stacked),
         "--classes", "3", "-o", str(out)]
    ) == 0
    assert capsys.readouterr().out == "FPA(n=8, m=4, lambda=2, d=4, size=48)\n"
    assert main(["verify", str(out), "--expect-size", "48", "--expect-d", "4"]) == 0
    assert main(["transform", "sep-product", str(stacked)]) == 2  # missing --classes


def test_sep_product_refuses_an_input_whose_header_overstates_d(tmp_path, capsys):
    # the order-4 MOLS rows are at distance 3; this header claims 4
    text = write_fpa(separable_from_mols(mols_from_field(4)).array)
    assert "n=4 lambda=1 m=4 d=3 size=12\n" in text
    over = tmp_path / "over.fpa"
    over.write_text(text.replace(" d=3 ", " d=4 "))
    out = tmp_path / "prod.fpa"
    argv = ["transform", "sep-product", str(over), str(over), "--classes", "3", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: class union fails at d=4: ('minimum distance 3 below claim 4',)\n"
    )
    assert not out.exists()
    # an understated header is replaced by the measured distance, as before
    under = tmp_path / "under.fpa"
    under.write_text(text.replace(" d=3 ", " d=1 "))
    argv[2:4] = [str(under), str(under)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "FPA(n=8, m=4, lambda=2, d=4, size=48)\n"


# ---------------------------------------------------------------------------
# bounds and search


def test_bounds_table_and_machine_line(capsys):
    assert main(["bounds", "--n", "4", "--lambda", "2", "--d", "3", "--exact", "--machine"]) == 0
    stdout = capsys.readouterr().out
    assert "parameters     n=4 m=2 lambda=2 d=3" in stdout
    assert "total          6" in stdout
    assert "exact          2 (proven)" in stdout
    assert stdout.rstrip().endswith("gv=2 hamming=6 plotkin=3 trivial=6 exact=2")


def test_bounds_without_search_reports_unknown(capsys):
    assert main(["bounds", "--n", "6", "--lambda", "3", "--d", "4", "--machine"]) == 0
    stdout = capsys.readouterr().out
    assert "exact          unknown" in stdout
    assert stdout.rstrip().endswith("gv=2 hamming=20 plotkin=4 trivial=40 exact=?")


def test_bounds_small_distance_is_exact_without_search(capsys):
    assert main(["bounds", "--n", "10", "--lambda", "5", "--d", "2", "--machine"]) == 0
    stdout = capsys.readouterr().out
    assert "exact          252 (proven)" in stdout
    assert "plotkin=NA" in stdout
    assert "exact=252" in stdout


def test_bounds_rejects_bad_parameters(capsys):
    assert main(["bounds", "--n", "6", "--lambda", "4", "--d", "3"]) == 2
    assert main(["bounds", "--n", "6", "--lambda", "3", "--d", "7"]) == 2


def test_search_with_witness(tmp_path, capsys):
    w = tmp_path / "w.fpa"
    assert main(["search", "--n", "6", "--lambda", "3", "--d", "4", "-o", str(w)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "M(n=6, lambda=3, d=4) = 4 (proven)"
    assert "FPA(n=6, m=2, lambda=3, d=4, size=4)" in stdout
    array = parse_fpa(w.read_text())
    assert verify(array).valid and array.size == 4


def test_search_reports_incomplete_runs(capsys):
    assert main(["search", "--n", "6", "--lambda", "1", "--d", "5", "--budget", "50"]) == 0
    assert "(search incomplete)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["search", "bounds"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget", "-1", "node_budget must be >= 0, got -1"),
        ("--vertex-budget", "-5", "vertex_budget must be >= 0, got -5"),
    ],
)
def test_negative_budgets_exit_two(capsys, command, flag, value, message):
    argv = [command, "--n", "6", "--lambda", "1", "--d", "5", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_search_vertex_budget_exit(capsys):
    assert main(["search", "--n", "8", "--lambda", "2", "--d", "4"]) == 2
    assert "work limit exceeded" in capsys.readouterr().err


def test_search_adjacency_limit_exit(capsys):
    # 40 320 words pass this vertex budget, but their adjacency does not fit
    argv = ["search", "--n", "8", "--lambda", "1", "--d", "8", "--vertex-budget", "100000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: work limit exceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "mols", "--q", "2305843009213693951"],
        ["construct", "mofs", "--q", "3", "--i", "1000000"],
        ["construct", "linearized", "--q", "2", "--i", "100000000", "--d", "1"],
        ["search", "--n", "2000", "--lambda", "1", "--d", "3"],
    ],
)
def test_huge_parameters_are_refused_by_name(capsys, argv):
    # each used to run for minutes or fail while printing a huge integer
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Exceeds the limit" not in err


def test_mols_cell_budget_refuses_before_any_field_work(capsys, monkeypatch):
    # GF(997) has 994 009 forms, under the budget, but about 10^9 cells
    def no_field(q):
        raise AssertionError(f"GF({q}) built before the refusal")

    monkeypatch.setattr("fparray.constructions.field_of_order", no_field)
    assert main(["construct", "mols", "--q", "997"]) == 2
    assert capsys.readouterr().err == (
        "error: work limit exceeded: 990032964 cells exceed max_work 1000000\n"
    )


def test_mds_generator_with_many_rows_is_refused_before_any_array(tmp_path, capsys, monkeypatch):
    # 3^20000 cells: a number too long to print, so it must not be computed
    def no_array(field, coeffs):
        raise AssertionError("rows built before the refusal")

    monkeypatch.setattr("fparray.constructions._linear_forms", no_array)
    gen = tmp_path / "g.txt"
    gen.write_text("1 2\n" * 20_000)
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen)]) == 2
    assert capsys.readouterr() == (
        "", "error: work limit exceeded: rows of 3^20000 cells exceed max_work 4194304\n"
    )


def test_product_over_the_cell_limit_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    # the order-64 array with itself: 15 876 rows of 128 symbols
    def no_rows(*args):
        raise AssertionError("rows built before the refusal")

    h64 = tmp_path / "h64.fpa"
    h64.write_text(write_fpa(fpa_from_hadamard(hadamard_matrix(64))))
    monkeypatch.setattr(combinators, "_concatenations", no_rows)
    assert main(["transform", "product", str(h64), str(h64)]) == 2
    assert capsys.readouterr() == ("", (
        "error: work limit exceeded: direct product of 126 x 126 rows of 128 symbols "
        "is 2032128 cells, over the limit of 1048576\n"
    ))


def test_class_product_over_the_cell_limit_is_refused_before_any_row(
    tmp_path, capsys, monkeypatch
):
    # one class each: the same 15 876 rows of 128 symbols as the direct product
    def no_rows(*args):
        raise AssertionError("rows built before the refusal")

    h64 = tmp_path / "h64.fpa"
    h64.write_text(write_fpa(fpa_from_hadamard(hadamard_matrix(64))))
    monkeypatch.setattr(combinators, "_concatenations", no_rows)
    assert main(["transform", "sep-product", str(h64), str(h64), "--classes", "1"]) == 2
    assert capsys.readouterr() == ("", (
        "error: work limit exceeded: class product of 15876 rows of 128 symbols "
        "is 2032128 cells, over the limit of 1048576\n"
    ))


@pytest.mark.parametrize(
    "copies,classes,rows,width",
    [(2, "1", 15876, 128), (3, "2", 500094, 192)],
    ids=["one class", "three inputs"],
)
def test_class_product_over_the_cell_limit_is_refused_before_any_split(
    tmp_path, capsys, monkeypatch, copies, classes, rows, width
):
    # the row count follows from the sizes and --classes: no input is split
    def no_split(*args):
        raise AssertionError("input split before the refusal")

    h64 = tmp_path / "h64.fpa"
    h64.write_text(write_fpa(fpa_from_hadamard(hadamard_matrix(64))))
    monkeypatch.setattr(combinators.SeparableArray, "from_fpa", no_split)
    argv = ["transform", "sep-product", *[str(h64)] * copies, "--classes", classes]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: work limit exceeded: class product of {rows} rows of {width} symbols "
        f"is {rows * width} cells, over the limit of 1048576\n"
    ))


def test_design_is_checked_before_its_block_index_is_allocated(tmp_path, capsys):
    # v = 2^40 points: the block index would be 8 TiB
    design = tmp_path / "big.ing"
    design.write_text("#ing v1 ard\nv=1099511627776 k=1 classes=1\n\n0\n")
    assert main(["construct", "ard", "--design", str(design)]) == 2
    assert capsys.readouterr() == (
        "", "error: class 0 has 1 blocks, expected 1099511627776\n"
    )


def test_failed_self_check_exits_three(tmp_path, capsys, monkeypatch):
    # A broken value table fails the row dedup self-check.  All zeros read
    # as a kernel of all 9 elements, so the 72 permutation polynomials of
    # degree 1 over GF(9) should give 8 distinct rows, not 1; no zero at
    # all is no kernel, which must fail the check, not divide by zero.
    out = tmp_path / "l"
    argv = ["construct", "linearized", "--q", "3", "--i", "2", "--d", "1", "-o", str(out)]
    for fill, kernel in [(0, 9), (1, 0)]:
        table = np.full(9, fill, dtype=np.int32)
        monkeypatch.setattr(LinearizedPolynomial, "value_table", lambda self, t=table: t)
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", f"internal error: row dedup gave 1 rows of 72, kernel size {kernel}\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("exc", [RecursionError("too deep"), MemoryError()])
def test_resource_failures_exit_three(capsys, monkeypatch, exc):
    def fail(q):
        raise exc

    monkeypatch.setattr(cli, "mols_from_field", fail)
    assert main(["construct", "mols", "--q", "5"]) == 3
    err = capsys.readouterr().err
    # a MemoryError() carries no message, so its type names it
    if isinstance(exc, MemoryError):
        assert err == "internal error: MemoryError\n"
    else:
        assert err == "internal error: too deep\n"
    assert "Traceback" not in err


def test_stage_log_is_silent_by_default_and_leaves_output_alone(tmp_path, capsys, caplog):
    argv = ["construct", "steiner-848", "-o", str(tmp_path / "s.fpa")]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == "" and not caplog.records
    with caplog.at_level(logging.DEBUG, logger="fparray"):
        assert main(argv) == 0
    assert capsys.readouterr() == quiet
    stages = [r.getMessage().rsplit(" ", 2)[0] for r in caplog.records]
    assert stages == [
        "construct steiner-848: build",
        "construct steiner-848: verify",
        "construct steiner-848: write",
    ]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fparray"):
        assert main(["verify", str(tmp_path / "s.fpa")]) == 0
    capsys.readouterr()
    stages = [r.getMessage().rsplit(" ", 2)[0] for r in caplog.records]
    assert stages == ["verify: parse", "verify: verify", "verify: profile"]


@pytest.mark.parametrize(
    "argv",
    [["oa", "--q", "7"], ["ard", "--q", "5"], ["mds", "--q", "4", "--k", "2", "--n", "5"]],
    ids=" ".join,
)
def test_building_never_computes_a_pair_profile(tmp_path, capsys, argv):
    # each of these arrays has a pair profile that verify used to compute
    out = tmp_path / "a.fpa"
    assert main(["construct", *argv, "-o", str(out)]) == 0
    want = out.read_bytes()
    out.unlink()
    fail = mock.Mock(side_effect=AssertionError("profiled"))
    with mock.patch.object(core, "_pair_profile", fail):
        assert main(["construct", *argv, "-o", str(out)]) == 0
    assert out.read_bytes() == want
    assert not fail.called


# ---------------------------------------------------------------------------
# the parser surface: help, usage errors, and what a call builds

COMMANDS = ["construct", "transform", "verify", "bounds", "search"]
METHODS = [
    "mols", "mofs", "fpa-from-mofs", "linearized", "oa", "ard", "mds", "hadamard", "steiner-848",
]
FLAGS = [
    "-h", "-o", "--out", "--one-based", "--q", "--i", "--squares", "--kind", "--h",
    "--subfield-n", "--d", "--oa", "--ingredient-out", "--design", "--gen", "--k", "--n",
    "--order", "--to-fpa", "--l", "--r", "--c", "--classes", "--expect-d", "--expect-size",
    "--lambda", "--exact", "--budget", "--vertex-budget", "--machine",
]
OPS = ["pad", "juxtapose", "expand-to-pa", "refine", "reduce-mod", "compose", "product", "sep-product"]


@pytest.mark.parametrize(
    "argv",
    [["-h"]] + [[c, "-h"] for c in COMMANDS] + [["construct", m, "-h"] for m in METHODS],
    ids=" ".join,
)
def test_every_help_exits_zero_after_its_usage_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: " + " ".join(["fparray", *argv[:-1], "[-h]"]))
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        (
            [],
            "usage: fparray [-h] {construct,transform,verify,bounds,search} ...",
            "fparray: error: the following arguments are required: command",
        ),
        (
            ["bogus"],
            "usage: fparray [-h] {construct,transform,verify,bounds,search} ...",
            "fparray: error: argument command: invalid choice: 'bogus' (choose from "
            "'construct', 'transform', 'verify', 'bounds', 'search')",
        ),
        (
            ["construct"],
            "usage: fparray construct [-h] "
            "{mols,mofs,fpa-from-mofs,linearized,oa,ard,mds,hadamard,steiner-848} ...",
            "fparray construct: error: the following arguments are required: method",
        ),
    ],
)
def test_usage_errors_exit_two_with_usage_and_error_lines(capsys, monkeypatch, argv, usage, error):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no usage line wraps
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{usage}\n{error}\n")


def test_a_call_builds_only_the_parsers_it_needs(capsys, monkeypatch):
    # the top-level parser with the command names, then search's own parser
    progs, options = [], []
    init, add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        options.append(args[0])
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add)
    assert main(["search", "--n", "4", "--lambda", "2", "--d", "3"]) == 0
    assert progs == ["fparray", "fparray search"]
    assert options == ["-h", "-h", "--n", "--lambda", "--d", "--budget", "--vertex-budget", "-o"]
    assert capsys.readouterr().out == "M(n=4, lambda=2, d=3) = 2 (proven)\n"


_ARGV_TOKENS = COMMANDS + METHODS + FLAGS + OPS + [
    "trace", "subfield", "monomial", "bogus", "--bogus", "-", "--", "-1", "0", "1", "2", "3", "x", "",
]
# one call per command and method that runs to its handler; the file "1" is
# an array, so fpa-from-mofs fails on reading it, after parsing
_RUNNING_ARGV = [
    "construct mols --q 3", "construct mofs --q 2 --i 1", "construct fpa-from-mofs --squares 1",
    "construct linearized --q 2 --i 2 --d 1", "construct oa --q 3", "construct ard --q 3",
    "construct mds --q 3 --k 2", "construct hadamard --order 2", "construct steiner-848",
    "transform pad 1", "verify 1", "bounds --n 3 --lambda 1 --d 2", "search --n 3 --lambda 1 --d 2",
]
_ARGV_HEADS = (
    [[]] + [[c] for c in COMMANDS] + [["construct", m] for m in METHODS]
    + [a.split() for a in _RUNNING_ARGV]
)


@settings(max_examples=300, deadline=None)
@given(head=st.sampled_from(_ARGV_HEADS), tail=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
def test_argv_fuzz_exits_with_a_contract_code(head, tail):
    # each example runs in its own directory, holding one small array as "1"
    # and "x", so -o writes and transform/verify reads stay inside it; after
    # a success every array file there must read back as a valid array
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name in ("1", "x"):
            Path(work, name).write_text(write_fpa(fpa_steiner_848()))
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(head + tail)
                except SystemExit as exc:
                    assert exc.code in (0, 2)
                    code = exc.code
                else:
                    assert code in (0, 1, 2, 3)
        finally:
            os.chdir(here)
        if code == 0:
            for path in Path(work).iterdir():
                text = path.read_text() if path.is_file() else ""
                if text.startswith("#fpa v1"):
                    assert verify(parse_fpa(text)).valid, path.name


# one small valid file per ingredient route: (argv, with F for the file, text)
_INGREDIENT_SEEDS = [
    ("construct fpa-from-mofs --squares F", write_squares(mols_from_field(3))),
    ("construct fpa-from-mofs --squares F", write_squares(mofs_complete(2, 2))),
    ("construct oa --squares F", write_squares(mols_from_field(3))),
    ("construct oa --oa F", write_oa(oa_from_mols(mols_from_field(3)))),
    ("construct ard --design F", write_design(affine_classes_from_mols(mols_from_field(3)))),
    ("construct mds --q 3 --gen F", "# generator rows\n\n1 0 1 2\n0 1 1 1\n"),
]
_FILE_TOKENS = st.one_of(
    st.integers(-2, 10).map(str),
    st.sampled_from(["", "x", "#", "1.5", "+1", "01", "1_0", "٣", str(2**70)]),
)
# (kind, line, word, token): replace one word (a key=value word keeps its
# key), drop or repeat a line, or insert the token as a line of its own
_FILE_EDITS = st.tuples(
    st.sampled_from(["word", "drop", "repeat", "insert"]),
    st.integers(0, 40),
    st.integers(0, 20),
    _FILE_TOKENS,
)


def _edit_file(text, edits):
    lines = text.split("\n")
    for kind, i, j, token in edits:
        i %= len(lines)
        if kind == "word":
            words = lines[i].split(" ")
            key = words[j % len(words)].partition("=")
            words[j % len(words)] = key[0] + "=" + token if key[1] else token
            lines[i] = " ".join(words)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, token)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(_INGREDIENT_SEEDS), edits=st.lists(_FILE_EDITS, max_size=4))
def test_ingredient_file_fuzz_exits_with_a_contract_code(seed, edits):
    # an edited squares, OA, design or generator file exits 0-3 with
    # one-line errors, and what an exit 0 writes reads back as a valid array
    argv, text = seed
    with tempfile.TemporaryDirectory() as work:
        source, out = Path(work, "in.txt"), Path(work, "out.fpa")
        source.write_text(_edit_file(text, edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv.replace("F", str(source)).split() + ["-o", str(out)])
        assert code in (0, 1, 2, 3)
        prefixes = ("error: ", "internal error: ", "verification failed: ")
        assert all(line.startswith(prefixes) for line in err.getvalue().splitlines())
        assert (code == 0) == out.exists()
        if code == 0:
            assert verify(parse_fpa(out.read_text())).valid


# ---------------------------------------------------------------------------
# on-disk format round trips (library level)


def test_fpa_format_roundtrip():
    array = fpa_steiner_848()
    text = write_fpa(array)
    back = parse_fpa(text)
    assert back.rows.tolist() == array.rows.tolist()
    assert (back.n, back.m, back.lam, back.min_distance_claim) == (8, 2, 4, 4)
    assert write_fpa(back) == text


@pytest.mark.parametrize("offset", [0, 1, -2])
def test_fpa_writer_matches_per_symbol_labels(offset):
    # rows, composed or not, print each symbol plus the offset, from the
    # bulk writer's label table or row by row; a row with a symbol outside
    # 0..m-1 (negative ones included) is refused when the array is built
    rows = [(0, 1, 2, 2, 1, 0), (2, 2, 1, 1, 0, 0), (0, 0, 0, 2, 2, 2), (1, 1, 1, 1, 1, 1)]
    array = FrequencyPermutationArray(3, 2, rows, 1)
    for bulk_cells in (0, 1 << 8):
        with mock.patch.object(formats, "_BULK_CELLS", bulk_cells):
            lines = write_fpa(array, offset).splitlines()
        assert lines[2:] == [" ".join(str(s + offset) for s in row) for row in rows]
        assert lines[:2] == ["#fpa v1", "n=6 lambda=2 m=3 d=1 size=4"]
    for bad in [(0, -1, 2, 2, 1, 0), (-3, 1, 2, 2, 1, 0), (0, 1, 3, 2, 1, 0),
                (7, 1, 2, 2, 1, 2**70)]:
        symbol = next(s for s in bad if not 0 <= s < 3)
        with pytest.raises(ValueError, match=f"^row 4 holds symbol {symbol}, outside 0..2$"):
            FrequencyPermutationArray(3, 2, [*rows, bad], 1)


def _fpa_text_before_bulk_writer(array, offset=0):
    """write_fpa as it was before rows were formatted from the label
    matrix: one row at a time, from a table of m label strings."""
    labels = [str(s + offset) for s in range(array.m)]
    body = [" ".join([labels[s] for s in row]) for row in array.rows]
    header = (f"n={array.n} lambda={array.lam} m={array.m} "
              f"d={array.min_distance_claim} size={array.size}")
    return "\n".join(["#fpa v1", header, *body]) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fpa_writer_matches_the_row_by_row_writer(data):
    m = data.draw(st.integers(1, 12), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    base = [s for s in range(m) for _ in range(lam)]
    rows = data.draw(st.lists(st.permutations(base), max_size=8), label="rows")
    offset = data.draw(st.sampled_from([0, 1, -2]), label="offset")
    line_bytes = data.draw(st.sampled_from([1, 7, 64, 1 << 16]), label="line_bytes")
    bulk_cells = data.draw(st.sampled_from([0, 1 << 8]), label="bulk_cells")
    array = FrequencyPermutationArray(m, lam, rows, 1)
    text = _fpa_text_before_bulk_writer(array)
    with mock.patch.object(formats, "_LINE_BYTES", line_bytes), \
            mock.patch.object(formats, "_BULK_CELLS", bulk_cells):
        parsed = parse_fpa(text)
        assert parsed == array
        assert write_fpa(parsed) == text
        assert write_fpa(parsed, offset) == _fpa_text_before_bulk_writer(parsed, offset)
        # rows the parser refuses: not lam-uniform, which the array holds,
        # or out of range, which the array refuses
        loose = data.draw(
            st.lists(st.lists(st.integers(-3, m + 2), min_size=len(base),
                              max_size=len(base)), max_size=4),
            label="loose",
        )
        stray = [(i, s) for i, row in enumerate(loose) for s in row if not 0 <= s < m]
        if stray:
            (i, s), *_ = stray
            with pytest.raises(ValueError, match=f"^row {i} holds symbol {s}, outside 0..{m - 1}$"):
                FrequencyPermutationArray(m, lam, loose, 1)
        odd = FrequencyPermutationArray(m, lam, [[s % m for s in row] for row in loose], 1)
        assert write_fpa(odd, offset) == _fpa_text_before_bulk_writer(odd, offset)
        # or of another length, which the array refuses ahead of any range
        width = data.draw(st.sampled_from([len(base) - 1, len(base) + 1]), label="width")
        with pytest.raises(
            ValueError, match=f"^row {len(loose)} has length {width}, expected {len(base)}$"
        ):
            FrequencyPermutationArray(m, lam, loose + [[0] * width], 1)


def test_fpa_parser_reads_each_token_as_int_does():
    # the row reader converts each token with int itself
    lines = ["0 +1 2 \u0663 4 5 6 7 8 9 1_0", "01 0 2 3 4 5 6 7 8 9 10", "1_0 9 8 7 6 5 4 3 2 +1 00"]
    text = "#fpa v1\nn=11 lambda=1 m=11 d=1 size=3\n" + "".join(ln + "\n" for ln in lines)
    array = parse_fpa(text)
    assert array.rows.tolist() == [[int(tok) for tok in ln.split()] for ln in lines]
    assert array.rows[0].tolist() == list(range(11))
    assert write_fpa(array).splitlines()[2] == "0 1 2 3 4 5 6 7 8 9 10"
    bad = "0 1 2 3 4 5 6 7 8 9 1.5"
    with pytest.raises(FormatError) as info:
        parse_fpa(text.replace(lines[1], bad))
    assert str(info.value) == f"row 1: non-integer entry in {bad!r}"


def test_squares_format_roundtrip():
    squares = mols_from_field(4)
    text = write_squares(squares)
    back = parse_squares(text)
    assert [sq.cells.tolist() for sq in back] == [sq.cells.tolist() for sq in squares]
    assert write_squares(back) == text


def test_oa_format_roundtrip():
    oa = oa_from_mols(mols_from_field(3))
    text = write_oa(oa)
    back = parse_oa(text)
    assert back == oa
    assert write_oa(back) == text


def test_design_format_roundtrip():
    design = affine_classes_from_mols(mols_from_field(3))
    text = write_design(design)
    back = parse_design(text)
    assert back == design
    assert write_design(back) == text


def test_hadamard_format_roundtrip():
    H = hadamard_matrix(8)
    text = write_hadamard(H)
    back = parse_hadamard(text)
    assert back == H
    assert write_hadamard(back) == text


# kind, what to write, the header the writer derives from the rows
_DERIVED_HEADERS = [
    ("fsq", lambda: mols_from_field(5), "n=5 m=5 lambda=1 count=4"),
    ("fsq", lambda: mofs_complete(2, 2), "n=4 m=2 lambda=2 count=9"),
    ("fsq", lambda: mofs_complete(3, 2), "n=9 m=3 lambda=3 count=32"),
    ("oa", lambda: oa_from_mols(mols_from_field(4)), "v=16 r=5 s=4 t=2"),
    ("oa", lambda: oa_from_mols(mols_from_field(5)[:2]), "v=25 r=4 s=5 t=2"),
    ("had", lambda: hadamard_matrix(1), "n=1"),
    ("had", lambda: hadamard_matrix(12), "n=12"),
]
_WRITERS = {"fsq": write_squares, "oa": write_oa, "had": write_hadamard}


@pytest.mark.parametrize("kind, make, header", _DERIVED_HEADERS)
def test_derived_headers_round_trip_byte_for_byte(kind, make, header):
    write, (parse, _) = _WRITERS[kind], _KIND_PARSERS[kind]
    text = write(make())
    assert text.splitlines()[1] == header
    assert write(parse(text)) == text


def test_parsers_reject_mismatched_kinds():
    oa_text = write_oa(oa_from_mols(mols_from_field(3)))
    with pytest.raises(FormatError):
        parse_squares(oa_text)
    with pytest.raises(FormatError):
        parse_fpa(oa_text)


# ---------------------------------------------------------------------------
# one reader, one writer, one output path


@pytest.mark.parametrize(
    "first, error",
    [
        ("#fpa v1", None),
        ("  #fpa v1\t", None),
        ("#fpa v1x", "unsupported array format tag '#fpa v1x'"),
        ("#fpa v1 x", "unsupported array format tag '#fpa v1 x'"),
        ("#fpa v2", "first line must start with '#fpa v1', got '#fpa v2'"),
        ("#ing v1 oa", "first line must start with '#fpa v1', got '#ing v1 oa'"),
    ],
)
def test_array_magic_line_verdicts(first, error):
    text = write_fpa(fpa_steiner_848()).replace("#fpa v1", first, 1)
    if error is None:
        assert parse_fpa(text).rows.tolist() == fpa_steiner_848().rows.tolist()
    else:
        with pytest.raises(FormatError) as info:
            parse_fpa(text)
        assert str(info.value) == error


@pytest.mark.parametrize(
    "first, error",
    [
        ("#ing v1 oa", None),
        ("#ing v1oa", None),
        ("#ing v1   oa", None),
        ("#ing v1 fsq", "expected ingredient kind 'oa', file says 'fsq'"),
        ("#ing v1", "expected ingredient kind 'oa', file says ''"),
        ("#ing v1 oa x", "expected ingredient kind 'oa', file says 'oa x'"),
        ("#ing v2 oa", "first line must start with '#ing v1', got '#ing v2 oa'"),
        ("#fpa v1", "first line must start with '#ing v1', got '#fpa v1'"),
    ],
)
def test_ingredient_magic_line_verdicts(first, error):
    oa = oa_from_mols(mols_from_field(3))
    text = write_oa(oa).replace("#ing v1 oa", first, 1)
    if error is None:
        assert parse_oa(text) == oa
    else:
        with pytest.raises(FormatError) as info:
            parse_oa(text)
        assert str(info.value) == error


_KIND_FILES = {
    "fpa": lambda: write_fpa(fpa_steiner_848()),
    "fsq": lambda: write_squares(mols_from_field(3)),
    "oa": lambda: write_oa(oa_from_mols(mols_from_field(3))),
    "ard": lambda: write_design(affine_classes_from_mols(mols_from_field(3))),
    "had": lambda: write_hadamard(hadamard_matrix(4)),
}
_KIND_PARSERS = {
    "fpa": (parse_fpa, "array"),
    "fsq": (parse_squares, "square"),
    "oa": (parse_oa, "orthogonal-array"),
    "ard": (parse_design, "design"),
    "had": (parse_hadamard, "Hadamard"),
}


@pytest.mark.parametrize("kind", list(_KIND_PARSERS))
@pytest.mark.parametrize("other", list(_KIND_FILES))
def test_each_parser_refuses_other_kinds(kind, other):
    parse, _ = _KIND_PARSERS[kind]
    text = _KIND_FILES[other]()
    if kind == other:
        parse(text)
        return
    if kind == "fpa":
        message = f"first line must start with '#fpa v1', got '#ing v1 {other}'"
    elif other == "fpa":
        message = "first line must start with '#ing v1', got '#fpa v1'"
    else:
        message = f"expected ingredient kind '{kind}', file says '{other}'"
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", list(_KIND_PARSERS))
def test_each_parser_names_its_missing_header(kind):
    parse, name = _KIND_PARSERS[kind]
    first = _KIND_FILES[kind]().splitlines()[0]
    for text in ("", "\n \n", f"{first}\n", f"\n{first}\n\n# a comment\n  \n"):
        with pytest.raises(FormatError) as info:
            parse(text)
        expected = f"missing {name} header line" if text.strip() else "empty file"
        assert str(info.value) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "oa"], "--q, --oa, --squares"),
        (["construct", "oa", "--q", "3", "--oa", "x"], "--q, --oa, --squares"),
        (["construct", "oa", "--oa", "x", "--squares", "y"], "--q, --oa, --squares"),
        (["construct", "ard"], "--q, --design"),
        (["construct", "ard", "--q", "3", "--design", "x"], "--q, --design"),
        (["construct", "mds", "--q", "3"], "--gen, --k"),
    ],
)
def test_exactly_one_source(tmp_path, capsys, argv, message):
    out = tmp_path / "a.fpa"
    assert main(argv + ["-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: give exactly one of {message}\n")
    assert not out.exists()


def test_generator_file_rules(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n   \n  # indented comment\n")
    assert main(["construct", "mds", "--q", "3", "--gen", str(empty)]) == 2
    assert capsys.readouterr() == ("", f"error: no generator rows found in {empty}\n")

    gen = tmp_path / "g.txt"
    gen.write_text("# generator rows\n\n1 0 1 2\n  # between the rows\n0 1 1 1\n\n")
    mds, oa = tmp_path / "mds.fpa", tmp_path / "oa.fpa"
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen), "-o", str(mds)]) == 0
    assert main(["construct", "oa", "--q", "3", "-o", str(oa)]) == 0
    assert mds.read_text() == oa.read_text()

    gen.write_text("1 0 1 2\n0 1 x 1\n")
    assert main(["construct", "mds", "--q", "3", "--gen", str(gen)]) == 2
    assert capsys.readouterr().err.endswith("error: invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["construct", "steiner-848"], "FPA(n=8, m=2, lambda=4, d=4, size=14)"),
        (["transform", "pad", "IN"], "FPA(n=12, m=3, lambda=4, d=4, size=14)"),
        (["construct", "mols", "--q", "3"], "FSQ(n=3, m=3, lambda=1, count=2)"),
        (["construct", "mofs", "--q", "2", "--i", "2"], "FSQ(n=4, m=2, lambda=2, count=9)"),
        (["construct", "hadamard", "--order", "4"], "HAD(n=4)"),
        (
            ["search", "--n", "4", "--lambda", "1", "--d", "3"],
            "FPA(n=4, m=4, lambda=1, d=3, size=12)",
        ),
    ],
)
def test_output_routing(tmp_path, capsys, argv, summary):
    # with -o: text to the file, summary to stdout; without: text to stdout,
    # summary to stderr (a search without -o writes no witness at all)
    source = tmp_path / "in.fpa"
    source.write_text(write_fpa(fpa_steiner_848()))
    argv = [str(source) if a == "IN" else a for a in argv]
    out = tmp_path / "out.txt"
    assert main(argv + ["-o", str(out)]) == 0
    to_file = capsys.readouterr()
    assert to_file.err == ""
    assert to_file.out.endswith(summary + "\n")
    text = out.read_text()
    assert text.startswith("#fpa v1\n" if summary.startswith("FPA") else "#ing v1 ")
    assert main(argv) == 0
    to_stdout = capsys.readouterr()
    if argv[0] == "search":
        assert (to_stdout.out + summary + "\n", to_stdout.err) == (to_file.out, "")
        assert verify(parse_fpa(text)).valid
    else:
        assert (to_stdout.out, to_stdout.err) == (text, summary + "\n")
