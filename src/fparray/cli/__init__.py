"""Command-line front end: construct, transform, verify, bounds, search.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input or parameter error, 3 internal error (a failed self-check, a
recursion or memory failure), reported without a traceback.  Array output
goes to `-o/--out` or standard output; the one-line parameter summary goes
to standard output when a file is written, to standard error otherwise,
so piped output stays machine-readable.  The `fparray` logger reports the
seconds of each stage at debug level and is silent by default.

Each command and each `construct` method answers `-h`.  A call builds
only the parsers it needs: the command names, then the options of the
command (and method) it names, so adding a command does not slow the
others.  No parser outlives its call.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from pathlib import Path
from typing import Sequence

from ..bounds import BoundsReport, bounds_report, exact_max_size
from ..combinators import (
    SeparableArray,
    compose_columns,
    direct_product,
    expand_to_pa,
    juxtapose,
    pad,
    reduce_mod,
    refine,
    sep_product,
)
from ..constructions import (
    affine_classes_from_mols,
    fpa_from_ard,
    fpa_from_hadamard,
    fpa_from_linearized,
    fpa_from_mds,
    fpa_from_mofs,
    fpa_from_oa,
    fpa_steiner_848,
    hadamard_matrix,
    mofs_complete,
    mols_from_field,
    oa_from_mols,
    reed_solomon_generator,
)
from ..core import FrequencyPermutationArray, WorkLimitExceeded, pair_profile, verify
from ..core import _check_cells
from ..gf import (
    field_of_order,
    linearized_monomial,
    linearized_subfield_kernel,
    linearized_trace,
    make_field,
)
from .formats import (
    parse_design,
    parse_fpa,
    parse_generator,
    parse_oa,
    parse_squares,
    write_design,
    write_fpa,
    write_hadamard,
    write_oa,
    write_squares,
)


_log = logging.getLogger("fparray")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fparray",
        description="Construct, transform, verify, and bound frequency permutation arrays.",
    )
    _add_subcommands(parser, "command", _COMMANDS)
    args = parser.parse_args(argv)
    args.lap = _lap_timer(args)
    try:
        return args.func(args)
    except WorkLimitExceeded as exc:  # a RuntimeError, but the input's fault
        print(f"error: work limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, RecursionError, MemoryError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def _lap_timer(args):
    """lap(stage) logs the seconds since the previous lap, or since the start."""
    names = (args.command, getattr(args, "method", None), getattr(args, "op", None))
    command = " ".join(name for name in names if name)
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        _log.debug("%s: %s %.3f s", command, stage, now - last)
        last = now

    return lap


# ---------------------------------------------------------------------------
# shared input and output


def _finish(text: str, summary: str, args) -> int:
    """Write text to -o (summary to stdout) or to stdout (summary to stderr)."""
    if args.out is None:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        Path(args.out).write_text(text)
        print(summary)
    args.lap("write")
    return 0


def _finish_array(array: FrequencyPermutationArray, args) -> int:
    """Verify, write, and summarize a finished array; the caller's result."""
    args.lap("build")
    offset = 1 if getattr(args, "one_based", False) else 0
    if offset and args.out is not None:
        raise ValueError("--one-based is a display flag; it cannot be combined with -o")
    report = verify(array)
    args.lap("verify")
    if not report.valid:
        for reason in report.reasons:
            print(f"verification failed: {reason}", file=sys.stderr)
        return 1
    return _finish(write_fpa(array, offset=offset), array.summary(), args)


def _one_source(args, *names: str) -> str:
    """The one option among names that was given."""
    given = [name for name in names if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of " + ", ".join(f"--{name}" for name in names))
    return given[0]


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# construct


def _finish_squares(squares, args) -> int:
    args.lap("build")
    text = write_squares(squares)  # refuses an empty list
    n, m, lam = squares[0].n, squares[0].m, squares[0].lam
    return _finish(text, f"FSQ(n={n}, m={m}, lambda={lam}, count={len(squares)})", args)


def _cmd_construct_mols(args) -> int:
    return _finish_squares(mols_from_field(args.q), args)


def _cmd_construct_mofs(args) -> int:
    return _finish_squares(mofs_complete(args.q, args.i), args)


def _cmd_construct_fpa_from_mofs(args) -> int:
    squares = parse_squares(Path(args.squares).read_text())
    return _finish_array(fpa_from_mofs(squares), args)


def _cmd_construct_linearized(args) -> int:
    if args.h is not None and args.kind != "trace":
        raise ValueError("--h is a trace step; it needs --kind trace")
    if args.subfield_n is not None and args.kind != "subfield":
        raise ValueError("--subfield-n is a subfield degree; it needs --kind subfield")
    # GF(q^i) as GF(p^(a*i)), so a huge i meets the guardrail before q^i is computed
    base = field_of_order(args.q)
    field = make_field(base.p, base.k * args.i)
    if args.kind == "trace":
        poly = linearized_trace(field, args.q, 1 if args.h is None else args.h)
    elif args.kind == "subfield":
        if args.subfield_n is None:
            raise ValueError("--kind subfield requires --subfield-n")
        poly = linearized_subfield_kernel(field, args.q, args.subfield_n)
    else:
        poly = linearized_monomial(field, args.q)
    return _finish_array(fpa_from_linearized(poly, args.d), args)


def _finish_ingredient(ingredient, write, to_fpa, args) -> int:
    """Write the ingredient to --ingredient-out if given, then its array."""
    if args.ingredient_out is not None:
        Path(args.ingredient_out).write_text(write(ingredient))
    return _finish_array(to_fpa(ingredient), args)


def _cmd_construct_oa(args) -> int:
    source = _one_source(args, "q", "oa", "squares")
    if source == "oa":
        oa = parse_oa(Path(args.oa).read_text())
    elif source == "q":
        oa = oa_from_mols(mols_from_field(args.q))
    else:
        oa = oa_from_mols(parse_squares(Path(args.squares).read_text()))
    return _finish_ingredient(oa, write_oa, fpa_from_oa, args)


def _cmd_construct_ard(args) -> int:
    if _one_source(args, "q", "design") == "design":
        design = parse_design(Path(args.design).read_text())
    else:
        design = affine_classes_from_mols(mols_from_field(args.q))
    return _finish_ingredient(design, write_design, fpa_from_ard, args)


def _cmd_construct_mds(args) -> int:
    if _one_source(args, "gen", "k") == "gen":
        if args.n is not None:
            raise ValueError("--n is a Reed-Solomon length; it needs --k")
        field = field_of_order(args.q)
        generator = parse_generator(Path(args.gen).read_text())
        if not generator:
            raise ValueError(f"no generator rows found in {args.gen}")
    else:
        length = args.n if args.n is not None else args.q
        field, generator = reed_solomon_generator(args.q, args.k, length)
    return _finish_array(fpa_from_mds(field, generator), args)


def _cmd_construct_hadamard(args) -> int:
    if args.one_based and not args.to_fpa:
        raise ValueError("--one-based is a display flag for arrays; it needs --to-fpa")
    matrix = hadamard_matrix(args.order)
    if args.to_fpa:
        return _finish_array(fpa_from_hadamard(matrix), args)
    args.lap("build")
    return _finish(write_hadamard(matrix), f"HAD(n={matrix.n})", args)


def _cmd_construct_steiner(args) -> int:
    return _finish_array(fpa_steiner_848(), args)


# ---------------------------------------------------------------------------
# transform


# op -> (exact input count or None for any, required option or None, builder)
_TRANSFORMS = {
    "pad": (1, None, lambda ins, args: pad(ins[0])),
    "juxtapose": (2, None, lambda ins, args: juxtapose(*ins)),
    "expand-to-pa": (1, None, lambda ins, args: expand_to_pa(ins[0])),
    "refine": (1, "l", lambda ins, args: refine(ins[0], args.l)),
    "reduce-mod": (1, "r", lambda ins, args: reduce_mod(ins[0], args.r)),
    "compose": (
        None, "c", lambda ins, args: compose_columns(ins, parse_fpa(Path(args.c).read_text()))
    ),
    "product": (2, None, lambda ins, args: direct_product(*ins)),
    "sep-product": (None, "classes", lambda ins, args: _sep_product(ins, args.classes)),
}


def _sep_product(
    inputs: list[FrequencyPermutationArray], classes: int
) -> FrequencyPermutationArray:
    """sep_product of the inputs, each split into `classes` equal classes.

    The output has classes * prod(size / classes) rows, so an oversized
    product is refused from the sizes alone, before any input is split.
    """
    if (
        classes >= 1
        and all(a.size % classes == 0 for a in inputs)
        and len({(a.m, a.lam) for a in inputs}) == 1  # else sep_product refuses them
    ):
        rows = classes * math.prod(a.size // classes for a in inputs)
        _check_cells(f"class product of {rows}", rows, sum(a.n for a in inputs))
    return sep_product([SeparableArray.from_fpa(a, classes) for a in inputs])


def _cmd_transform(args) -> int:
    count, option, build = _TRANSFORMS[args.op]
    inputs = [parse_fpa(Path(p).read_text()) for p in args.inputs]
    if count is not None and len(inputs) != count:
        raise ValueError(f"{args.op} takes exactly {count} input file(s), got {len(inputs)}")
    if option is not None and getattr(args, option) is None:
        raise ValueError(f"{args.op} requires --{option}")
    return _finish_array(build(inputs, args), args)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    array = parse_fpa(Path(args.file).read_text())
    args.lap("parse")
    report = verify(array)
    args.lap("verify")
    profile = pair_profile(array)
    args.lap("profile")
    print(f"valid: {_bool(report.valid)}")
    print(f"size: {report.size}")
    print(f"actual_min_distance: {report.actual_min_distance}")
    print(f"equidistant: {_bool(report.equidistant)}")
    if profile is None:
        print("pair_profile: none")
    else:
        cells = " ".join(f"({a},{b})={c}" for (a, b), c in sorted(profile.items()))
        print(f"pair_profile: {cells}")
    failures = list(report.reasons)
    if args.expect_d is not None and report.actual_min_distance != args.expect_d:
        failures.append(
            f"expected min distance {args.expect_d}, measured {report.actual_min_distance}"
        )
    if args.expect_size is not None and report.size != args.expect_size:
        failures.append(f"expected size {args.expect_size}, found {report.size}")
    for reason in failures:
        print(f"reason: {reason}")
    expectations_met = len(failures) == len(report.reasons)
    return 0 if report.valid and expectations_met else 1


# ---------------------------------------------------------------------------
# bounds and search


def _format_exact(report: BoundsReport) -> str:
    if report.exact_value is None:
        return "unknown"
    if report.exact_proven:
        return f"{report.exact_value} (proven)"
    return f">= {report.exact_value} (search incomplete)"


def _cmd_bounds(args) -> int:
    report = bounds_report(args.n, args.lam, args.d, with_exact=args.exact,
                           vertex_budget=args.vertex_budget, node_budget=args.budget)
    args.lap("bounds")
    rows = [
        ("parameters", f"n={report.n} m={report.m} lambda={report.lam} d={report.d}"),
        ("total", str(report.total)),
        ("gv_lower", str(report.gv_lower)),
        ("hamming_upper", str(report.hamming_upper)),
        ("plotkin_upper", "n/a" if report.plotkin_upper is None else str(report.plotkin_upper)),
        ("trivial_upper", str(report.trivial_upper)),
        ("exact", _format_exact(report)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    if args.machine:
        plotkin = "NA" if report.plotkin_upper is None else str(report.plotkin_upper)
        exact = str(report.exact_value) if report.exact_proven else "?"
        print(
            f"gv={report.gv_lower} hamming={report.hamming_upper} "
            f"plotkin={plotkin} trivial={report.trivial_upper} exact={exact}"
        )
    return 0


def _cmd_search(args) -> int:
    result = exact_max_size(
        args.n, args.lam, args.d, vertex_budget=args.vertex_budget, node_budget=args.budget
    )
    args.lap("search")
    status = "proven" if result.proven else "search incomplete"
    print(f"M(n={args.n}, lambda={args.lam}, d={args.d}) = {result.value} ({status})")
    if args.out is None:
        return 0
    return _finish_array(result.array, args)


# ---------------------------------------------------------------------------
# parser


class _Subparser:
    """A command's parser as argparse holds it until the command is parsed.

    `add_parser` stores one of these under each name without building a
    parser.  argparse calls `parse_known_args` only on the one whose name
    is on the command line; that call builds the parser, lets `build` add
    its arguments, and parses, printing `-h` and usage errors from inside.
    """

    def __init__(self, *, build, **kwargs):
        self._build, self._kwargs = build, kwargs

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._build(parser)
        return parser.parse_known_args(args, namespace)


def _add_subcommands(parser: argparse.ArgumentParser, dest: str, table) -> None:
    """One subparser per (name, help, builder) in table, built when parsed."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Subparser)
    for name, help, build in table:
        sub.add_parser(name, help=help, build=build)


def _add_out(p: argparse.ArgumentParser, with_one_based: bool = True) -> None:
    p.add_argument("-o", "--out", default=None, help="output file (default: stdout)")
    if with_one_based:
        p.add_argument(
            "--one-based", action="store_true", help="print symbols 1-based (stdout display only)"
        )


# construct -------------------------------------------------------------------


def _add_construct(p: argparse.ArgumentParser) -> None:
    _add_subcommands(p, "method", _METHODS)


def _add_mols(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="prime power order, >= 3")
    _add_out(p, with_one_based=False)
    p.set_defaults(func=_cmd_construct_mols)


def _add_mofs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="prime power base")
    p.add_argument("--i", type=int, required=True, help="extension degree; n = q^i")
    _add_out(p, with_one_based=False)
    p.set_defaults(func=_cmd_construct_mofs)


def _add_fpa_from_mofs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--squares", required=True, help="fsq ingredient file")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_fpa_from_mofs)


def _add_linearized(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="base field order (prime power)")
    p.add_argument("--i", type=int, required=True, help="extension degree over the base")
    p.add_argument("--kind", choices=("trace", "subfield", "monomial"), default="trace")
    p.add_argument("--h", type=int, default=None, help="trace step (kind=trace; default 1)")
    p.add_argument("--subfield-n", type=int, default=None, help="subfield degree (kind=subfield)")
    p.add_argument("--d", type=int, required=True, help="distance parameter")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_linearized)


def _add_oa(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, default=None, help="build the OA from field MOLS")
    p.add_argument("--oa", default=None, help="read an oa ingredient file")
    p.add_argument("--squares", default=None, help="build the OA from an fsq file")
    p.add_argument("--ingredient-out", default=None, help="also write the OA file here")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_oa)


def _add_ard(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, default=None, help="build the design from field MOLS")
    p.add_argument("--design", default=None, help="read an ard ingredient file")
    p.add_argument("--ingredient-out", default=None, help="also write the design here")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_ard)


def _add_mds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p.add_argument("--gen", default=None, help="generator matrix file (encoded entries)")
    p.add_argument("--k", type=int, default=None, help="Reed-Solomon dimension")
    p.add_argument("--n", type=int, default=None, help="Reed-Solomon length (default q)")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_mds)


def _add_hadamard(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--to-fpa", action="store_true", help="emit the distance-n/2 array")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_hadamard)


def _add_steiner(p: argparse.ArgumentParser) -> None:
    _add_out(p)
    p.set_defaults(func=_cmd_construct_steiner)


# name, help, builder
_METHODS = (
    ("mols", "latin squares from a finite field", _add_mols),
    ("mofs", "complete set of orthogonal frequency squares", _add_mofs),
    ("fpa-from-mofs", "array from an orthogonal square set", _add_fpa_from_mofs),
    ("linearized", "array from a linearized polynomial kernel", _add_linearized),
    ("oa", "array from a strength-2 orthogonal array", _add_oa),
    ("ard", "array from an affine resolvable design", _add_ard),
    ("mds", "array from an MDS code generator matrix", _add_mds),
    ("hadamard", "Hadamard matrix, optionally as an array", _add_hadamard),
    ("steiner-848", "the 14-row array on 8 positions", _add_steiner),
)


# commands --------------------------------------------------------------------


def _add_transform(p: argparse.ArgumentParser) -> None:
    p.add_argument("op", choices=tuple(_TRANSFORMS))
    p.add_argument("inputs", nargs="+", help="input array files")
    p.add_argument("--l", type=int, default=None, help="refine: output frequency")
    p.add_argument("--r", type=int, default=None, help="reduce-mod: modulus")
    p.add_argument("--c", default=None, help="compose: coarse array file")
    p.add_argument("--classes", type=int, default=None, help="sep-product: classes per input")
    _add_out(p)
    p.set_defaults(func=_cmd_transform)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--expect-d", type=int, default=None)
    p.add_argument("--expect-size", type=int, default=None)
    p.set_defaults(func=_cmd_verify)


def _add_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="run the clique search")
    p.add_argument("--budget", type=int, default=200_000, help="search node budget (deterministic)")
    p.add_argument("--vertex-budget", type=int, default=2000)
    p.add_argument("--machine", action="store_true", help="append a machine-readable line")
    p.set_defaults(func=_cmd_bounds)


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=200_000, help="search node budget (deterministic)")
    p.add_argument("--vertex-budget", type=int, default=2000)
    p.add_argument("-o", "--out", default=None, help="write the witness array here")
    p.set_defaults(func=_cmd_search)


# name, help, builder
_COMMANDS = (
    ("construct", "build arrays and ingredients", _add_construct),
    ("transform", "apply a combinator to array files", _add_transform),
    ("verify", "re-derive an array file's parameters", _add_verify),
    ("bounds", "print the bounds table for (n, lambda, d)", _add_bounds),
    ("search", "exact maximum size with optional witness", _add_search),
)
