"""Command-line front end.

Subcommands: kernel (emit a transform matrix), verify (end-to-end pipeline
checks), discover (symmetry search on a covariance file), project,
residual, alpha, match-library, synthesize.

Exit codes: 0 success / verification pass, 1 verification failure or
internal numeric error, 2 usage or input-validation error, 3 I/O failure.
Output is plain text (no ANSI color, so NO_COLOR needs no handling);
`--json` switches report-producing commands to JSON with the same values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import diagnostics, discovery, groups, matrixio, numkernel, transforms
from .errors import (
    DimensionError,
    InputError,
    NotMultiplicityFreeError,
    NumericError,
    ToolkitError,
    UndefinedResidualError,
)

_GROUP_SPEC_FORMS = (
    "trivial:M cyclic:M dihedral:M dihedralM:M boolean:n dyadic-wreath:L "
    "wreath:K1c,K2s,... hybrid:W,K product:(spec,spec) perms:<path>"
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_group(spec: str) -> groups.GroupAction:
    try:
        return groups.parse_group_spec(spec)
    except InputError as exc:
        raise InputError(f"{exc}\nvalid forms: {_GROUP_SPEC_FORMS}") from exc


def _emit(doc: matrixio.ReportDocument, as_json: bool) -> None:
    sys.stdout.write(doc.to_json() if as_json else doc.to_text())


# ---------------------------------------------------------------------------
# kernel

# name: (builder, what --size counts); fprm takes its size from --polarity
_KERNELS = {
    "dft": (transforms.dft_matrix, "points"),
    "dct2": (transforms.dct2_matrix, "points"),
    "hartley": (transforms.hartley_matrix, "points"),
    "wht": (transforms.wht_matrix, "bits"),
    "rm": (transforms.rm_matrix, "bits"),
    "arith": (transforms.arithmetic_matrix, "bits"),
    "haar": (transforms.haar_matrix, "levels"),
}


def _build_kernel(name: str, size: int | None, polarity: str | None):
    if name == "fprm":
        if polarity is None:
            raise InputError("fprm requires --polarity (a bit string such as 101)")
        if size is not None:
            raise InputError("fprm takes its size from --polarity")
        return transforms.fp_rm_matrix(polarity.strip()).matrix
    if polarity is not None:
        raise InputError("--polarity only applies to fprm")
    build, counts = _KERNELS[name]
    if size is None:
        raise InputError(f"{name} requires --size ({counts})")
    return build(size).matrix


def cmd_kernel(args) -> int:
    matrix = _build_kernel(args.name, args.size, args.polarity)
    if args.out:
        matrixio.write_matrix_file(args.out, matrix)
    else:
        sys.stdout.write(matrixio.render_matrix(matrix))
    return 0


# ---------------------------------------------------------------------------
# verify

def _sampled_match(action: groups.GroupAction, seed: int, kernel):
    return diagnostics.subspace_match(diagnostics.sample_invariant_cov(action, seed), kernel)


# case: seed -> (group label, MatchReport); each builds its kernel only when
# run, so that importing the module builds no matrix
_VERIFY_CASES = {
    "dft": lambda seed: ("cyclic:16", _sampled_match(
        groups.make_cyclic(16), seed, transforms.dft_matrix(16))),
    "wht": lambda seed: ("boolean:4", _sampled_match(
        groups.make_boolean(4), seed, transforms.wht_matrix(4))),
    "dct": lambda seed: ("dihedral:8", diagnostics.subspace_match(
        diagnostics.dct_fold_cov(8, seed), transforms.dct2_matrix(8))),
    "haar": lambda seed: ("dyadic-wreath:5", _sampled_match(
        groups.make_dyadic_wreath(5), seed, transforms.haar_matrix(5))),
    "circle64": lambda seed: ("dihedral:32", diagnostics.circle_check(64, seed)),
}


def cmd_verify(args) -> int:
    rows, all_pass = [], True
    for name in _VERIFY_CASES if args.case == "all" else (args.case,):
        start = time.perf_counter()
        row = matrixio.ReportDocument().add("case", name)
        try:
            group, report = _VERIFY_CASES[name](args.seed)
        except ToolkitError as exc:
            ok = False
            row.add("group", "-").add("min_match", None).add("pattern", [])
            row.add("pass", ok).add("error", str(exc))
        else:
            ok = report.min_match >= 1.0 - 1e-6
            row.add("group", group).add("min_match", report.min_match)
            row.add("pattern", report.degeneracy_pattern).add("pass", ok)
        rows.append(row.add("seconds", time.perf_counter() - start))
        all_pass = all_pass and ok
    _emit(matrixio.ReportDocument().add("cases", rows).add("pass", all_pass), args.json)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# discover

def cmd_discover(args) -> int:
    r = matrixio.read_matrix_file(args.input)
    try:
        result = discovery.discover_sequential(r, tau=args.tau, enumeration_cap=args.cap)
    except NumericError as exc:  # R is not Hermitian within tolerance
        return _fail(str(exc), 2)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for level in result.trace:
                fh.write(json.dumps(dataclasses.asdict(level)) + "\n")

    doc = matrixio.ReportDocument()
    doc.add("input", args.input)
    doc.add("degree", r.shape[0])
    if result.generators:
        doc.add("generators", len(result.generators))
        for i, (gen, delta) in enumerate(zip(result.generators, result.residuals)):
            doc.add(f"generator_{i}", gen.cycle_string())
            # delta sits near roundoff, below the reports' six decimals
            doc.add(f"delta_{i}", f"{delta:.3e}")
    else:
        doc.add("generators", "none")
    if result.group_order is None:
        doc.add("order", f">{args.cap}")
    else:
        doc.add("order", int(result.group_order))
    doc.add("alpha", float(result.alpha))
    doc.add("iterations", result.iterations)
    doc.add("rejected", result.rejected_count)
    doc.add("stop", result.stop_reason)

    out_path = "-"
    # without generators the action is trivial: synthesis would return a
    # data-dependent KLT, not a matched transform
    if result.generators:
        discovered = groups.from_generators(result.generators, "discovered")
        try:
            basis = transforms.synthesize_matched(discovered, args.seed)
        except NotMultiplicityFreeError:
            pass
        else:
            out_path = f"{args.input}.matched.mtx"
            matrixio.write_matrix_file(out_path, basis.transform.matrix)
    doc.add("matched_transform", out_path)
    _emit(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# misc wrappers

def cmd_project(args) -> int:
    action = _parse_group(args.group)
    r = matrixio.read_matrix_file(args.input)
    matrixio.write_matrix_file(args.out, groups.reynolds_project(r, action))
    return 0


def cmd_residual(args) -> int:
    # square first: the permutation is parsed at the matrix's degree
    r = numkernel.as_cmatrix(matrixio.read_matrix_file(args.input))
    perm = groups.parse_permutation(args.perm, degree=r.shape[0])
    delta = diagnostics.residual_delta(perm, r)
    _emit(matrixio.ReportDocument().add("delta", delta), args.json)
    return 0


def cmd_alpha(args) -> int:
    action = _parse_group(args.group)
    r = matrixio.read_matrix_file(args.input)
    value = diagnostics.coloring_alpha(action, r)
    _emit(matrixio.ReportDocument().add("alpha", value), args.json)
    return 0


def cmd_match_library(args) -> int:
    r = matrixio.read_matrix_file(args.input)
    actions = [_parse_group(s) for s in groups._split_specs(args.library)]
    report = discovery.match_library(r, actions, enumeration_cap=args.cap)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.matches:
        return _fail(f"no library entry has the matrix degree {r.shape[0]}", 2)
    rows = [
        matrixio.ReportDocument().add("rank", rank).add("group", e.name)
        .add("score", e.score).add("alpha", e.alpha)
        .add("order", f">{args.cap}" if e.order_exceeded_cap else e.group_order)
        for rank, e in enumerate(report.matches, start=1)
    ]
    _emit(matrixio.ReportDocument().add("entries", rows), args.json)
    return 0


def cmd_synthesize(args) -> int:
    action = _parse_group(args.group)
    basis = transforms.synthesize_matched(action, args.seed)
    matrixio.write_matrix_file(args.out, basis.transform.matrix)
    doc = matrixio.ReportDocument()
    doc.add("group", action.name)
    doc.add("degree", action.degree)
    doc.add("pattern", list(basis.degeneracy_pattern))
    doc.add("data_dependent", bool(basis.data_dependent))
    # the ratio sits near roundoff, below the reports' six decimals
    ratio = basis.certificate
    doc.add("certificate", None if ratio is None else f"{ratio:.3e}")
    doc.add("out", args.out)
    _emit(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtf",
        description="Group-matched transform toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="emit a transform matrix")
    p.add_argument("name", choices=sorted([*_KERNELS, "fprm"]))
    p.add_argument("--size", type=int, default=None,
                   help="points (dft/dct2/hartley), bits (wht/rm/arith), or levels (haar)")
    p.add_argument("--polarity", default=None, help="fprm polarity bit string")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="run the end-to-end pipeline checks")
    p.add_argument("--case", choices=[*_VERIFY_CASES, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discover", help="search for symmetries of a covariance file")
    p.add_argument("input", help="matrix file (Hermitian)")
    p.add_argument("--tau", type=float, default=1e-8)
    p.add_argument("--cap", type=int, default=10**4,
                   help="closure cap of a coarse-colors stop, whose order past it "
                        "prints as >CAP; any other stop prints the exact order")
    p.add_argument("--seed", type=int, default=1,
                   help="no effect: synthesis of a discovered action reads no seed")
    p.add_argument("--trace", default=None,
                   help="write one JSON line per search base level to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("project", help="Reynolds-project a matrix onto invariants")
    p.add_argument("--group", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("residual", help="commutation residual of a permutation")
    p.add_argument("--perm", required=True,
                   help="disjoint cycles '(0 1)(2 3)' or image list '1 0 2'")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("alpha", help="invariant energy fraction under a group")
    p.add_argument("--group", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("match-library", help="rank candidate groups by residual")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--library", required=True, help="comma-separated group specs")
    p.add_argument("--cap", type=int, default=10**4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_match_library)

    p = sub.add_parser("synthesize", help="matched basis of a multiplicity-free action")
    p.add_argument("--group", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops an attached "--" value (--tau=--) and stores [] unconverted
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"{name}: expected one argument, got '--'")
    try:
        return args.func(args)
    except (InputError, DimensionError, UndefinedResidualError) as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(f"I/O failure: {exc}", 3)
    except ToolkitError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
