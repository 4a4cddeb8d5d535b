"""Command-line interface: enumerate, verify, chern, emit.

Each subcommand imports the engine modules it runs when it runs, so that
``chern`` loads only the Chern calculus.

Exit codes: 0 success, 1 verification failure, engine error or unreadable
file, 2 usage error (argparse).  All table output is byte-deterministic UTF-8
with LF newlines.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from functools import partial

from .chern_calculus import (
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    antican_sq_dot_exceptional,
    blowup_exceptional_cube,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
    xi_square_on_curve,
)
from .errors import FanoEngineError

__all__ = ["run", "main"]


# name -> (callable, argument names)
_CHERN_FORMULAS = {
    "antican-cube-p1-bundle": (
        antican_cube_p1_bundle_over_surface,
        ("c1_sq", "c2", "Ky_sq"),
    ),
    "xi-square": (xi_square_on_curve, ("deg_E",)),
    "antican-cube-divisor-p2-bundle": (
        antican_cube_divisor_in_p2_bundle,
        ("c1_sq", "c2", "Ky_sq", "c1.F", "c1.Ky", "F.Ky", "F_sq"),
    ),
    "exceptional-cube": (blowup_exceptional_cube, ("deg_conormal",)),
    "antican-sq-dot-exceptional": (antican_sq_dot_exceptional, ("Ky.C", "genus")),
    "conic-ksq-pullback": (conic_bundle_ksq_dot_pullback, ("Ks.D", "Delta.D")),
    "genus-from-blowup": (genus_from_blowup, ("kx3", "ky3", "r", "degB")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand's parser or only ``command``'s.

    A process runs one subcommand, so :func:`run` builds only the parser its
    argv names.  That parser's metavar keeps the usage line of the full one;
    the full one has none, so that argparse names the action ``command`` in
    an invalid-choice error.
    """
    parser = argparse.ArgumentParser(
        prog="fanoenum",
        description=(
            "Enumerate rank-2 and primitive rank-3 Fano threefold families by "
            "exact integer arithmetic and compare against the embedded table."
        ),
    )
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        _SUBCOMMANDS[name](sub)
    return parser


def _add_enumerate(sub) -> None:
    p_enum = sub.add_parser("enumerate", help="solve and print the families")
    p_enum.add_argument("--rho", type=int, choices=(2, 3), default=2)
    p_enum.add_argument(
        "--pair",
        help="restrict to one ray pairing, e.g. E1,C2 (E3/E4 spelled E3E4)",
    )
    p_enum.add_argument(
        "--primitive",
        action="store_true",
        help="only families without an E1 blowup ray (rank 2)",
    )
    p_enum.add_argument(
        "--format",
        dest="fmt",
        choices=_EMIT_CHOICES,
        default="markdown",
    )
    p_enum.set_defaults(handler=partial(_run_enumerate, p_enum))


def _add_verify(sub) -> None:
    p_verify = sub.add_parser(
        "verify", help="diff computed families against the embedded table"
    )
    p_verify.add_argument("--rho", type=int, choices=(2, 3))
    p_verify.set_defaults(handler=_run_verify)


def _add_chern(sub) -> None:
    p_chern = sub.add_parser("chern", help="evaluate one Chern-class formula")
    p_chern.add_argument("formula", choices=sorted(_CHERN_FORMULAS))
    p_chern.add_argument("values", type=int, nargs="+")
    p_chern.set_defaults(handler=partial(_run_chern, p_chern))


def _add_emit(sub) -> None:
    p_emit = sub.add_parser("emit", help="export a table to a file or stdout")
    p_emit.add_argument("--rho", type=int, choices=(2, 3), default=2)
    p_emit.add_argument("--format", dest="fmt", choices=_EMIT_CHOICES, default="json")
    p_emit.add_argument("--source", choices=("truth", "computed"), default="truth")
    p_emit.add_argument("--out", type=_path, help="output path (default: stdout)")
    p_emit.set_defaults(handler=_run_emit)


# Each subcommand and the function that adds its parser, in help order.
_SUBCOMMANDS = {
    "enumerate": _add_enumerate,
    "verify": _add_verify,
    "chern": _add_chern,
    "emit": _add_emit,
}


_EMIT_CHOICES = ("markdown", "json", "csv")


def _path(text: str) -> str:
    # open() raises ValueError, not OSError, on a NUL byte or a lone surrogate,
    # and an empty path names no file
    try:
        valid = text != "" and b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"{text!r} is not a path this system can open")
    return text


def _parse_pair(parser: argparse.ArgumentParser, text: str, rho: int) -> tuple[str, ...]:
    from .ray_constraints import RayType

    try:
        tags = tuple(RayType.parse(token).value for token in text.split(","))
    except FanoEngineError as exc:
        parser.error(str(exc))
    if len(tags) < 2:
        parser.error("--pair needs at least two comma-separated ray types")
    if len(tags) > rho:
        parser.error(f"--pair takes at most {rho} ray types at rank {rho}")
    return tuple(sorted(tags))


def _computed_rows(rho: int, primitive_only: bool):
    from .enumerator import enumerate_all
    from .table_oracle import label

    return label(enumerate_all(rho, primitive_only=primitive_only))


def _write_payload(payload: bytes, out: str | None) -> None:
    if out is not None:
        with open(out, "wb") as file:
            file.write(payload)
        return
    sys.stdout.buffer.write(payload)
    if not payload.endswith(b"\n"):
        sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()


def _run_enumerate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .table_oracle import emit

    pair = _parse_pair(parser, args.pair, args.rho) if args.pair else None
    rows = _computed_rows(args.rho, args.primitive or args.rho == 3)
    if pair is not None:
        rows = tuple(r for r in rows if tuple(sorted(r.ray_types)) == pair)
    _write_payload(emit(rows, args.fmt), None)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .enumerator import enumerate_all
    from .table_oracle import diff, ground_truth

    status = 0
    rhos = (args.rho,) if args.rho else (2, 3)
    for rho in rhos:
        primitive_only = rho == 3
        records = enumerate_all(rho, primitive_only=primitive_only)
        truth = ground_truth(rho, primitive_only=primitive_only)
        report = diff(records, truth)
        if report:
            print(f"rho={rho}: differences found")
            print(report.render())
            status = 1
        else:
            print(f"rho={rho}: all {len(truth)} rows match")
    return status


def _run_chern(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    func, names = _CHERN_FORMULAS[args.formula]
    if len(args.values) != len(names):
        parser.error(f"{args.formula} takes {len(names)} integers: {' '.join(names)}")
    print(func(*args.values))
    return 0


def _run_emit(args: argparse.Namespace) -> int:
    from .table_oracle import emit, ground_truth

    primitive_only = args.rho == 3
    if args.source == "computed":
        rows = _computed_rows(args.rho, primitive_only)
    else:
        rows = ground_truth(args.rho, primitive_only=primitive_only)
    _write_payload(emit(rows, args.fmt), args.out)
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FanoEngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
