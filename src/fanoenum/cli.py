"""Command-line interface: enumerate, verify, chern, emit.

Each subcommand imports the engine modules it runs when it runs, so that
``chern`` loads only the Chern calculus.  The grammar is written once, in
``_GRAMMAR``: :func:`run` reads a well-formed argv by it without argparse,
and :func:`_parsers` makes argparse's one full parser from it for every
other argv (help, a usage error, a form the reader leaves to argparse) and
for a usage error a handler finds.

Exit codes: 0 success, 1 verification failure, engine error or failed read
or write (of help too), 2 usage error (argparse prints it; a well-formed argv
never loads argparse).  All table output is byte-deterministic UTF-8 with LF newlines.
"""

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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

_EMIT_CHOICES = ("markdown", "json", "csv")


def _is_path(text: str) -> bool:
    # open() raises ValueError, not OSError, on a NUL byte or a lone surrogate,
    # and an empty path names no file
    try:
        return text != "" and b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        return False


def _path(text: str) -> str:
    """argparse's type for ``--out``: ``text``, if it can name a file."""
    if not _is_path(text):
        import argparse  # already loaded: only argparse calls this

        raise argparse.ArgumentTypeError(f"{text!r} is not a path this system can open")
    return text


def _usage_error(command: str, message: str):
    """Exit 2 with ``command``'s usage and ``message``, as argparse's own errors do."""
    _parsers()[1][command].error(message)


def _parse_pair(text: str, rho: int) -> tuple[str, ...]:
    from .ray_constraints import RayType

    try:
        tags = tuple(RayType.parse(token).value for token in text.split(","))
    except FanoEngineError as exc:
        _usage_error("enumerate", str(exc))
    if len(tags) < 2:
        _usage_error("enumerate", "--pair needs at least two comma-separated ray types")
    if len(tags) > rho:
        _usage_error("enumerate", f"--pair takes at most {rho} ray types at rank {rho}")
    return tuple(sorted(tags))


def _computed_rows(rho: int, primitive_only: bool):
    from .enumerator import enumerate_all
    from .table_oracle import label

    return label(enumerate_all(rho, primitive_only=primitive_only))


def _write_payload(payload: bytes, out: str | None) -> None:
    """Write ``payload`` to the file ``out``, or to stdout when it is None or "-"."""
    if out is not None and out != "-":
        with open(out, "wb") as file:
            file.write(payload)
        return
    sys.stdout.buffer.write(payload)
    if not payload.endswith(b"\n"):
        sys.stdout.buffer.write(b"\n")


def _run_enumerate(args) -> int:
    from .table_oracle import emit

    pair = None if args.pair is None else _parse_pair(args.pair, args.rho)
    rows = _computed_rows(args.rho, args.primitive or args.rho == 3)
    if pair is not None:
        rows = tuple(r for r in rows if tuple(sorted(r.ray_types)) == pair)
    _write_payload(emit(rows, args.fmt), None)
    return 0


def _run_verify(args) -> int:
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


def _run_chern(args) -> int:
    func, names = _CHERN_FORMULAS[args.formula]
    if len(args.values) != len(names):
        noun = "integer" if len(names) == 1 else "integers"
        _usage_error("chern", f"{args.formula} takes {len(names)} {noun}: {' '.join(names)}")
    result = func(*args.values)
    try:
        text = str(result)
    except ValueError:  # more digits than the interpreter converts to text
        limit = sys.get_int_max_str_digits()
        raise FanoEngineError(f"the result has more than {limit} digits, the most Python prints")
    print(text)
    return 0


def _run_emit(args) -> int:
    from .table_oracle import emit, ground_truth

    primitive_only = args.rho == 3
    if args.source == "computed":
        rows = _computed_rows(args.rho, primitive_only)
    else:
        rows = ground_truth(args.rho, primitive_only=primitive_only)
    _write_payload(emit(rows, args.fmt), args.out)
    return 0


# The grammar, in help order: each subcommand's help, handler, options and
# positionals.  An option is (flag, dest, type, choices, default, help), as
# argparse takes them; type bool marks a flag (store_true).  A positional is
# (dest, type, choices, nargs).
_GRAMMAR = {
    "enumerate": (
        "solve and print the families",
        _run_enumerate,
        (
            ("--rho", "rho", int, (2, 3), 2, None),
            (
                "--pair", "pair", None, None, None,
                "restrict to one ray pairing, e.g. E1,C2 (E3/E4 spelled E3E4)",
            ),
            (
                "--primitive", "primitive", bool, None, False,
                "only families without an E1 blowup ray (rank 2)",
            ),
            ("--format", "fmt", None, _EMIT_CHOICES, "markdown", None),
        ),
        (),
    ),
    "verify": (
        "diff computed families against the embedded table",
        _run_verify,
        (("--rho", "rho", int, (2, 3), None, None),),
        (),
    ),
    "chern": (
        "evaluate one Chern-class formula",
        _run_chern,
        (),
        (
            ("formula", None, tuple(sorted(_CHERN_FORMULAS)), None),
            ("values", int, None, "+"),
        ),
    ),
    "emit": (
        "export a table to a file or stdout",
        _run_emit,
        (
            ("--rho", "rho", int, (2, 3), 2, None),
            ("--format", "fmt", None, _EMIT_CHOICES, "json", None),
            ("--source", "source", None, ("truth", "computed"), "truth", None),
            ("--out", "out", _path, None, None, "output path (default: stdout)"),
        ),
        (),
    ),
}


def _parsers():
    """argparse's parser of every subcommand, and those subcommands' parsers by name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fanoenum",
        description=(
            "Enumerate rank-2 and primitive rank-3 Fano threefold families by "
            "exact integer arithmetic and compare against the embedded table."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options, positionals) in _GRAMMAR.items():
        p = sub.add_parser(name, help=summary)
        for flag, dest, type_, choices, default, help_text in options:
            if type_ is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                p.add_argument(
                    flag, dest=dest, type=type_, choices=choices, default=default,
                    help=help_text,
                )
        for dest, type_, choices, nargs in positionals:
            p.add_argument(dest, type=type_, choices=choices, nargs=nargs)
        p.set_defaults(handler=handler)
    return parser, sub.choices


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments argparse parses from ``argv``, or None to leave it to argparse.

    The reader takes only exact shapes: the subcommand first, then exact
    option names, each with its value in the next token, and the
    positionals.  A value must be a choice as written, an ASCII decimal
    integer (signed only where it is no option's value) or a path
    :func:`_path` takes.  Anything else -- ``-h``, ``--``, ``--opt=value``, an
    abbreviation, a value that is empty or starts with ``-`` (a lone ``-``
    aside), an unknown token -- is argparse's to accept or reject.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, handler, options, positionals = _GRAMMAR[argv[0]]
    values = {"command": argv[0], "handler": handler}
    by_flag = {}
    for flag, dest, type_, choices, default, _ in options:
        values[dest] = default
        by_flag[flag] = dest, type_, choices
    rest = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in by_flag:
            rest.append(token)
            continue
        dest, type_, choices = by_flag[token]
        if type_ is bool:
            values[dest] = True
            continue
        token = next(tokens, "")  # a missing value reads as an empty one
        if token[:1] in ("", "-") and token != "-":  # argparse takes a lone "-" as a value
            return None
        values[dest] = _value(token, type_, choices)
        if values[dest] is None:
            return None
    for dest, type_, choices, nargs in positionals:
        taken, rest = (rest, []) if nargs == "+" else (rest[:1], rest[1:])
        read = [_value(token, type_, choices) for token in taken]
        if not read or None in read:
            return None
        values[dest] = read if nargs == "+" else read[0]
    return None if rest else SimpleNamespace(**values)


def _value(token: str, type_, choices):
    """``token`` as argparse converts it, or None where the reader defers."""
    if type_ is int:
        digits = token[1:] if token[:1] == "-" else token
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            token = int(token)
        except ValueError:  # more digits than int() converts
            return None
    elif type_ is _path and not _is_path(token):
        return None
    return token if choices is None or token in choices else None


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """argparse's reading of ``argv``; help is written here, as 3.11+ ignores a failed write."""
    import contextlib
    import io

    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            return _parsers()[0].parse_args(argv)
    finally:  # argparse exits 0 after help, 2 after a usage error
        if help_text.getvalue():  # even an empty write fails on an unbuffered full stdout
            sys.stdout.write(help_text.getvalue())


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read(argv) or _parse(argv)
            return args.handler(args)
        finally:  # a failed write ends in an error line, not in a failed flush at exit
            sys.stdout.flush()
    except (FanoEngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # drop what stdout cannot take, or the exit flush fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


class _ClosedStdout:
    """``sys.stdout`` where fd 1 was closed at start-up: a write fails as one to fd 1 would."""

    def write(self, data):
        import errno

        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass

    @property
    def buffer(self):
        return self


def main() -> None:
    """The process entry point of ``python -m fanoenum`` and the ``fanoenum`` script.

    It freezes the collector first: every object alive then moves to the
    permanent generation, so the collections the interpreter runs at exit
    skip them.  The exit stays the normal one (atexit handlers run, stdio is
    flushed) with :func:`run`'s code, or argparse's on help or a usage
    error.  Library callers use :func:`run`, which leaves the collector and
    ``sys.stdout`` as it finds them.
    """
    import gc

    gc.freeze()
    if sys.stdout is None:  # the interpreter found fd 1 closed
        sys.stdout = _ClosedStdout()
    sys.exit(run())
