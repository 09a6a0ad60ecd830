"""Command-line front end.

Subcommands: tau, perm, enumerate, count, verify, lr, spherical.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 invalid
chain set, 4 size bound exceeded; a reader that closes stdout early, as
`enumerate | head` does, ends the command with 0 and nothing on stderr.
The bounds: 2 <= n <= {ENUM_CAP} for enumerate and count, 2 <= n <=
{VERIFY_CAP} for verify, a + b <= {ENUM_CAP} for spherical, at most
{LR_CELL_CAP} filled cells, min(|inner|, |outer| - |inner|), for lr, and at
most {TAU_ENTRY_CAP:,} entries for tau, with no printed integer past the
interpreter's integer-to-string limit.
Every failure (exit 2, 3 or 4), a command line the parser refuses
included, prints exactly one `error:` line on stderr and nothing on stdout.
Weights are printed in doubled coordinates wherever the standard value
could be half-integral; halve to recover the standard scale.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .chains import (
    ChainSet,
    OverlappingChainsError,
    extract_involution,
    involves_all_simple_reflections,
    is_interlaced,
    is_involution,
    lambda_doubled,
)
from .lr import lr_coefficient
from .scattered import _record_dict, _records, count, spherical_family
from .spin import SpinResult, lowest_k_type, spin_lowest_k_type, verify_spin_identity
from .verify import VERIFY_CAP, run_verification
from .weights import to_fundamental

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_INVALID_CHAINS = 3
EXIT_BOUND = 4

ENUM_CAP = 16
# lr fills min(|inner|, |outer| - |inner|) cells, and its cost still grows
# with that number, by about 1.3x a cell.  On staircase outers with
# near-staircase inner and content, the slowest triple measured took
# 0.11-0.19 s at 40 cells, 0.7-0.9 s at 46 and 0.9-1.0 s at 47 (CPU time,
# 2-CPU host); random triples are cheaper
LR_CELL_CAP = 46
# tau tests every pair of chains, and a chain holds at least one entry:
# 5,000 singleton chains take 1.1-1.3 s
TAU_ENTRY_CAP = 5000


class _CliError(Exception):
    """_CliError(code, message): `main` prints `error: <message>` and returns code.

    Not a ValueError, so a library ValueError is never mistaken for one.
    """


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors raise _CliError(EXIT_PARSE, ...)
    instead of printing usage and exiting; its subparsers are _Parsers too."""

    def error(self, message):
        raise _CliError(EXIT_PARSE, message)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _fmt_chains(chains) -> str:
    """Each chain's entry sequence as {a,b,...}, space-separated."""
    return " ".join("{" + ",".join(str(e) for e in entries) + "}" for entries in chains)


def _fmt_trace(res: SpinResult) -> str:
    if not res.trace:
        return "none"
    parts = []
    for app in sorted(res.trace):
        letter = "q" if app.kind == "c" else "p"
        parts.append(f"({app.kind}) T{app.i},T{app.j} {letter}={app.param}")
    return "; ".join(parts)


@cache
def _line_template(n: int, u_small: bool, multiplicity) -> str:
    """The %-template of the JSON line of a rank-n record whose last two
    fields are these: %s for the chains and one %d per int, then the two
    values as JSON, each followed by a %.0s that takes the field and
    prints nothing."""
    ints = "[" + ", ".join(["%d"] * n) + "]"
    short = "[" + ", ".join(["%d"] * (n - 1)) + "]"
    return (
        f'{{"n": %d, "chains": %s, "lambda2_fund": {short}, "s": {ints}, "tau_fund": {short}, '
        f'"gamma": {ints}, "u_small": {json.dumps(u_small)}%.0s, "multiplicity": {json.dumps(multiplicity)}%.0s}}'
    )


def _json_line(fields: tuple) -> str:
    """json.dumps of the record of `scattered._assemble`'s fields, written by
    one % formatting of the fields as they are: %d of an int, and str of
    the chains, are their JSON."""
    return _line_template(fields[0], fields[-2], fields[-1]) % fields


def _load_chain_set(path: str) -> ChainSet:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    try:
        return ChainSet.from_json(text)
    except OverlappingChainsError as exc:
        raise _CliError(EXIT_INVALID_CHAINS, f"invalid chain set: {exc}") from exc
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc


def _check_rank(n: int, cap: int) -> None:
    if not 2 <= n <= cap:
        raise _CliError(EXIT_BOUND, f"n must satisfy 2 <= n <= {cap}")


def _cmd_tau(args) -> int:
    cs = _load_chain_set(args.file)
    if cs.n > TAU_ENTRY_CAP:
        raise _CliError(EXIT_BOUND, f"tau would run on {cs.n} entries, at most {TAU_ENTRY_CAP} allowed")
    res = spin_lowest_k_type(cs)
    verdict = "PASS" if verify_spin_identity(res) else "FAIL"
    # every line is formatted before any is printed: a value too long for
    # the interpreter's integer-to-string limit refuses the whole command
    try:
        lines = [
            f"chains (canonical order): {_fmt_chains(c.entries() for c in res.chains)}",
            f"2*lambda = {_fmt_vec(lambda_doubled(cs))}",
            f"lowest K-type = {_fmt_vec(x // 2 for x in lowest_k_type(cs))}",
            f"rules: {_fmt_trace(res)}",
            f"tau = {_fmt_vec(x // 2 for x in res.tau)}",
            f"2*{{tau-rho}} = {_fmt_vec(res.gamma)}",
            f"identity {{tau-rho}} = 2*lambda - rho: {verdict}",
        ]
    except ValueError as exc:
        raise _CliError(EXIT_BOUND, f"tau would print an integer of more than {sys.get_int_max_str_digits()} digits") from exc
    print("\n".join(lines))
    return EXIT_OK if verdict == "PASS" else EXIT_VERIFY_FAIL


def _cmd_perm(args) -> int:
    cs = _load_chain_set(args.file)
    s = extract_involution(cs)
    print(f"s = {_fmt_vec(s)}")
    print(f"involution: {'yes' if is_involution(s) else 'no'}")
    print(f"involves all simple reflections: {'yes' if involves_all_simple_reflections(s) else 'no'}")
    print(f"interlaced: {'yes' if is_interlaced(cs) else 'no'}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    _check_rank(args.n, ENUM_CAP)
    # built lazily, so each line is written as soon as its record exists
    records = _records(args.n, args.with_multiplicity)
    if args.json:
        write = sys.stdout.write
        for _, fields in records:
            write(_json_line(fields) + "\n")
        return EXIT_OK
    print("n | chains | 2lambda' | s | tau | 2gamma | u-small | mult")
    print("(fundamental coefficients of 2lambda' and the vector 2gamma are doubled; halve for standard scale)")
    for pairs, fields in records:
        rec = _record_dict(fields)
        mult = "-" if rec["multiplicity"] is None else str(rec["multiplicity"])
        print(
            f"{rec['n']} | {_fmt_chains(range(top, top - 2 * length, -2) for top, length in pairs)} | "
            f"{rec['lambda2_fund']} | {_fmt_vec(rec['s'])} | {rec['tau_fund']} | {_fmt_vec(rec['gamma'])} | "
            f"{'yes' if rec['u_small'] else 'no'} | {mult}"
        )
    return EXIT_OK


def _cmd_count(args) -> int:
    _check_rank(args.n, ENUM_CAP)
    print(count(args.n))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_rank(args.n, VERIFY_CAP)
    ok = True
    for line, line_ok in run_verification(args.n):
        print(line, flush=True)
        ok = ok and line_ok
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _parse_partition(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed partition {text!r}") from exc


def _cmd_lr(args) -> int:
    outer = _parse_partition(args.outer)
    inner = _parse_partition(args.inner)
    weight = _parse_partition(args.weight)
    cells = min(sum(inner), sum(outer) - sum(inner))
    if cells > LR_CELL_CAP:
        raise _CliError(EXIT_BOUND, f"lr would fill {cells} cells, at most {LR_CELL_CAP} allowed")
    try:
        value = lr_coefficient(outer, inner, weight)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc
    print(value)
    return EXIT_OK


def _cmd_spherical(args) -> int:
    if args.a + args.b > ENUM_CAP:
        raise _CliError(EXIT_BOUND, f"a + b must be at most {ENUM_CAP}")
    try:
        cs = spherical_family(args.a, args.b)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc
    res = spin_lowest_k_type(cs)
    print(f"chains: {_fmt_chains(cs.to_lists())}")
    print(f"2*lambda = {_fmt_vec(lambda_doubled(cs))}")
    print(f"2lambda' fundamental = {list(to_fundamental(lambda_doubled(cs)))}")
    print(f"lowest K-type = {_fmt_vec(x // 2 for x in lowest_k_type(cs))}")
    print(f"tau = {_fmt_vec(x // 2 for x in res.tau)}")
    print(f"s = {_fmt_vec(extract_involution(cs))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # the module docstring, its bounds read from the caps, is the description
    parser = _Parser(prog="spinchains", description=__doc__.format_map(globals()))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="spin-lowest K-type of a chain set")
    p.add_argument("-f", "--file", required=True, help="JSON file {\"chains\": [[...], ...]}")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("perm", help="involution carried by a chain set")
    p.add_argument("-f", "--file", required=True)
    p.set_defaults(func=_cmd_perm)

    p = sub.add_parser("enumerate", help="all scattered parameters of SL(n)")
    p.add_argument("-n", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="one JSON record per line")
    fmt.add_argument("--table", action="store_true", help="human-readable table (default)")
    p.add_argument("--with-multiplicity", action="store_true", help="add tau's multiplicity in the induced module")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="number of scattered parameters of SL(n)")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run the invariant suite up to rank n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", default="")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("spherical", help="the two-chain family with trivial lowest K-type")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.set_defaults(func=_cmd_spherical)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader has gone (`enumerate | head`): what stdout still buffers
        # goes to os.devnull, so the flush at exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return EXIT_OK
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
