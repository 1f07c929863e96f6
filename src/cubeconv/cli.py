"""Command-line front end: exponent lookup, family counting, randomized
verification, extremal families, and the critical-point lab.

Machine output is a single sorted-key JSON object on stdout; exit codes
are 0 = success/bound holds, 1 = a mathematical claim was violated,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import counting, lemma_lab, verifier
from .core import MAX_M, REAL, CubeFunction, SetFamily, check_m, exponent, popcounts

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Family files: optional "m=<int>" header, one set per line as 1-based
# comma-separated elements, "-" for the empty set, "#" comments.


def _decimal(lineno: int, what: str, token: str) -> int:
    """int(token) for ASCII digits, refusing any other spelling that int()
    reads ("1_0", "+3", "３"); a "-" sign passes, so that a negative value
    is refused by its caller's range check, never accepted."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"line {lineno}: {what} {token!r} is not a decimal integer")
    return int(token)


def _set_elements(lineno: int, line: str) -> list[int]:
    """The elements of one set line ("-" is the empty set), checked in order."""
    elems = []
    for piece in [] if line == "-" else line.split(","):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"line {lineno}: empty element")
        e = _decimal(lineno, "element", piece)
        if e < 1:
            raise ValueError(f"line {lineno}: element {e} out of range (1-based)")
        elems.append(e)
    if len(set(elems)) != len(elems):
        raise ValueError(f"line {lineno}: duplicate element within set")
    return elems


def parse_family(text: str) -> SetFamily:
    """The set family of a family file.

    A file in the form serialize_family writes (an optional "m=<m>"
    header, "-" lines, sets as comma-separated elements "1" .. "24", and
    "\\n" line ends) is read by numpy, in pieces of whole lines.  Any other
    file, and any file that fails a check there, goes to the line parser,
    which accepts every spelling of the format and words every error
    message; so both give the same family or the same error."""
    family = _read_canonical(text)
    return _parse_lines(text) if family is None else family


# Piece of a canonical file read at once, in bytes: its byte-wide arrays stay in cache.
_PIECE = 1 << 18


def _read_canonical(text: str) -> SetFamily | None:
    """The family of a canonical file, or None if the file is not one or
    breaks a rule of the format.  Each piece, cut just after a "\\n",
    keeps its masks and line sizes; the sort and the checks on them run
    once, over the whole file."""
    if not text.isascii():
        return None
    m, start = None, 0
    if text.startswith("m="):
        end = text.find("\n") % (len(text) + 1)  # the header's end; no copy of the body is made
        digits, start = text[2:end], end + 1
        if not (digits.isdigit() and digits[0] != "0" and len(digits) <= 2):
            return None
        m = int(digits)
    raw = (text if text.endswith("\n") else text + "\n").encode("ascii")
    b, pieces = np.frombuffer(raw, dtype=np.uint8), []
    while start < len(raw):
        stop = raw.index(b"\n", min(start + _PIECE, len(raw)) - 1) + 1
        piece = _canonical_lines(b[start:stop])
        if piece is None:
            return None
        pieces.append(piece)
        start = stop
    if not pieces:
        return None
    masks, sizes = map(np.concatenate, zip(*pieces))
    top = int(masks.max()).bit_length()  # the largest element, unless one repeats
    m = top if m is None else m
    if not 1 <= m <= MAX_M or top > m or np.any(popcounts(m)[masks] != sizes):  # a repeated element carries
        return None
    masks.sort()
    if np.any(masks[1:] == masks[:-1]):
        return None
    return SetFamily(m, masks)


def _canonical_lines(b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(masks, sizes) of the set lines in b, whole lines that end in "\\n":
    each line's mask and its count of elements; None if the lines break
    the format."""
    newline, dash, digit = b == ord("\n"), b == ord("-"), b - np.uint8(ord("0"))
    sep = newline | (b == ord(","))
    head = np.concatenate(([True], sep[:-1]))  # the byte starts a token
    line_head = np.concatenate(([True], newline[:-1]))
    bad = (
        (sep & head)  # an empty token or a blank line
        | ~(sep | dash | (digit <= 9))
        | (head & (digit == 0))  # "0", or a leading zero
        | (dash & ~(line_head & np.append(newline[1:], True)))  # "-" not alone on its line
    )
    if bad.any() or np.any(~sep[2:] & ~sep[1:-1] & ~sep[:-2]):  # or a token of 3+ bytes
        return None
    digit[dash] = 0
    digit[1:] += 10 * digit[:-1] * ~head[1:]  # a two-byte token's value, at its last byte
    ends = np.flatnonzero(sep[1:])  # the last byte of each token
    element = digit[ends]
    heads = np.concatenate(([0], np.flatnonzero(newline[1:][ends[:-1]]) + 1))
    sizes = np.diff(np.append(heads, len(element))) - (element[heads] == 0)  # a "-" line has 0
    if element.max() > MAX_M or sizes.max() > MAX_M:  # a line of more than MAX_M elements repeats one
        return None
    bits = np.left_shift(1, element, dtype=np.int64)
    bits >>= 1  # "-" is element 0 and adds no bit
    return np.add.reduceat(bits, heads), sizes.astype(np.uint8)


def _parse_lines(text: str) -> SetFamily:
    """The family of any family file, read line by line.  The masks, which
    may be huge, are built once every check has passed."""
    m = None
    sets: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("m="):
            if sets:
                raise ValueError(f"line {lineno}: header must precede all sets")
            if m is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            m = _decimal(lineno, "m", line[2:].strip())
            if m < 1:
                raise ValueError(f"line {lineno}: m must be >= 1")
            continue
        sets.append(_set_elements(lineno, line))
    if not sets:
        raise ValueError("family file contains no sets")
    tops = [max(elems, default=0) for elems in sets]
    if m is None:
        if not any(tops):
            raise ValueError("cannot infer m from a family of only empty sets; add an m= header")
        m = max(tops)
    for top in tops:
        if top > m:
            raise ValueError(f"element {top} exceeds m={m}")
    check_m(m)
    members = np.sort(np.array([sum(1 << (e - 1) for e in elems) for elems in sets], dtype=np.int64))
    if np.any(members[1:] == members[:-1]):
        raise ValueError("duplicate sets in family file")
    return SetFamily(m, members)


def serialize_family(family: SetFamily) -> str:
    """The canonical file of a family: an "m=<m>" header, then one line per
    member, its elements ascending and comma-separated, or "-" if empty.

    A line joins two pieces, gathered by numpy from two tables: the
    "e1,e2,...," name of the member's low k = m // 2 bits, or that name
    ending the line ("-\\n" for the empty set) when the high m - k bits are
    empty, and the name of the high bits, which ends the line."""
    m, k = family.m, family.m // 2
    low, high = [""], [""]  # names of the masks over elements 1..k and k+1..m, bit i for the i-th
    for e in range(1, m + 1):
        names = low if e <= k else high
        names += [name + f"{e}," for name in names]
    # the 2^k low names that end a line, then the 2^k that go on to a high name
    low = np.array(["-\n", *(name[:-1] + "\n" for name in low[1:]), *low], dtype=object)
    high = np.array(["", *(name[:-1] + "\n" for name in high[1:])], dtype=object)
    x = family.members
    pieces = np.empty(2 * len(x) + 1, dtype=object)
    pieces[0] = f"m={m}\n"
    pieces[1::2] = low[(x & ((1 << k) - 1)) + (x >> k != 0) * (1 << k)]
    pieces[2::2] = high[x >> k]
    return "".join(pieces.tolist())


# ---------------------------------------------------------------------------
# Function files: header "m=<int> count=<n>", then n blocks of 2^m
# decimal values in mask-index order (element i contributes bit 2^(i-1)).


def parse_functions(text: str) -> list[CubeFunction]:
    lines = [ln.split("#", 1)[0] for ln in text.splitlines()]
    tokens = " ".join(lines).split()
    if len(tokens) < 2 or not tokens[0].startswith("m=") or not tokens[1].startswith("count="):
        raise ValueError('function file must start with a "m=<int> count=<n>" header')
    located = ((lineno, token) for lineno, line in enumerate(lines, start=1) for token in line.split())
    (m_line, _), (n_line, _) = itertools.islice(located, 2)  # the lines of the header's two tokens
    m, n = _decimal(m_line, "m", tokens[0][2:]), _decimal(n_line, "count", tokens[1][6:])
    check_m(m)  # before n << m, which a huge m overflows
    if n < 1:
        raise ValueError(f"need count >= 1, got {n}")
    values = [float(tok) for tok in tokens[2:]]
    bad = [tok for tok, value in zip(tokens[2:], values) if not math.isfinite(value)]
    if bad:  # nan, inf or an overflow like 1e400: the JSON output could not say it
        raise ValueError(f"non-finite value {bad[0]!r}")
    if len(values) != n << m:
        raise ValueError(f"expected {n << m} values, got {len(values)}")
    size = 1 << m
    return [CubeFunction(m, values[j * size : (j + 1) * size], REAL) for j in range(n)]


def serialize_functions(fs: list[CubeFunction]) -> str:
    m = fs[0].m
    out = [f"m={m} count={len(fs)}"]
    for f in fs:
        out.append(" ".join(repr(v) for v in f.table.tolist()))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _cmd_exponent(args) -> int:
    p = exponent(args.n)
    _emit({"n": args.n, "p": p, "r": p - 1.0, "c": args.n / p})
    return EXIT_OK


def _cmd_count(args) -> int:
    with open(args.family, encoding="utf-8") as fh:
        family = parse_family(fh.read())
    report = counting.bound_report(family, args.n, method=args.method)
    payload = dataclasses.asdict(report)
    payload["m"] = family.m
    payload["method"] = args.method
    payload["bound_slack"] = counting.BOUND_SLACK
    if report.count == 0:
        payload["log_count"] = None
    _emit(payload)
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    if args.functions is not None:
        with open(args.functions, encoding="utf-8") as fh:
            fs = parse_functions(fh.read())
        check = verifier.check_main_inequality(fs)
        _emit(
            {
                "mode": "functions",
                "n": len(fs),
                "m": fs[0].m,
                "lhs": check.lhs,
                "rhs": check.rhs,
                "max_ratio": check.ratio,
                "failures": 0 if check.passed else 1,
                "rel_tol": verifier.REL_TOL,
                "abs_tol": verifier.ABS_TOL,
            }
        )
        return EXIT_OK if check.passed else EXIT_VIOLATION
    if args.witness:
        fs = verifier.equality_witness(args.n, args.m)
        check = verifier.check_main_inequality(fs)
        tol = 1e-9 * max(1, args.m)
        ok = check.ratio is not None and abs(check.ratio - 1.0) <= tol
        _emit(
            {
                "mode": "witness",
                "n": args.n,
                "m": args.m,
                "max_ratio": check.ratio,
                "ratio_tol": tol,
                "failures": 0 if ok else 1,
            }
        )
        return EXIT_OK if ok else EXIT_VIOLATION
    fields = dataclasses.fields(verifier.TrialConfig)  # each one has the option of its name
    report = verifier.run_trials(verifier.TrialConfig(**{f.name: getattr(args, f.name) for f in fields}))
    report["mode"] = "trials"
    _emit(report)
    return EXIT_OK if report["failures"] == 0 else EXIT_VIOLATION


def _cmd_extremal(args) -> int:
    family = counting.extremal_family(args.n, args.t)
    report = counting.bound_report(family, args.n)
    _emit(
        {
            "n": args.n,
            "t": args.t,
            "m": family.m,
            "family_size": report.family_size,
            "count": report.count,
            "ratio": report.ratio,
            "c": args.n / exponent(args.n),
            "holds": report.holds,
        }
    )
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_lemma(args) -> int:
    exponent(args.n)  # refuses n before --k is read
    if args.action == "solve":
        if args.k is None:
            raise ValueError("lemma solve requires --k")
        report = lemma_lab.solve_critical_system(args.n, args.k)
        payload = dataclasses.asdict(report)
        payload["residual_tol"] = lemma_lab.RESIDUAL_TOL
        payload["identity_tol"] = lemma_lab.IDENTITY_TOL
        _emit(payload)
        if report.status != "ok":
            return EXIT_OK  # inadmissible (n, k) is information, not failure
        bad = (
            report.residual_eq1 > lemma_lab.RESIDUAL_TOL
            or report.identity_gap > lemma_lab.IDENTITY_TOL
            or report.last_value < -lemma_lab.RESIDUAL_TOL
        )
        return EXIT_VIOLATION if bad else EXIT_OK
    report = lemma_lab.scan_last_value(args.n, grid=args.grid)
    report["per_k"] = {str(k): v for k, v in report["per_k"].items()}
    _emit(report)
    return EXIT_OK if report["min_last_value"] >= -lemma_lab.RESIDUAL_TOL else EXIT_VIOLATION


@functools.cache  # built on the first call, not at import; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeconv",
        description="Subset convolution on the Hamming cube, disjoint-union tuple "
        "counting, and numerical inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="print the sharp exponent p_n and c = n/p_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("count", help="count disjoint-union tuples in a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["fast", "brute"], default="fast")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="randomized checks of the corner inequality")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distribution", choices=list(verifier.DISTRIBUTIONS), default="uniform")
    p.add_argument("--density", type=float, default=0.25, help="P(value != 0) for sparse draws")
    p.add_argument("--signed", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--witness", action="store_true", help="check the tight tensor witness instead")
    mode.add_argument("--functions", help="check one explicit tuple from a function file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="layered extremal family report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("lemma", help="critical-point solve or grid scan")
    p.add_argument("action", choices=["solve", "scan"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=_cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
