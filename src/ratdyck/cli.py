"""Command-line interface: count, enum, apply, orbit, verify, golden, convert.

``enum``, ``orbit``, ``verify --identity``, ``convert --to ncp`` and
``apply`` of a chain map to a path materialize a whole slope (the paths, or
a chain table, which has one chain per path).  They take ``--max-domain``
(default 250,000, which admits (1,1) n=12) and refuse a slope with more
paths (or words, for ``step-bound-geometry``) than that before anything is
enumerated; ``count-enumeration`` counts only the paths it enumerates,
those of slopes with at most 200,000, and the (bn+1)(an+1) lattice points
of its DP count.  Chain maps applied to a chain are not limited.

Exit codes: 0 all good, 1 verification failure, 2 bad input or a refused
domain, 3 a broken internal invariant (a library defect), 141 standard
output closed by its reader (128 + SIGPIPE, as a shell reports a writer
killed by that signal).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import noncrossing as nc
from .golden import golden_suite
from .matching_map import k_sequence
from .matchings import dpm, pm, pm_inverse, parse_matching
from .paths import (
    InvariantError,
    RationalDyckPath,
    Slope,
    count_paths,
    enumerate_paths,
    parse_steps,
    path_from_steps,
    path_from_word,
    to_tableau,
    young_rows,
)
from .perms import e_p, e_p_inverse, parse_permutation
from .registry import CHAIN_MAPS, apply_map, default_suite, identity, verify
from .registry import orbit_table as registry_orbits


def _slope(args) -> Slope:
    return Slope(args.a, args.b, args.n)


def _given(args, option: str) -> bool:
    """Whether the literal ``--option`` was given; an empty one is refused,
    since no object of any slope is written as the empty string."""
    value = getattr(args, option)
    if value == "":
        raise ValueError(f"--{option} is empty")
    return value is not None


def _read_path(args, slope: Slope) -> RationalDyckPath:
    if _given(args, "path"):
        return path_from_steps(slope, parse_steps(args.path))
    if _given(args, "word"):
        return path_from_word(slope, args.word)
    raise ValueError("a path is required (--path or --word)")


def _read_chain(args, slope: Slope) -> nc.NonCrossingChain:
    """The ``--ncp`` chain on [1, n]; a chain of k layers needs slope (1,k)."""
    chain = nc.parse_chain(args.ncp, slope.n)
    if (slope.a, slope.b) != (1, chain.k):
        raise ValueError(
            f"chain with {chain.k} layers needs slope (1,{chain.k}), got ({slope.a},{slope.b})"
        )
    return chain


def _check_domain(args, slope: Slope, what="paths", size=count_paths) -> None:
    """Refuse a slope with more than ``--max-domain`` objects (``what``, as
    ``size`` counts them).  Path and word counts grow with n (prefixing a up
    and b right steps is injective), so the sizes are counted from 1 up and
    the first one past the limit decides: a huge n is refused at once."""
    for m in range(1, slope.n + 1):
        if size(Slope(slope.a, slope.b, m)) > args.max_domain:
            raise ValueError(
                f"{slope} has more than {args.max_domain} {what}; "
                f"raise --max-domain to enumerate it"
            )


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_count(args) -> int:
    slope = _slope(args)
    value = count_paths(slope)
    _emit(args, [str(value)], {"a": slope.a, "b": slope.b, "n": slope.n, "count": value})
    return 0


def cmd_enum(args) -> int:
    slope = _slope(args)
    _check_domain(args, slope)
    paths = enumerate_paths(slope)
    _emit(args, [str(p) for p in paths], [p.to_json() for p in paths])
    return 0


def cmd_apply(args) -> int:
    slope = _slope(args)
    if _given(args, "ncp"):
        chain = _read_chain(args, slope)
        chain = apply_map(args.map, slope, chain, args.power)
        _emit(args, [str(chain)], {"chain": str(chain)})
        return 0
    if args.map in CHAIN_MAPS:  # carried to paths through the chain table
        _check_domain(args, slope)
    p = _read_path(args, slope)
    out = apply_map(args.map, slope, p, args.power)
    _emit(args, [out.steps_str()], out.to_json())
    return 0


def cmd_orbit(args) -> int:
    slope = _slope(args)
    _check_domain(args, slope)
    cycles = registry_orbits(args.map, slope)
    lines = [" -> ".join(c) for c in cycles]
    _emit(args, lines, {"map": args.map, "cycles": cycles})
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--max-n", args.max_n), ("--profile", args.profile)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    profiler = None
    if args.profile:  # the profiler is imported only when asked for
        import cProfile

        profiler = cProfile.Profile()
    with profiler or contextlib.nullcontext():
        if args.identity:
            slope = _slope(args)
            for what, size in identity(args.identity).walks:
                _check_domain(args, slope, what, size)
            reports = [verify(args.identity, slope)]
        else:
            reports = default_suite(max_n=args.max_n)
    if profiler:  # the top functions by self time, to stderr only
        import pstats

        pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(args.profile)
    lines = []
    ok = True
    for r in reports:
        mark = "PASS" if r.status == "pass" else "FAIL"
        note = "" if r.ok else "  [UNEXPECTED]"
        if r.expected == "fail":
            note = "  [expected failure]" if r.status == "fail" else "  [UNEXPECTED]"
        ok = ok and r.ok
        lines.append(
            f"{mark} {r.identity} ({r.a},{r.b}) n={r.n} over {r.domain_size} "
            f"objects in {r.seconds:.2f}s{note}"
        )
        for c in r.counterexamples:
            lines.append(f"      counterexample: {c}")
    _emit(args, lines, [r.to_json() for r in reports])
    return 0 if ok else 1


def cmd_golden(args) -> int:
    reports = golden_suite()
    ok = all(r.status == "pass" for r in reports)
    lines = [
        f"{'PASS' if r.status == 'pass' else 'FAIL'} {r.identity} "
        f"({r.domain_size} entries, {r.seconds:.2f}s)"
        + "".join(f"\n      {c}" for c in r.counterexamples)
        for r in reports
    ]
    _emit(args, lines, [r.to_json() for r in reports])
    return 0 if ok else 1


def _shown(x) -> tuple[str, object]:
    return str(x), x.to_json()


def _named(key: str, text: str) -> tuple[str, dict]:
    return text, {key: text}


def _tableau(p: RationalDyckPath) -> tuple[str, dict]:
    t = to_tableau(p)
    first, second = list(t.first_row), list(t.second_row)
    return f"{first} / {second}", {"first_row": first, "second_row": second}


def _young(p: RationalDyckPath) -> tuple[str, dict]:
    rows = list(young_rows(p))
    return ",".join(map(str, rows)), {"rows": rows}


def _perm(p: RationalDyckPath) -> tuple[str, dict]:
    w = e_p_inverse(p)
    return str(w), {"values": list(w.values)}


# each ``convert --to`` target: a path's text line and its JSON payload
CONVERSIONS = {
    "path": _shown,
    "word": lambda p: _named("word", p.word),
    "tableau": _tableau,
    "young": _young,
    "matching": lambda p: _shown(pm(p)),
    "dual-matching": lambda p: _shown(dpm(p)),
    "ksequence": lambda p: _named("entries", str(k_sequence(p))),
    "ncp": lambda p: _named("chain", str(nc.dyck_to_ncp(p))),
    "perm": _perm,
}


def cmd_convert(args) -> int:
    slope = _slope(args)
    if _given(args, "perm"):
        w = parse_permutation(args.perm)
        if (slope.a, slope.b, slope.n) != (1, 1, w.n):
            raise ValueError(f"permutation of length {w.n} needs slope (1,1) n={w.n}, got {slope}")
        p = e_p(w)
    elif _given(args, "ncp"):
        p = nc.ncp_to_dyck(_read_chain(args, slope))
    elif _given(args, "matching"):
        p = pm_inverse(parse_matching(args.matching, slope.total_steps), slope)
    else:
        p = _read_path(args, slope)

    if args.to == "ncp":  # the chain table holds one chain per path
        _check_domain(args, slope)
    text, payload = CONVERSIONS[args.to](p)
    _emit(args, [text], payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratdyck",
        description="Rational Dyck paths and their bijective dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def slope_args(sp, required=True):
        sp.add_argument("--a", type=int, required=required, default=1)
        sp.add_argument("--b", type=int, required=required, default=1)
        sp.add_argument("--n", type=int, required=required, default=1)
        sp.add_argument("--format", choices=("text", "json"), default="text")

    def max_domain_arg(sp):
        sp.add_argument("--max-domain", type=int, default=250_000,
                        help="refuse slopes with more paths than this")

    sp = sub.add_parser("count", help="number of paths of a slope")
    slope_args(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("enum", help="list all paths of a slope")
    slope_args(sp)
    max_domain_arg(sp)
    sp.set_defaults(fn=cmd_enum)

    sp = sub.add_parser("apply", help="apply a named map to a path or chain")
    slope_args(sp)
    max_domain_arg(sp)
    sp.add_argument("--map", required=True)
    sp.add_argument("--power", type=int, default=1)
    sp.add_argument("--path")
    sp.add_argument("--word")
    sp.add_argument("--ncp")
    sp.set_defaults(fn=cmd_apply)

    sp = sub.add_parser("orbit", help="cycle decomposition of a map on a slope")
    slope_args(sp)
    max_domain_arg(sp)
    sp.add_argument("--map", required=True)
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("verify", help="run one identity or the whole default suite")
    slope_args(sp, required=False)
    max_domain_arg(sp)
    sp.add_argument("--identity")
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--profile", type=int, metavar="N",
                    help="print the N functions with the most self time to stderr")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("golden", help="replay the embedded reference tables")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_golden)

    sp = sub.add_parser("convert", help="convert between path encodings")
    slope_args(sp)
    max_domain_arg(sp)
    sp.add_argument("--path")
    sp.add_argument("--word")
    sp.add_argument("--ncp")
    sp.add_argument("--perm")
    sp.add_argument("--matching")
    sp.add_argument("--to", required=True, choices=tuple(CONVERSIONS))
    sp.set_defaults(fn=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_domain", 0) < 0:
            raise ValueError(f"--max-domain must be at least 0, got {args.max_domain}")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: point standard output at the null device so
        # that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ArithmeticError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
