"""Command-line interface: count, enum, apply, orbit, verify, golden, convert.

``enum``, ``orbit`` and ``convert --to ncp`` materialize a whole slope (the
paths, or the chain table, which has one chain per path).  They take
``--max-domain`` (default 250,000, which admits (1,1) n=12) and refuse a
slope with more paths than that before anything is enumerated.

Exit codes: 0 all good, 1 verification failure, 2 bad input or a refused
domain, 3 a broken internal invariant (a library defect).
"""

from __future__ import annotations

import argparse
import json
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
from .registry import CHAIN_MAPS, apply_map, default_suite, verify
from .registry import orbit_table as registry_orbits


def _slope(args) -> Slope:
    return Slope(args.a, args.b, args.n)


def _read_path(args, slope: Slope) -> RationalDyckPath:
    if args.path:
        return path_from_steps(slope, parse_steps(args.path))
    if getattr(args, "word", None):
        return path_from_word(slope, args.word)
    raise ValueError("a path is required (--path or --word)")


def _check_domain(args, slope: Slope) -> None:
    """Refuse a slope with more than ``--max-domain`` paths.  Path counts grow
    with n (prefixing a path with a up and b right steps is injective), so
    the sizes are counted from 1 up and the first one past the limit decides:
    a huge n is refused as fast as a small one."""
    for m in range(1, slope.n + 1):
        if count_paths(Slope(slope.a, slope.b, m)) > args.max_domain:
            raise ValueError(
                f"({slope.a},{slope.b}) n={slope.n} has more than {args.max_domain} paths; "
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
    power = args.power
    if args.ncp:
        chain = nc.parse_chain(args.ncp, slope.n)
        if chain.k != slope.b or slope.a != 1:
            raise ValueError(
                f"chain with {chain.k} layers needs slope (1,{chain.k}), got ({slope.a},{slope.b})"
            )
        if args.map not in CHAIN_MAPS:
            raise ValueError(f"map {args.map!r} does not act on chains")
        fn, inv = CHAIN_MAPS[args.map]
        step = fn if power >= 0 else inv
        if step is None:
            raise ValueError(f"map {args.map!r} has no registered inverse")
        for _ in range(abs(power)):
            chain = step(chain)
        _emit(args, [str(chain)], {"chain": str(chain)})
        return 0
    p = _read_path(args, slope)
    out = apply_map(args.map, slope, p, power)
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
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    if args.identity:
        slope = _slope(args)
        reports = [verify(args.identity, slope)]
    else:
        reports = default_suite(max_n=args.max_n)
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


def cmd_convert(args) -> int:
    slope = _slope(args)
    if args.perm:
        w = parse_permutation(args.perm)
        p = e_p(w)
    elif args.ncp:
        p = nc.ncp_to_dyck(nc.parse_chain(args.ncp, slope.n))
    elif args.matching:
        p = pm_inverse(parse_matching(args.matching, slope.total_steps), slope)
    else:
        p = _read_path(args, slope)

    target = args.to
    if target == "path":
        out_text, payload = p.steps_str(), p.to_json()
    elif target == "word":
        out_text, payload = p.word, {"word": p.word}
    elif target == "tableau":
        t = to_tableau(p)
        out_text = f"{list(t.first_row)} / {list(t.second_row)}"
        payload = {"first_row": list(t.first_row), "second_row": list(t.second_row)}
    elif target == "young":
        rows = young_rows(p)
        out_text, payload = ",".join(map(str, rows)), {"rows": list(rows)}
    elif target == "matching":
        m = pm(p)
        out_text, payload = str(m), m.to_json()
    elif target == "dual-matching":
        m = dpm(p)
        out_text, payload = str(m), m.to_json()
    elif target == "ksequence":
        ks = k_sequence(p)
        out_text, payload = str(ks), {"entries": str(ks)}
    elif target == "ncp":
        _check_domain(args, slope)
        chain = nc.dyck_to_ncp(p)
        out_text, payload = str(chain), {"chain": str(chain)}
    elif target == "perm":
        w = e_p_inverse(p)
        out_text, payload = str(w), {"values": list(w.values)}
    else:
        raise ValueError(f"unknown conversion target {target!r}")
    _emit(args, [out_text], payload)
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
    sp.add_argument("--identity")
    sp.add_argument("--max-n", type=int, default=None)
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
    sp.add_argument(
        "--to",
        required=True,
        choices=(
            "path", "word", "tableau", "young", "matching",
            "dual-matching", "ksequence", "ncp", "perm",
        ),
    )
    sp.set_defaults(fn=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
