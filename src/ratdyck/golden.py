"""Embedded reference tables for the twelve (1,2)-paths of size three.

Each table stores orbits as cycles, involutions as pairings, and the chain
correspondence, and ``golden_suite`` replays them byte-for-byte against the
library maps.
"""

from __future__ import annotations

import time
from functools import partial

from . import noncrossing as nc
from .matching_map import mat
from .paths import RationalDyckPath, Slope, path_from_steps
from .promotion import evacuation_fast, promotion
from .registry import VerificationReport
from .rowmotion import dual_rowvacuation, rowmotion, rowvacuation
from .tilings import rsk_hat_inverse

SLOPE = Slope(1, 2, 3)

CHAIN_TABLE = {
    "147": "1/2/3;1/2/3",
    "146": "1/2.3;1/2/3",
    "145": "1/2.3;1/2.3",
    "137": "1.2/3;1/2/3",
    "136": "1.2.3;1/2/3",
    "135": "1.2.3;1/2.3",
    "134": "1.3/2;1/2/3",
    "127": "1.2/3;1.2/3",
    "126": "1.2.3;1.2/3",
    "125": "1.2.3;1.2.3",
    "124": "1.3/2;1.3/2",
    "123": "1.2.3;1.3/2",
}

PROMOTION_ORBITS = [
    ["147", "136", "125"],
    ["146", "135", "124", "137", "126", "145", "134", "123", "127"],
]

EVACUATION_PAIRS = {
    "147": "147", "146": "127", "145": "137", "136": "125",
    "135": "123", "134": "124", "126": "126",
}

KRE_PARTITION_ORBITS = [
    ["1/2/3", "1.2.3"],
    ["1.2/3", "1/2.3", "1.3/2"],
]

KRE_PATH_ORBITS = [
    ["147", "125"],
    ["136"],
    ["146", "123", "137", "135", "134", "126"],
    ["145", "124", "127"],
]

SU_PARTITION_PAIRS = {"1/2/3": "1.2.3", "1.2/3": "1.2/3", "1/2.3": "1.3/2"}

SU_PATH_PAIRS = {
    "147": "125", "146": "123", "145": "124", "137": "126",
    "136": "136", "134": "135", "127": "127",
}

LK_PARTITION_PAIRS = {"1/2/3": "1.2.3", "1.2/3": "1.3/2", "1/2.3": "1/2.3"}

LK_PATH_PAIRS = {
    "147": "125", "146": "135", "145": "145", "137": "123",
    "136": "136", "134": "126", "127": "124",
}

ROWMOTION_ORBITS = [
    ["145", "137", "126"],
    ["147", "136", "125", "134", "127", "146", "135", "124", "123"],
]

ROWVACUATION_PAIRS = {
    "147": "134", "146": "124", "145": "137", "136": "125",
    "135": "135", "127": "123", "126": "126",
}

DUAL_ROWVACUATION_PAIRS = {
    "147": "123", "146": "134", "145": "145", "137": "126",
    "136": "124", "135": "125", "127": "127",
}

MAT_ORBITS = [
    ["147", "146", "126", "125", "123", "135", "137"],
    ["145", "136", "127"],
    ["134"],
    ["124"],
]

RSK_INVERSE_ORBITS = [
    ["147", "126", "134", "136", "137", "127", "123"],
    ["146", "124"],
    ["145", "125"],
    ["135"],
]


def _p(code: str) -> RationalDyckPath:
    return path_from_steps(SLOPE, [int(c) for c in code])


def _code(p: RationalDyckPath) -> str:
    return "".join(str(u) for u in p.steps)


# (parse, show) between the table entries and the objects they name
PATH = (_p, _code)
PARTITION = (lambda text: nc.parse_ncp(text, 3), str)


def _check_orbits(fn, orbits, code) -> list[str]:
    parse, show = code
    bad = []
    for orbit in orbits:
        for src, dst in zip(orbit, orbit[1:] + orbit[:1]):
            got = show(fn(parse(src)))
            if got != dst:
                bad.append(f"{src}->{got} (expected {dst})")
    return bad


def _check_pairs(fn, pairs, code) -> list[str]:
    parse, show = code
    bad = []
    for src, dst in pairs.items():
        got = show(fn(parse(src)))
        if got != dst:
            bad.append(f"{src}->{got} (expected {dst})")
        back = show(fn(parse(dst)))
        if back != src:
            bad.append(f"{dst}->{back} (expected {src})")
    return bad


def _check_chain_table() -> list[str]:
    bad = []
    for code, literal in CHAIN_TABLE.items():
        chain = nc.parse_chain(literal)
        if nc.ncp_to_dyck(chain) != _p(code):
            bad.append(f"chain {literal} != path {code}")
        if str(nc.dyck_to_ncp(_p(code))) != literal:
            bad.append(f"path {code} != chain {literal}")
    return bad


def golden_suite() -> list[VerificationReport]:
    tables = [
        ("golden-chain-table", len(CHAIN_TABLE), _check_chain_table),
        ("golden-promotion", 12, lambda: _check_orbits(promotion, PROMOTION_ORBITS, PATH)),
        ("golden-evacuation", 12, lambda: _check_pairs(evacuation_fast, EVACUATION_PAIRS, PATH)),
        ("golden-kre-partitions", 5,
         lambda: _check_orbits(nc.kre_partition, KRE_PARTITION_ORBITS, PARTITION)),
        ("golden-kre", 12,
         lambda: _check_orbits(partial(nc.transport, nc.kre), KRE_PATH_ORBITS, PATH)),
        ("golden-su", 12,
         lambda: _check_pairs(nc.su_partition, SU_PARTITION_PAIRS, PARTITION)
         + _check_pairs(partial(nc.transport, nc.su), SU_PATH_PAIRS, PATH)),
        ("golden-lk", 12,
         lambda: _check_pairs(nc.lk_partition, LK_PARTITION_PAIRS, PARTITION)
         + _check_pairs(partial(nc.transport, nc.lk), LK_PATH_PAIRS, PATH)),
        ("golden-rowmotion", 12, lambda: _check_orbits(rowmotion, ROWMOTION_ORBITS, PATH)),
        ("golden-rowvacuation", 12,
         lambda: _check_pairs(rowvacuation, ROWVACUATION_PAIRS, PATH)),
        ("golden-dual-rowvacuation", 12,
         lambda: _check_pairs(dual_rowvacuation, DUAL_ROWVACUATION_PAIRS, PATH)),
        ("golden-mat", 12, lambda: _check_orbits(mat, MAT_ORBITS, PATH)),
        ("golden-rsk-inverse", 12,
         lambda: _check_orbits(rsk_hat_inverse, RSK_INVERSE_ORBITS, PATH)),
    ]
    reports = []
    for name, size, check in tables:
        start = time.perf_counter()
        bad = check()
        reports.append(VerificationReport(
            identity=name,
            a=SLOPE.a,
            b=SLOPE.b,
            n=SLOPE.n,
            domain_size=size,
            status="pass" if not bad else "fail",
            counterexamples=bad[:10],
            seconds=time.perf_counter() - start,
        ))
    return reports
