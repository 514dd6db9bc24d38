"""Tests of the benchmark's own machinery: the path sampler, the tracer and
the host-speed meter.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import statistics

import pytest

import probe
from sampler import PathSampler
from tracer import TRACED, Tracer, resolve
from workloads import LargeMaps

pa = importlib.import_module("ratdyck.paths")
rg = importlib.import_module("ratdyck.registry")


@pytest.mark.parametrize("a,b,n", [(2, 3, 2), (1, 1, 5), (1, 2, 4), (3, 2, 2), (2, 5, 2)])
def test_unrank_is_enumeration_order(a, b, n):
    slope = pa.Slope(a, b, n)
    sampler = PathSampler(slope)
    expected = [p.steps for p in pa.enumerate_paths(slope)]
    assert [sampler.unrank(r) for r in range(sampler.count)] == expected
    with pytest.raises(ValueError):
        sampler.unrank(sampler.count)


def _input_bytes(seed: int) -> bytes:
    ops = LargeMaps().prepare(seed)
    return json.dumps([[name, [s.a, s.b, s.n], list(p.steps)] for name, s, p in ops]).encode()


def test_same_seed_same_inputs():
    assert _input_bytes(7) == _input_bytes(7)
    assert _input_bytes(7) != _input_bytes(8)


def test_tracer_patches_every_binding_and_restores_it():
    slope = pa.Slope(1, 2, 3)
    plain = [rg.verify(name, slope).counterexamples for name in ("pm-rot", "mat-roundtrip")]
    evacuation = rg.PATH_MAPS["evacuation"]
    originals = {name: resolve(name) for name in TRACED}
    tracer = Tracer()
    tracer.install()
    try:
        # bindings made by ``from .x import f`` and the registry's captures
        assert importlib.import_module("ratdyck.golden").promotion is not originals["promotion.promotion"]
        assert importlib.import_module("ratdyck").pm is not originals["matchings.pm"]
        assert rg.PATH_MAPS["evacuation"].fn is not evacuation.fn
        traced = [rg.verify(name, slope).counterexamples for name in ("pm-rot", "mat-roundtrip")]
        rg.apply_map("evacuation", slope, pa.enumerate_paths(slope)[0])
    finally:
        tracer.uninstall()
    assert traced == plain
    report = tracer.report()["functions"]
    for name in ("registry.verify", "matchings.pm", "matching_map.mat", "promotion.toggle",
                 "promotion.evacuation_fast", "paths.RationalDyckPath"):
        assert report[name]["calls"] > 0, name
    assert report["registry.verify"]["calls"] == 2
    assert all(resolve(name) is originals[name] for name in TRACED)
    assert rg.PATH_MAPS["evacuation"] is evacuation


def _busy(seconds: float) -> float:
    end = probe.clock() + seconds
    while probe.clock() < end:
        pass
    return seconds


def test_meter_probes_inside_long_ops_and_takes_them_out():
    meter = probe.Meter()
    meter.start()
    for seconds in [0.001] * 5 + [0.4] + [0.001] * 5:
        assert meter.call(_busy, seconds) == seconds
    meter.pause()
    start = probe.clock()
    _busy(0.2)  # no probe may run while paused
    meter.record(start, probe.clock(), 200.0)
    meter.resume()
    meter.finish()
    assert meter.probes == sorted(meter.probes)
    long_start, long_end = meter.spans[5]
    inside = [(s, e) for s, e in meter.probes if long_start <= s and e <= long_end]
    assert len(inside) >= 3
    assert not [s for s, _ in meter.probes if meter.spans[-1][0] <= s < meter.spans[-1][1]]
    ops = meter.ops_ms()
    # its span less the probes inside
    assert ops[5] == pytest.approx((long_end - long_start - sum(e - s for s, e in inside)) * 1e3)
    assert ops[-1] == 200.0
    factors = meter.factors()
    assert len(ops) == len(factors) == 12
    # the long op is scaled by the mean of its own probes, a short one by
    # the median of the four on each side
    assert factors[5] == pytest.approx(probe.REF_MS / statistics.mean(probe.durations_ms(inside)))
    short_start, short_end = meter.spans[6]
    if not [s for s, e in meter.probes if short_start <= s and e <= short_end]:
        before = [(s, e) for s, e in meter.probes if e <= short_start][-probe.NEAREST:]
        after = [(s, e) for s, e in meter.probes if s >= short_end][:probe.NEAREST]
        assert factors[6] == probe.factor(before + after)


def test_disabled_meter_runs_no_probes():
    meter = probe.Meter(enabled=False)
    meter.start()
    meter.call(_busy, 0.2)
    meter.finish()
    assert meter.probes == [] and meter.factors() == [1.0]
    assert meter.ops_ms()[0] == pytest.approx(200, rel=0.05)
