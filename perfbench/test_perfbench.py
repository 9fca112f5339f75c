"""Self-tests of the benchmark: the correctness gate rejects perturbed
outputs, a failed check fails the run, and tracing leaves coordlab as it
found it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import signal
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _unit(workload, key):
    return next(u for u in workload.units if str(u[0]) == key)


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_frontier_gate_rejects_a_value_moved_past_its_gap(tmp_path, reference):
    wl = workloads.FrontierTwoNode(run.ROOT, 0, str(tmp_path))
    ref = reference[wl.name]["0"]
    res = wl.run_unit(_unit(wl, "0"), None)
    assert wl.verify(res, ref) == []
    op = res.ops[4]
    moved = op.out.R1 + op.out.certificate + ref["gap"][4] + 1e-9
    op.out = dataclasses.replace(op.out, R1=moved)
    errors = wl.verify(res, ref)
    assert any("point 4" in e for e in errors)


def test_cascade_gate_rejects_a_moved_objective(tmp_path, reference):
    wl = workloads.FrontierCascade(run.ROOT, 0, str(tmp_path))
    unit = _unit(wl, "cascade_small")
    res = wl.run_unit(unit[:3] + ((0.1,),) + unit[4:], None)
    ref = dict(reference[wl.name]["cascade_small"])
    ref = {"deltas": ref["deltas"][1:2], "calls": ref["calls"][1:2]}
    assert wl.verify(res, ref) == []
    point = res.ops[0].out[0]
    res.ops[0].out[0] = dataclasses.replace(point, R1=point.R1 + 1e-6, R2=point.R2 + 1e-6)
    assert any("weighted minimum" in e for e in wl.verify(res, ref))


def test_cascade_gate_rejects_a_dropped_frontier_point(tmp_path, reference):
    # the recorded 33-point frontier of the random instance at delta*/2, as
    # points whose argmin is the target itself (inside every delta ball)
    wl = workloads.FrontierCascade(run.ROOT, 0, str(tmp_path))
    _, _, tgt, _, _ = _unit(wl, "random0")
    ref = reference[wl.name]["random0"]
    ref = {"deltas": ref["deltas"][1:2], "calls": ref["calls"][1:2]}
    points = [
        SimpleNamespace(
            R1=p["R1"], R2=p["R2"], lam=p["lam"], certificate=p["gap"],
            delta=ref["deltas"][0], argmin_conditional=tgt,
        )
        for p in ref["calls"][0]
    ]
    res = workloads.UnitResult("random0", 1.0, [workloads.Op(1.0, out=points)],
                               {"deltas": ref["deltas"]})
    assert len(points) == 33 and wl.verify(res, ref) == []
    del points[16]
    assert any("weighted minimum" in e for e in wl.verify(res, ref))


def test_simulate_gate_rejects_one_flipped_byte(tmp_path, reference):
    wl = workloads.CodebookMC(run.ROOT, 0, str(tmp_path))
    ref = reference[wl.name]["symbol_cascade"]
    res = wl.run_unit(_unit(wl, "symbol_cascade"), None)
    assert wl.verify(res, ref) == []
    csv = bytearray(res.ops[0].out["blobs"]["csv"])
    csv[len(csv) // 2] ^= 0x01
    res.ops[0].out["blobs"]["csv"] = bytes(csv)
    errors = wl.verify(res, ref)
    assert len(errors) == 1 and "simulation.csv" in errors[0]


def test_oracle_gate_rejects_an_optimum_off_by_one_ulp(tmp_path, reference):
    wl = workloads.OracleScan(run.ROOT, 0, str(tmp_path))
    ref = reference[wl.name]["scan0"]
    res = wl.run_unit(_unit(wl, "scan0"), None)
    assert wl.verify(res, ref) == []
    row = next(r for r in res.ops[0].out["rows"] if r["achieved_tv"] is not None)
    row["achieved_tv"] = float(np.nextafter(row["achieved_tv"], np.inf))
    assert any("exhaustive optima" in e for e in wl.verify(res, ref))


class _Stub(workloads.Workload):
    name = "stub"
    verdict: list = []

    def make_units(self):
        return [("u0",)]

    def run_unit(self, unit, deadline):
        return workloads.UnitResult("u0", 0.01, [workloads.Op(0.01, out=1.0)])

    def verify(self, res, ref):
        return list(self.verdict)


@pytest.mark.parametrize("verdict, code", [([], 0), (["perturbed output"], 1)])
def test_a_failed_check_fails_the_run(tmp_path, capsys, verdict, code):
    wl = _Stub(run.ROOT, 0, str(tmp_path))
    wl.verdict = verdict
    args = SimpleNamespace(workload="stub", seed=0, seconds=1.0, trace=1)
    assert run.measure(args, wl, {"u0": {}}) == code
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is (code == 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.PER_LAYER)


def _targets():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in spans.TARGETS
    }


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _targets()
    wl = workloads.OracleScan(run.ROOT, 0, str(tmp_path))
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(
                getattr(importlib.import_module(m), a) is not f
                for (m, a), f in before.items()
            )
            wl.run_unit(_unit(wl, "grid0_0.05"), None)
            1 / 0
    after = _targets()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert "oracle.grid_min_mi" in names
    assert all(s.end >= s.start for s in tracer.spans)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans += [
        spans.Span(0, None, "a", None, 0.0, 10.0),
        spans.Span(1, 0, "b", None, 1.0, 4.0),
        spans.Span(2, 0, "c", None, 5.0, 6.0),
        spans.Span(3, 1, "d", None, 2.0, 3.0),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_speed_probe_samples_and_restores_sigprof():
    before = signal.getsignal(signal.SIGPROF)
    probe = run.SpeedProbe()
    with probe:
        stop = time.process_time() + 4 * run.PROBE_INTERVAL_S
        while time.process_time() < stop:
            pass
    assert len(probe.samples) >= 2 and all(s > 0 for s in probe.samples)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
