"""Self-tests of the benchmark harness (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py

Covers the ``BENCHMARK.json`` contract (schema, caps, names), that the file
and the harness agree on every workload and metric name in both directions,
the one-line output schema of a run, and the tracer: nested self-time on
synthetic functions, absent targets, shim restoration, and that class-level
shims leave the fused fleet engaged.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import SPAN_TARGETS, Tracer, resolve_target  # noqa: E402
from workloads import WORKLOADS, canonical_digest  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json -----------------------------------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_command_stays_inside_paths():
    command = BENCH["command"]
    assert 1 <= len(command) <= 32
    for word in command:
        assert len(word) <= 200 and not word.startswith("/")
        assert ".." not in Path(word).parts
    files = [w for w in command if "/" in w]
    assert files and all(f.startswith("benchmarks/perf/") for f in files)


def test_caps_hold():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128


def test_names_units_and_whys_are_well_formed():
    names = []
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_s_is_gated_with_the_largest_bound():
    by_name = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_file_and_harness_agree_in_both_directions():
    assert ({w["name"]: w["why"] for w in BENCH["workloads"]}
            == {w.name: w.why for w in WORKLOADS.values()})
    assert ({m["name"]: m["unit"] for m in BENCH["end_to_end"]}
            == harness.END_TO_END)
    assert ({m["name"]: m["unit"] for m in BENCH["per_layer"]}
            == harness.per_layer_names())


# -- a run's output -----------------------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_run_output_schema(workload):
    for trace, expected in ((0, harness.END_TO_END),
                            (1, harness.per_layer_names())):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(expected)
        for name, unit in expected.items():
            metric = result["metrics"][name]
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit != 0."""
    target = tmp_path / "benchmarks" / "perf"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "fleet_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- tracer -------------------------------------------------------------------------


class _FakeClock:
    """perf_counter stand-in advanced by the synthetic functions."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class _Synthetic:
    clock: _FakeClock

    def outer(self):
        self.clock.now += 1.0       # own work
        self.inner()
        self.inner()
        self.clock.now += 0.5       # own work
        return "done"

    def inner(self):
        self.clock.now += 2.0
        self.leaf()

    def leaf(self):
        self.clock.now += 0.25

    def boom(self):
        self.clock.now += 3.0
        raise KeyError("boom")


def _synthetic_tracer(monkeypatch) -> tuple[Tracer, _FakeClock]:
    clock = _FakeClock()
    monkeypatch.setattr(tracer_module.time, "perf_counter", clock)
    _Synthetic.clock = clock
    path = f"{__name__}._Synthetic"
    return Tracer(targets={"t.outer": f"{path}.outer",
                           "t.inner": f"{path}.inner",
                           "t.leaf": f"{path}.leaf",
                           "t.boom": f"{path}.boom",
                           "t.gone": f"{path}.deleted_last_pr"},
                  manual=("t.manual",)), clock


def test_nested_self_time(monkeypatch):
    tracer, _ = _synthetic_tracer(monkeypatch)
    with tracer.installed():
        assert _Synthetic().outer() == "done"
    assert tracer.calls("t.outer") == 1
    assert tracer.calls("t.inner") == 2
    assert tracer.calls("t.leaf") == 2
    assert tracer.total_seconds("t.outer") == pytest.approx(6.0)
    assert tracer.self_seconds("t.outer") == pytest.approx(1.5)
    assert tracer.total_seconds("t.inner") == pytest.approx(4.5)
    assert tracer.self_seconds("t.inner") == pytest.approx(4.0)
    assert tracer.self_seconds("t.leaf") == pytest.approx(0.5)
    # Self times of everything under a root add up to the root's duration.
    assert sum(tracer.self_seconds(n) for n in ("t.outer", "t.inner", "t.leaf")
               ) == pytest.approx(tracer.total_seconds("t.outer"))


def test_manual_span_nests_like_a_shim(monkeypatch):
    tracer, _ = _synthetic_tracer(monkeypatch)
    with tracer.installed():
        assert tracer.call("t.manual", _Synthetic().inner) is None
    assert tracer.total_seconds("t.manual") == pytest.approx(2.25)
    assert tracer.self_seconds("t.manual") == pytest.approx(0.0)


def test_exception_still_closes_the_span(monkeypatch):
    tracer, _ = _synthetic_tracer(monkeypatch)
    with tracer.installed():
        with pytest.raises(KeyError):
            _Synthetic().boom()
        _Synthetic().leaf()
    assert tracer.total_seconds("t.boom") == pytest.approx(3.0)
    # The stack unwound: the next span is a root, not a child of boom.
    assert tracer.self_seconds("t.boom") == pytest.approx(3.0)


def test_absent_target_is_reported_not_raised(monkeypatch):
    tracer, _ = _synthetic_tracer(monkeypatch)
    with tracer.installed():
        pass
    assert tracer.absent == ["t.gone"]
    summary = tracer.summary()
    assert summary["t.gone"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                 "status": "absent"}
    assert summary["t.outer"]["status"] == "traced"


def test_shims_are_removed_even_when_the_body_raises(monkeypatch):
    before = dict(vars(_Synthetic))
    tracer, _ = _synthetic_tracer(monkeypatch)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert vars(_Synthetic)["outer"] is not before["outer"]
            raise RuntimeError("mid-run failure")
    after = dict(vars(_Synthetic))
    after.pop("clock", None)
    before.pop("clock", None)
    assert after == before


def test_chrome_trace_keeps_only_recorded_spans(monkeypatch, tmp_path):
    tracer, _ = _synthetic_tracer(monkeypatch)
    with tracer.installed():
        _Synthetic().outer()            # aggregated, not kept
        tracer.recording = True
        _Synthetic().inner()
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["t.inner", "t.leaf"]
    assert all(e["ph"] == "X" for e in events)
    assert events[0]["dur"] == pytest.approx(2.25e6)
    assert events[1]["args"]["parent"] == "t.inner"
    tracer.write_chrome_trace(tmp_path / "trace.json")
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]


def test_every_real_target_resolves_today():
    """The table matches the code it traces (absence is for later PRs)."""
    for name, path in SPAN_TARGETS.items():
        owner, attr = resolve_target(path)
        assert callable(getattr(owner, attr)), name


def test_function_imported_by_name_is_traced_and_restored():
    import repro.core.agent as agent
    import repro.core.identify as identify
    import repro.experiments.trials as trials

    original = identify.rank_cotenant_suspects
    tracer = Tracer()
    with tracer.installed():
        assert identify.rank_cotenant_suspects is not original
        assert agent.rank_cotenant_suspects is identify.rank_cotenant_suspects
        assert trials.rank_cotenant_suspects is identify.rank_cotenant_suspects
    for module in (identify, agent, trials):
        assert module.rank_cotenant_suspects is original


def test_class_level_shims_keep_fusion_engaged():
    from repro.cluster.fused import FusedFleet, fused_eligible
    from repro.cluster.machine import Machine
    from repro.cluster.platform import get_platform

    step, tick = FusedFleet.__dict__["step"], Machine.__dict__["tick"]
    machine = Machine("m0", get_platform("westmere-2.6"))
    with Tracer().installed():
        assert Machine.__dict__["tick"] is not tick
        assert fused_eligible(machine)
    assert FusedFleet.__dict__["step"] is step
    assert Machine.__dict__["tick"] is tick


# -- digest -------------------------------------------------------------------------


def test_digest_is_bit_exact_and_order_insensitive_for_dicts():
    import math

    a = {"x": 0.1 + 0.2, "y": [1, 2.0, None, "s"]}
    assert canonical_digest(a) == canonical_digest(
        {"y": [1, 2.0, None, "s"], "x": 0.1 + 0.2})
    assert canonical_digest(a) != canonical_digest(
        dict(a, x=math.nextafter(a["x"], 1.0)))
    assert canonical_digest({"x": 1}) != canonical_digest({"x": 1.0})
