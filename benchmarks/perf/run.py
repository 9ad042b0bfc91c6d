#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, every metric by name.

Two ways in, one measurement protocol (``harness.measure``):

* **One run** — what the PR driver calls::

      python3 benchmarks/perf/run.py --workload fleet_dense --seed 11 \\
          --seconds 8 --trace 0

  measures that workload in this process and prints, as the last line of
  stdout, ``{"correct", "attempted", "failed", "metrics"}`` — every
  end-to-end metric with ``--trace 0``, every per-layer metric with
  ``--trace 1``.

* **The full report** — what a person runs::

      python3 benchmarks/perf/run.py --seed 11

  spawns one child process per workload and pass (untraced, then traced),
  prints every metric with its unit, checks outputs and writes
  ``benchmarks/perf/results/report_seed11.json``.  ``--workload`` narrows
  it, ``--smoke`` shortens it (1 repeat, ~1/10 length) and ``--selfcheck``
  runs it twice and fails unless timings agree within their bounds and all
  simulated metrics and digests are identical.

The checkout's ``src/`` is put on ``sys.path`` here, thread pools are pinned
to one thread and every ``REPRO_*`` variable is cleared before numpy or
``repro`` is imported, so the default production path is what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare_environment() -> tuple[list[str], dict[str, str]]:
    """Pin threads, clear engine switches, expose ``src/``; before imports."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {source}/repro missing")
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    for key in THREAD_PINS:
        os.environ[key] = "1"
    sys.path[:0] = [str(source), str(HERE)]
    return cleared, {key: "1" for key in THREAD_PINS}


def _silence_event_console() -> None:
    """The soak's alert lines go to the console by default; not in a bench."""
    import logging

    logger = logging.getLogger("repro")
    logger.addHandler(logging.NullHandler())
    logger.setLevel(logging.CRITICAL + 1)
    logger.propagate = False


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one run ------------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    cleared, pins = _prepare_environment()
    _silence_event_console()
    import harness

    info = harness.hygiene(cleared, pins)
    traced = bool(args.trace)
    RESULTS.mkdir(exist_ok=True)
    record = harness.measure(
        args.workload, args.seed, args.seconds, traced, smoke=args.smoke,
        trace_path=RESULTS / f"trace_{args.workload}.json")
    info["loadavg_end"] = list(os.getloadavg())
    record["hygiene"] = info
    values = record["per_layer"] if traced else record["end_to_end"]
    units = harness.per_layer_names() if traced else harness.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    out = RESULTS / (f"run_{args.workload}_seed{args.seed}"
                     f"_trace{int(traced)}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True),
                   encoding="utf-8")
    for check in record["checks"]:
        if not check["passed"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}")
    print(f"{args.workload} seed={args.seed} sim_digest={record['sim_digest']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


# -- the full report ----------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int,
           smoke: bool) -> dict:
    """One workload pass in its own process; returns its results record."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"benchmark: {workload} trace={trace} exited "
                         f"{done.returncode}")
    path = RESULTS / f"run_{workload}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_set(bench: dict, workloads: list[str], seed: int, seconds: int,
            smoke: bool) -> dict:
    """Both passes of every selected workload; prints as it goes."""
    report: dict = {"seed": seed, "seconds": seconds, "smoke": smoke,
                    "workloads": {}}
    for name in workloads:
        plain = _child(name, seed, seconds, 0, smoke)
        traced = _child(name, seed, seconds, 1, smoke)
        checks = plain["checks"] + traced["checks"]
        same = plain["sim_digest"] == traced["sim_digest"]
        checks.append({"name": "traced_digest_matches_untraced",
                       "passed": same,
                       "detail": f"{plain['sim_digest'][:12]} vs "
                                 f"{traced['sim_digest'][:12]}"})
        failed = [c for c in checks if not c["passed"]]
        entry = {
            "sim_digest": plain["sim_digest"],
            "sim": plain["sim"],
            "end_to_end": dict(
                plain["end_to_end"],
                check_fail_frac=len(failed) / len(checks)),
            "speed_factor": plain["speed_factor"],
            "raw": plain["raw"],
            "per_layer": traced["per_layer"],
            "absent_spans": traced["absent_spans"],
            "checks_attempted": len(checks),
            "checks_failed": failed,
            "hygiene": plain["hygiene"],
        }
        report["workloads"][name] = entry
        _print_entry(bench, name, entry)
    return report


def _print_entry(bench: dict, name: str, entry: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"\n== {name}  sim_digest={entry['sim_digest']}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["check_fail_frac"] = "frac"
    for metric, unit in units.items():
        line = f"  {metric:<44}{entry['end_to_end'][metric]:>16.6g} {unit}"
        raw = entry["raw"].get(metric)
        if raw:
            line += (f"   [raw median {raw['median']:.4g}  q1 {raw['q1']:.4g}"
                     f"  q3 {raw['q3']:.4g}  n={raw['n']}]")
        print(line)
    print(f"  {'host speed factor (raw / reported time)':<44}"
          f"{entry['speed_factor']:>16.4g} x")
    for layer in bench["per_layer"]:
        value = entry["per_layer"][layer["name"]]
        if value:
            print(f"  {layer['name']:<44}{value:>16.6g} {layer['unit']}")
    zero = sum(1 for v in entry["per_layer"].values() if not v)
    print(f"  ({zero} per-layer metrics are zero on this workload; "
          f"absent spans: {entry['absent_spans'] or 'none'})")
    for check in entry["checks_failed"]:
        print(f"  CHECK FAILED {check['name']}: {check['detail']}")


def _compare_sets(first: dict, second: dict, bounds: dict) -> list[str]:
    """Why two report sets of one commit disagree (empty when they agree)."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        if a["sim_digest"] != b["sim_digest"] or a["sim"] != b["sim"]:
            problems.append(f"{name}: simulated metrics or digest differ")
        for metric, spec in bounds.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (y - x) / x if spec["better"] == "lower" else (x - y) / x
            if abs(worse) > spec["bound"]:
                problems.append(f"{name}: {metric} {x:.6g} vs {y:.6g} "
                                f"differs by more than {spec['bound']:.0%}")
    return problems


def run_report(args: argparse.Namespace, bench: dict) -> int:
    names = ([args.workload] if args.workload
             else [w["name"] for w in bench["workloads"]])
    RESULTS.mkdir(exist_ok=True)
    report = run_set(bench, names, args.seed, args.seconds, args.smoke)
    failed = any(w["checks_failed"] for w in report["workloads"].values())
    if args.selfcheck:
        print("\n-- selfcheck: second full set")
        second = run_set(bench, names, args.seed, args.seconds, args.smoke)
        bounds = {m["name"]: m for m in bench["end_to_end"]}
        problems = _compare_sets(report, second, bounds)
        report["selfcheck"] = {"second": second["workloads"],
                               "problems": problems}
        for problem in problems:
            print(f"SELFCHECK FAILED {problem}")
        failed = failed or bool(problems) or any(
            w["checks_failed"] for w in second["workloads"].values())
        print("selfcheck:", "FAILED" if problems else "two sets agree")
    out = RESULTS / f"report_seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True),
                   encoding="utf-8")
    print(f"\nresults: {out.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    bench = _benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"],
                        help="host seconds the timed repeats of one run "
                             "should take on the reference box; simulated "
                             "length scales with it (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one in-process run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat at ~1/10 length (CI)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the full set twice and compare")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_report(args, bench)


if __name__ == "__main__":
    sys.exit(main())
