#!/usr/bin/env python3
"""Quick check of the benchmark itself (about half a minute):

    python3 perfbench/selfcheck.py

- the same seed writes byte-identical inputs, and another seed does not;
- a wrong known answer, a broken path or a crash counts as a failure;
- the tracer wraps functions at every binding site, counts at the
  boundaries, checks kernel parity when asked to, and restores everything;
- BENCHMARK.json names exactly the metrics the benchmark prints;
- without the sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import run
import workloads

HERE = run.HERE
ROOT = run.ROOT
SCRATCH = run.WORK / f"selfcheck-p{os.getpid()}"


def files_of(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def check_seeded_inputs() -> None:
    for w in workloads.WORKLOADS:
        a, b, c = (SCRATCH / f"{w}-{tag}" for tag in ("a", "b", "c"))
        for d, seed in ((a, 3), (b, 3), (c, 4)):
            workloads.generate(w, seed, d)
        assert files_of(a) == files_of(b), f"{w}: seed 3 wrote different inputs twice"
        assert files_of(a) != files_of(c), f"{w}: seeds 3 and 4 wrote the same inputs"
    print("ok  same seed, byte-identical inputs")


def check_failures_count(cli, checks) -> None:
    d = SCRATCH / "walk-a"  # written by check_seeded_inputs
    plan = json.loads((d / "plan.json").read_text())
    by_id = {i["id"]: i for i in plan["instances"]}
    os.chdir(d)
    checker = checks.Checker(d)
    good = [by_id["k33-pinned"], by_id["k33-conn-b"], by_id["k33-1136"]]
    res = run.run_pass(cli, checker, good)
    assert all(not r["problems"] for r in res["results"]), res["results"]

    wrong = copy.deepcopy(good)
    wrong[0]["expect"]["c90"] = 91
    wrong[1]["v"] = wrong[1]["u"]  # the path no longer replays to "v"
    wrong[2]["expect"]["members"] = "0" * 64
    crash = {"id": "bad-argv", "argv": ["component", "--preset", "c5", "--start", "missing.json"],
             "kind": "component", "expect": {"size": 1}}
    res = run.run_pass(cli, checker, wrong + [crash])
    failed = [r["id"] for r in res["results"] if r["problems"]]
    assert failed == ["k33-pinned", "k33-conn-b", "k33-1136", "bad-argv"], res["results"]
    print("ok  wrong answers, broken paths and crashes count as failed")


def check_tracer(cli, checks, tracing) -> None:
    import fiberwalk.engine as engine
    import fiberwalk.k33 as k33
    from fiberwalk import _kernel

    originals = (k33.connected_component, engine.connected_component, _kernel.component)
    tracer = tracing.Tracer(parity_backend=_kernel.pure)
    tracer.install()
    try:
        assert k33.connected_component is engine.connected_component is not originals[1]
        assert _kernel.component is not originals[2]
        inst = {"id": "k33-pinned", "argv": ["k33"], "kind": "exact",
                "expect": workloads.K33_EXPECTED}
        res = run.run_pass(cli, checks.Checker(SCRATCH), [inst], tracer)
    finally:
        tracer.uninstall()
    assert (k33.connected_component, engine.connected_component, _kernel.component) == originals
    assert not res["results"][0]["problems"], res["results"]
    assert not tracer.parity_failures, tracer.parity_failures
    m = tracing.per_layer_metrics(tracer, res["run_s"], res["run_s"])
    assert m["kernel.component.calls"][0] == 3, m["kernel.component.calls"]
    assert m["kernel.component.nodes"][0] == 18 + 18 + 90
    assert m["engine.are_connected.path_len"][0] == 9
    assert m["k33.k33_run.busy_s"][0] > 0
    assert all(s[4] == "k33-pinned" for s in tracer.spans)

    # a second backend that disagrees is caught
    broken = types.SimpleNamespace(**{n: getattr(_kernel.pure, n) for n in tracing.KERNEL_API})
    broken.component = lambda start, pm, cap: ({start}, False)
    tracer = tracing.Tracer(parity_backend=broken)
    tracer.install()
    try:
        res = run.run_pass(cli, checks.Checker(SCRATCH), [inst], tracer)
    finally:
        tracer.uninstall()
    problems = res["results"][0]["problems"]
    assert problems and all("component differs" in p for p in problems), problems
    print("ok  tracer binds every site, counts, checks parity and restores")


def check_benchmark_json() -> None:
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS, e2e
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == tracing.PER_LAYER, set(layer) ^ set(tracing.PER_LAYER)
    print("ok  BENCHMARK.json names the printed metrics")


def check_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "basis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  without sources: exit", proc.returncode, "and no result")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        check_seeded_inputs()
        sys.path.insert(0, str(run.SRC))
        import fiberwalk.cli as cli

        import checks
        import tracing

        check_failures_count(cli, checks)
        check_tracer(cli, checks, tracing)
        check_benchmark_json()
        check_without_sources()
    finally:
        os.chdir(cwd)
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
