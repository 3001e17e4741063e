#!/usr/bin/env python3
"""fiberwalk benchmark: seeded, correctness-gated CLI workloads.

    python3 perfbench/run.py --workload basis --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports the package
from `src/` and measures the kernel backend that `import fiberwalk`
selects.  One run:

1. writes the workload's inputs and known answers from the seed, in a
   child process (`workloads.py`), under `perfbench/.work/`;
2. times `import fiberwalk.cli` in several fresh processes (`setup_s`);
3. runs the workload's instances through `fiberwalk.cli.main(argv)`, one
   at a time in this process (a closed loop with one client), pass after
   pass until `--seconds` have elapsed, and checks every verdict;
4. with `--trace 1`, runs one more pass with every layer's public
   functions wrapped in spans, and reports per-layer metrics instead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
metadata, instance list and failures.  Exits 2 without a result when the
checkout has no `src/fiberwalk`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 7
IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import fiberwalk.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)
END_TO_END_UNITS = {"run_s": "s", "verdict_p50_s": "s", "verdict_max_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def measure_setup() -> list[float]:
    """Seconds to import fiberwalk.cli in fresh processes; the first, which
    also compiles bytecode in a new checkout, is a warm-up and dropped."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout.split()[-1]))
    return samples[1:]


def run_instance(cli, checker, inst: dict, tracer=None) -> dict:
    """One call into cli.main, timed to its return, then checked."""
    buf = io.StringIO()
    error = None
    trace = tracer.instance(inst["id"]) if tracer else contextlib.nullcontext()
    parity_seen = len(tracer.parity_failures) if tracer else 0
    t0 = time.perf_counter()
    try:
        with trace, contextlib.redirect_stdout(buf):
            code = cli.main(list(inst["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed instance, never a skipped one
        code, error = None, f"raised {exc!r}"
    t1 = time.perf_counter()
    text = buf.getvalue()
    if error is None:
        try:
            problems = checker.problems(inst, code, json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems = [f"unreadable envelope: {exc!r}"]
    else:
        problems = [error]
    if tracer:
        problems += tracer.parity_failures[parity_seen:]
    return {"id": inst["id"], "start": t0, "end": t1, "bytes": len(text), "problems": problems}


def run_pass(cli, checker, instances, tracer=None) -> dict:
    results = [run_instance(cli, checker, inst, tracer) for inst in instances]
    return {
        "run_s": results[-1]["end"] - results[0]["start"],
        "verdicts": [r["end"] - r["start"] for r in results],
        "results": results,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fiberwalk benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fiberwalk" / "cli.py").is_file():
        print(f"perfbench: no fiberwalk sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(workdir)],
                       check=True, timeout=170)
        plan = json.loads((workdir / "plan.json").read_text())
        setup = [] if args.trace else measure_setup()
        return measure(args, plan, workdir, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, plan: dict, workdir: Path, setup: list[float]) -> int:
    sys.path.insert(0, str(SRC))
    import fiberwalk
    import fiberwalk.cli as cli
    from fiberwalk import _kernel

    import checks
    import tracing

    if Path(fiberwalk.__file__).resolve().parent != SRC / "fiberwalk":
        raise RuntimeError(f"imported fiberwalk from {fiberwalk.__file__}, not {SRC}")
    instances = plan["instances"]
    checker = checks.Checker(workdir)
    os.chdir(workdir)  # instance argv names its input files relative to here

    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(run_pass(cli, checker, instances))
    run_s = statistics.median(p["run_s"] for p in passes)

    parity = _kernel.pure if fiberwalk.kernel_backend != "pure" else None
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "why": plan["why"],
        "instances": [
            {"id": inst["id"], "argv": inst["argv"],
             "median_s": statistics.median(p["verdicts"][k] for p in passes)}
            for k, inst in enumerate(instances)
        ],
        "kernel_backend": fiberwalk.kernel_backend,
        "fiberwalk_version": fiberwalk.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_run_s": [p["run_s"] for p in passes],
    }
    if args.trace:
        tracer = tracing.Tracer(parity_backend=parity)
        tracer.install()
        try:
            traced = run_pass(cli, checker, instances, tracer)
        finally:
            tracer.uninstall()
        tracer.counters["cli.envelope_bytes"] = sum(r["bytes"] for r in traced["results"])
        passes.append(traced)
        layer = tracing.per_layer_metrics(tracer, traced["run_s"], run_s)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        meta["parity_backend"] = parity.BACKEND if parity else None
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.json.gz"
        tracer.write(spans_path, meta)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        verdicts = [v for p in passes for v in p["verdicts"]]
        values = {
            "run_s": run_s,
            "verdict_p50_s": statistics.median(verdicts),
            "verdict_max_s": statistics.median(max(p["verdicts"]) for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        meta["verdict_samples"] = len(verdicts)
        meta["setup_samples"] = setup

    results = [r for p in passes for r in p["results"]]
    failures = [{"id": r["id"], "problems": r["problems"]} for r in results if r["problems"]]
    meta["failed_share"] = len(failures) / len(results)
    meta["failures"] = failures[:20]
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
