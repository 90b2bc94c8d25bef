#!/usr/bin/env python3
"""dhtlb benchmark: builds the simulator from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --breakdown [--seconds S]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild
incrementally.

Workload mode prints the workload's notes and metrics, then as its last
line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list.  `attempted` and `failed` count
correctness checks; their ratio is check_fail_frac.

--self-test runs the benchmark's own tests: the C++ unit tests, the
catalog against BENCHMARK.json, a tiny-size run of every workload in
both modes, and the failure of a copy that lacks the sources.

--breakdown runs every workload traced at the default and the held-out
seed and prints each one's time by layer as Markdown, checking that the
layer ranking is the same at both seeds.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1337
HELDOUT_SEED = 4242
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds; returns the build directory."""
    if not (ROOT / "src" / "sim" / "engine.hpp").is_file():
        fail(f"dhtlb sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return out


def catalog():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench


def run_binary(out, workload, seed, seconds, trace, size="full"):
    """Runs one workload; returns (human lines, the binary's result).

    A traced run also leaves its spans in the build directory, as
    spans-<workload>-<seed>.json (Chrome trace format).
    """
    cmd = [str(out / "dhtlb_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    if trace:
        cmd += ["--spans", str(out / f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{workload} exited with code {proc.returncode}", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def select(result, defs):
    """The result restricted to the metrics `defs` names, units checked."""
    metrics = {}
    for d in defs:
        got = result["metrics"].get(d["name"])
        if got is None:
            fail(f"metric {d['name']} missing from the run", 1)
        if got["unit"] != d["unit"]:
            fail(f"metric {d['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {d['unit']}", 1)
        metrics[d["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def workload_mode(args):
    bench = catalog()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.trace not in (0, 1):
        fail("--trace must be 0 or 1")
    out = build()
    lines, result = run_binary(out, args.workload, args.seed, args.seconds,
                               args.trace)
    for line in lines:
        print(line)
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(select(result, defs)), flush=True)


# ---------------------------------------------------------------- self-test

def check(ok, what, failures):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def self_test(_args):
    out = build()
    failures = []
    unit = subprocess.run([str(out / "perfbench_selftest")],
                          stdout=subprocess.PIPE, text=True)
    print(unit.stdout, end="")
    check(unit.returncode == 0, "C++ unit tests", failures)

    bench = catalog()
    listed = [dict(d, kind=k) for k in ("end_to_end", "per_layer")
              for d in bench[k]]
    emitted = json.loads(subprocess.run(
        [str(out / "dhtlb_perfbench"), "--catalog"],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    key = ("name", "unit", "better", "kind")
    check([[d[k] for k in key] for d in listed] ==
          [[d[k] for k in key] for d in emitted],
          "BENCHMARK.json lists exactly the binary's catalog", failures)
    for d in listed:
        check(bool(NAME_RE.fullmatch(d["name"])) and bool(d["unit"])
              and d["better"] in ("lower", "higher"),
              f"metric {d['name']} has a valid name, a unit and a direction",
              failures)

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            defs = bench["per_layer"] if trace else bench["end_to_end"]
            _, first = run_binary(out, name, DEFAULT_SEED, 0.05, trace, "tiny")
            sel = select(first, defs)
            check(sel["correct"] and sel["failed"] == 0
                  and sel["attempted"] > 0,
                  f"{name} trace={trace}: tiny run passes its "
                  f"{sel['attempted']} checks", failures)
            check(set(sel["metrics"]) == {d["name"] for d in defs},
                  f"{name} trace={trace}: emits every listed metric",
                  failures)
        _, again = run_binary(out, name, DEFAULT_SEED, 0.05, 1, "tiny")
        sim = ("done_frac", "sim.load_gini", "sim.vnodes_final",
               "serve.hops_mean", "exp.runtime_factor")
        check(all(first["metrics"][k] == again["metrics"][k] for k in sim),
              f"{name}: simulated outputs repeat exactly across runs",
              failures)

    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(Path(bare) / "build"))
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload",
               "churn-1m", "--seed", str(DEFAULT_SEED), "--seconds", "1",
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "a copy without the sources fails without printing a result",
              failures)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


# ---------------------------------------------------------------- breakdown

# Span self time by call site, grouped by layer; together these add up
# to run.wall_ms.  paper-grid constructs its engines outside the timed
# grid, so its sim.construct_ms is left out there.
COMPONENTS = (
    ("sim", "sim.construct_ms"), ("sim", "sim.step_self_ms"),
    ("lb", "lb.decide_ms"),
    ("serve", "serve.attach_ms"), ("serve", "serve.barrier_ms"),
    ("serve", "serve.drain_ms"),
    ("exp", "exp.run_cells_ms"),
    ("harness", "run.self_ms"),
)


def components(metrics, workload):
    return [(layer, name,
             0.0 if workload == "paper-grid" and name == "sim.construct_ms"
             else metrics[name]) for layer, name in COMPONENTS]


def ranking(metrics, workload):
    """Layers holding at least 1% of the run, largest first."""
    wall = metrics["run.wall_ms"]
    shares = {}
    for layer, _, ms in components(metrics, workload):
        shares[layer] = shares.get(layer, 0.0) + ms / wall
    return [k for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if v >= 0.01]


def breakdown(args):
    out = build()
    bench = catalog()
    seeds = (DEFAULT_SEED, HELDOUT_SEED)
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        rows = {}
        for seed in seeds:
            _, result = run_binary(out, name, seed, args.seconds, 1)
            if not result["correct"]:
                failures.append(f"{name} seed {seed}: checks failed")
            rows[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"\n#### {name}\n")
        print("| span self time | " +
              " | ".join(f"ms @{s} | share @{s}" for s in seeds) + " |")
        print("|---|" + "---|---|" * len(seeds))
        parts = {s: components(rows[s], name) for s in seeds}
        for i, (layer, metric) in enumerate(COMPONENTS):
            cells = []
            for s in seeds:
                ms = parts[s][i][2]
                cells.append(f"{ms:.1f} | {ms / rows[s]['run.wall_ms']:.1%}")
            print(f"| {layer}: `{metric}` | " + " | ".join(cells) + " |")
        print("| **total = `run.wall_ms`** | " + " | ".join(
            f"{rows[s]['run.wall_ms']:.1f} | "
            f"{sum(p[2] for p in parts[s]) / rows[s]['run.wall_ms']:.1%}"
            for s in seeds) + " |")
        print()
        for s in seeds:
            m = rows[s]
            print(f"- seed {s}: trace.overhead {m['trace.overhead']:+.1%}, "
                  f"audit.ms {m['audit.ms']:.1f}, "
                  f"proc.cpu_util {m['proc.cpu_util']:.2f}")
        ranks = [ranking(rows[s], name) for s in seeds]
        same = ranks[0] == ranks[1]
        print(f"- layer ranking: {' > '.join(ranks[0])} at {seeds[0]}, "
              f"{' > '.join(ranks[1])} at {seeds[1]}: "
              f"{'same' if same else 'DIFFERENT'}")
        if not same:
            failures.append(f"{name}: layer ranking differs between seeds")
    for f in failures:
        print(f"FAIL {f}")
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--breakdown", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    if args.self_test:
        self_test(args)
    elif args.breakdown:
        breakdown(args)
    elif args.workload:
        workload_mode(args)
    else:
        ap.error("--workload, --self-test or --breakdown is required")


if __name__ == "__main__":
    main()
