"""Benchmark of depaft: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload study-tasks --seed 1 --seconds 15 --trace 0

Run from anywhere; the depaft source is taken from src/ next to this
directory.  The run sets up its inputs three times (a fresh interpreter
importing depaft, then the workload's input preparation) and reports the
median as setup_s.  It then runs whole rounds of the workload's
operations until --seconds have passed, checks every round's outputs, and
prints every metric by name and unit.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

With --trace 1 every round runs twice, untraced and then traced, and the
metrics are the per-layer ones from the traced rounds.  Spans are written
once, when the run ends.  Run records go to perfbench/runs/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUPS = 3


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json at the repo root lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    commit = None  # a checkout without .git records only the source digest
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "depaft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_setup(workload, setup_dir) -> float:
    """One set-up: interpreter start and `import depaft`, then input preparation."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import depaft"], env=env, cwd=ROOT, check=True)
    workload.prepare(setup_dir)
    return time.perf_counter() - start


def run_round(workload, round_dir, tracer=None) -> dict:
    ops = []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for label, fn in workload.round(str(round_dir)):
            op_id = f"{round_dir.name}/{label}"
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                fn()
                ok = True
            except Exception:  # an operation that fails is counted, and the run goes on
                traceback.print_exc()
                ok = False
            ops.append({"op": op_id, "seconds": time.perf_counter() - t0, "ok": ok})
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return {"dir": round_dir, "wall": wall, "ops": ops}


def check_round(workload, rnd) -> bool:
    if not all(op["ok"] for op in rnd["ops"]):
        return True  # a failed operation is counted in `failed`; its outputs are not checked
    try:
        workload.check(str(rnd["dir"]))
    except Exception:  # a check that fails or cannot run marks the run incorrect
        print(f"check failed for {rnd['dir'].name}:", file=sys.stderr)
        traceback.print_exc()
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "depaft" / "__init__.py").is_file():
        print(f"perfbench: no depaft source at {SRC / 'depaft'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import depaft

    if Path(depaft.__file__).resolve().parent != SRC / "depaft":
        print(f"perfbench: imported depaft from {depaft.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = RUNS / f"work-{stem}"
    work.mkdir(parents=True)
    try:
        setups = [timed_setup(workload, work / f"setup{k}") for k in range(SETUPS)]
        workload.check_inputs()

        tracer = spans.Tracer() if args.trace else None
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            k = len(plain)
            plain.append(run_round(workload, work / f"round{k}"))
            if tracer is not None:
                traced.append(run_round(workload, work / f"round{k}-traced", tracer))
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rounds = plain + traced
        correct = all([check_round(workload, rnd) for rnd in rounds])
        ops = [op for rnd in rounds for op in rnd["ops"]]
        failed = sum(1 for op in ops if not op["ok"])

        if tracer is None:
            walls = [rnd["wall"] for rnd in plain]
            fitted = sum(workload.fit_rounds(str(rnd["dir"])) for rnd in plain if all(o["ok"] for o in rnd["ops"]))
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "op_s_p50": statistics.median(op["seconds"] for rnd in plain for op in rnd["ops"]),
                "fit_rounds_per_s": fitted / sum(walls),
                "peak_rss_mb": peak_rss_mb,
            }
            coverage = None
        else:
            overhead = (sum(r["wall"] for r in traced) - sum(r["wall"] for r in plain)) / len(plain)
            values = spans.layer_metrics(tracer, len(traced), overhead)
            # for each operation: its untraced wall time, its traced wall
            # time, and the time its top-level spans cover
            coverage = [
                {"op": t["op"], "untraced_s": p["seconds"], "traced_s": t["seconds"],
                 "top_level_spans_s": spans.top_level_seconds(tracer, t["op"])}
                for rp, rt in zip(plain, traced) for p, t in zip(rp["ops"], rt["ops"])
            ]
            tracer.write(RUNS / f"{stem}.spans.jsonl")

        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        env = environment()
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": env, "setups_s": setups,
            "rounds": [{"dir": r["dir"].name, "wall": r["wall"], "ops": r["ops"]} for r in rounds],
            "coverage": coverage, "correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics,
        }
        with open(RUNS / f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
