"""Cold-pass benchmark of toeplitz_lab.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout.  Every sample is a freshly spawned
``bench/worker.py`` process, one at a time, with single-threaded BLAS.  The
run first times set-up in ``SETUP_SAMPLES`` processes, then starts cold
passes for about ``--seconds`` (at least one; see ``keep_going``).
``--trace 1`` runs each pass twice, untraced and traced, and reports the
per-layer metrics.

A reference worker follows every set-up and untraced pass worker and times
a fixed kernel (``reference.py``).  The end-to-end times are scaled to
reference seconds by the median kernel time of the run, so that the host's
drifting speed cancels out; per-layer times are raw seconds.

The last line of standard output is the result object; the full record
(environment, every sample, every failure) goes to ``bench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import REFERENCE_KERNEL, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a worker hangs


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(root: Path, env: dict, workload: str, seed: int, mode: str,
               timeout: float, spans: Path | None = None) -> dict:
    """One fresh worker process; a crash or timeout is returned as an error."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"error": f"{mode} worker exited {proc.returncode}: "
                     f"{proc.stderr.strip()[-2000:]}"}


def keep_going(elapsed: float, longest: float, seconds: float) -> bool:
    """Start another pass only if it is expected to end within half a pass
    of the deadline, so a run lasts about ``seconds`` whatever its pass time."""
    return elapsed + longest / 2 < seconds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def slowest_op(passes, factor: float) -> float:
    """The largest per-operation median: each operation's time is its median
    over the run's passes, so one slow phase of the machine in one pass does
    not become the figure."""
    if not passes:
        return 0.0
    names = [o["op"] for o in passes[0]["ops"]]
    return factor * max(
        median([o["seconds"] for p in passes for o in p["ops"] if o["op"] == n])
        for n in names)


def end_to_end(setups, passes, factor: float) -> dict:
    """The end-to-end metrics of a run, with every time multiplied by
    ``factor``."""
    setup_values = [s["setup_s"] for s in setups + passes if "setup_s" in s]
    return {
        "wall_s": {"value": factor * median([p["wall_s"] for p in passes]),
                   "unit": "s"},
        "setup_s": {"value": factor * median(setup_values), "unit": "s"},
        "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in passes]),
                        "unit": "MB"},
        "slowest_op_s": {"value": slowest_op(passes, factor), "unit": "s"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "toeplitz_lab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/toeplitz_lab; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = root / "bench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(src)

    errors: list[str] = []
    run_start = time.perf_counter()

    def sample(mode: str, spans: Path | None = None) -> dict:
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - run_start))
        res = run_worker(root, env, args.workload, args.seed, mode, timeout, spans)
        if "error" in res:
            errors.append(res["error"])
            print(f"[{args.workload}] {res['error']}", file=sys.stderr)
        return res

    setups, references = [], []

    def reference_sample() -> None:
        if not args.trace:
            references.append(sample("reference"))

    for _ in range(SETUP_SAMPLES):
        setups.append(sample("setup"))
        reference_sample()
    passes, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while not passes or keep_going(time.perf_counter() - start, longest, args.seconds):
        begun = time.perf_counter()
        passes.append(sample("pass"))
        reference_sample()
        if args.trace:
            spans = out_dir / f"spans-{tag}-pass{len(traced)}.json"
            traced.append(sample("traced", spans))
        longest = max(longest, time.perf_counter() - begun)

    done = [p for p in passes + traced if "error" not in p]
    failures = [f for p in done for f in p["failures"]]
    for f in failures:
        print(f"[{args.workload}] FAIL {f['key']} ({f['op']}): {f['reason']}",
              file=sys.stderr)
    ok_passes = [p for p in passes if "error" not in p]
    expected = max((p["attempted"] for p in done), default=1)
    attempted = sum(p.get("attempted", expected) for p in passes + traced)
    failed = len(failures) + sum(expected for p in passes + traced if "error" in p)

    ok_setups = [s for s in setups if "error" not in s]
    metrics = {}
    if args.trace:
        ok_traced = [p for p in traced if "error" not in p]
        names = list(ok_traced[0]["layers"]) if ok_traced else []
        for name in names:
            values = [p["layers"][name][0] for p in ok_traced]
            unit = ok_traced[0]["layers"][name][1]
            metrics[name] = {"value": median(values) if unit == "s" else values[0],
                             "unit": unit}
        overhead = (median([p["wall_s"] for p in ok_traced])
                    - median([p["wall_s"] for p in ok_passes]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        counts_repeat = all(
            p["layers"][n] == ok_traced[0]["layers"][n]
            for p in ok_traced for n in names if ok_traced[0]["layers"][n][1] != "s")
    else:
        kernel = REFERENCE_KERNEL[args.workload]
        kernel_s = [t for r in references if "error" not in r for t in r["reference_s"]]
        # with no kernel time (every reference worker failed, already an
        # error of the run) the times stay raw
        factor = reference.scale(kernel, kernel_s) if kernel_s else 1.0
        metrics = end_to_end(ok_setups, ok_passes, factor)

    env_info = next((s["env"] for s in setups + passes if "env" in s), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                "python": env_info.get("python"), "numpy": env_info.get("numpy")},
        "setup_samples": setups, "passes": passes, "traced_passes": traced,
        "errors": errors, "failures": failures, "metrics": metrics,
    }
    if not args.trace:
        record["raw_metrics"] = end_to_end(ok_setups, ok_passes, 1.0)
        record["reference"] = {"kernel": kernel, "seconds": kernel_s}
    if args.trace:
        record["counts_repeat"] = counts_repeat
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"env={json.dumps(record['env'])}")
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
