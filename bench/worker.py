"""One benchmark process: set-up, then at most one cold pass.

    python3 bench/worker.py --root . --workload acceptance --seed 1 --mode pass

``--mode setup`` only times set-up; ``pass`` also runs the workload once;
``traced`` runs it under the tracer and writes the spans to ``--spans``;
``reference`` only times the workload's reference kernel (``reference.py``)
and imports nothing from ``toeplitz_lab``.
The last line of standard output is one JSON object.  ``bench/run.py``
starts a fresh worker per sample, so every ``lru_cache`` starts empty.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def setup(clock, layers) -> float:
    """Import the package and every layer, then load, validate and build the
    bundled decks.  Returns the elapsed seconds."""
    start = clock()
    import importlib

    import toeplitz_lab
    for name in layers:
        importlib.import_module(f"toeplitz_lab.{name}")
    for name in toeplitz_lab.BUNDLED:
        toeplitz_lab.construction(toeplitz_lab.bundled_deck(name))
    return clock() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced", "reference"),
                    required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    if not (src / "toeplitz_lab" / "__init__.py").is_file():
        print(f"no toeplitz_lab package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import tracer as tracing
    import workloads

    clock = time.perf_counter
    if args.mode == "reference":
        import reference
        kernel = workloads.REFERENCE_KERNEL[args.workload]
        print(json.dumps({"reference_s": reference.sample(kernel, clock)}))
        return 0
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = setup(clock, tracing.LAYERS)

    import numpy
    import toeplitz_lab
    if Path(toeplitz_lab.__file__).resolve().parent != src / "toeplitz_lab":
        print(f"imported toeplitz_lab from {toeplitz_lab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    out = {"setup_s": setup_s,
           "env": {"python": platform.python_version(), "numpy": numpy.__version__}}
    if args.mode != "setup":
        pins = workloads.load_pins()[args.workload]
        ops = workloads.build_ops(args.workload, args.seed)
        start = clock()
        result = workloads.run_ops(ops, pins)
        out["wall_s"] = clock() - start
        out.update(result)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracing.layer_metrics(tracer)
            if args.spans:
                tracer.dump(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
