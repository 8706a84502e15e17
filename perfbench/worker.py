"""One workload process: set-up, one run of a workload, or one traced run.

Started by run.py with BLAS/OpenMP pinned to one thread. It imports
fracstates from the checkout's ``src``, builds the workload from the spec
file, and writes one JSON result file.

Modes:
  setup   stop at the first constrained solve and report set-up time only;
  run     time the workload with only the op recorder installed;
  traced  install the full tracer, time the workload, and compute the
          per-layer metrics from the spans.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write(path, payload):
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() in the parent just before this process was spawned")
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import tracer as tr
    import workloads

    spec = json.loads(Path(args.spec).read_text())
    name = spec["workload"]
    for module in workloads.IMPORTS[name]:
        importlib.import_module(module)
    import fracstates
    from fracstates.errors import FracstatesError

    def setup_done(stamp):
        _write(args.out, {"mode": "setup", "setup_s": stamp - args.started})
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    backend = fracstates.kernel_backend()
    recorder = tr.OpRecorder(FracstatesError, workloads.solve_gate, workloads.branch_gate,
                             setup_done if args.mode == "setup" else None)
    targets = tr.discover(load_fft=args.mode == "traced")
    tracer = None
    if args.mode == "traced":
        tracer = tr.Tracer(args.run_id)
        tr.install(targets, lambda t: tracer.wrap(t, recorder.wrap(t)))
        tracer.start()
    else:
        tr.install(targets, recorder.wrap)

    run, check = workloads.RUN[name]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    error = None
    result = None
    try:
        result = run(spec, workdir)
    except FracstatesError as exc:
        error = f"{type(exc).__name__}: {exc}"
    t_result = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.finish()
    if args.mode == "setup":
        # no solve was reached; the run processes report why
        _write(args.out, {"mode": "setup", "setup_s": None})
        return

    if error is None:
        ops, energies, extra = check(spec, result, recorder)
    else:
        ops, energies, extra = workloads.check_raised(recorder, error), {}, {}
    payload = {
        "mode": args.mode,
        "setup_s": (recorder.first_solve - args.started) if recorder.first_solve else None,
        "wall_s": t_result - args.started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops": len(ops),
        "failed": sum(1 for op in ops if op.reasons),
        "failures": [f"{op.name}: {r}" for op in ops for r in op.reasons],
        "energies": energies,
        "solve_energies": workloads.all_solve_energies(recorder),
        "kernel_backend": backend,
        **extra,
    }
    if tracer is not None:
        import layers

        payload["layers"] = layers.per_layer(tracer, extra.get("bytes_written", 0))
        payload["late_targets"] = sorted({t.name for t in tr.discover()} - {t.name for t in targets})
        spans_path = Path(args.out).with_name("spans.jsonl")
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_json(tracer.run_id)) + "\n")
        payload["spans_file"] = str(spans_path.relative_to(ROOT))
    _write(args.out, payload)


if __name__ == "__main__":
    main()
