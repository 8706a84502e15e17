#!/usr/bin/env python3
"""fracstates benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload sweep_1d --seed 0 --seconds 24 --trace 0

Every run of the workload is its own process (worker.py) with BLAS/OpenMP
pinned to one thread, importing fracstates from ``src`` of this checkout.

--trace 0  runs set-up-only processes, then whole-workload processes until
           --seconds have been spent (at least two), and reports the medians
           of the end-to-end metrics: wall_s, setup_s, cpu_s, peak_rss_mb.
--trace 1  alternates an untraced and a traced process (at least one pair)
           and reports the per-layer metrics of the traced ones (medians;
           counts must repeat exactly) and the tracing overhead.

Every process's outputs go through the correctness gate (workloads.py). The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; details, spans and the machine block are written under
``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench"

import layers  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import specs  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_ONLY_RUNS = 3
MIN_RUNS = 2
# a run must end within 180 s; stop starting workers past this budget
RUN_BUDGET_S = 160
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark could not produce a result (no program, a crashed or
    hung worker)."""


def _cache_sizes():
    """{"L1d": "48K", "L2": "2048K", ...} of CPU 0, as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return sizes


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env_inherited": {k: os.environ.get(k) for k in PINNED_THREADS},
        "thread_env_workers": dict(PINNED_THREADS),
    }


class Session:
    """Spawns worker processes for one benchmark run and keeps their results."""

    def __init__(self, workload, seed, label):
        self.dir = OUT_ROOT / f"{workload}-seed{seed}-{label}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.spec_path = self.dir / "spec.json"
        self.spec_path.write_text(json.dumps(specs.make_spec(workload, seed), indent=1) + "\n")
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, mode):
        self.count += 1
        rundir = self.dir / f"{self.count:03d}-{mode}"
        rundir.mkdir()
        out = rundir / "result.json"
        workdir = rundir / "work"
        cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(self.spec_path),
               "--mode", mode, "--out", str(out), "--workdir", str(workdir),
               "--run-id", str(self.count)]
        env = dict(os.environ, **PINNED_THREADS)
        started = time.monotonic()
        timeout = max(1.0, self.deadline - started)
        try:
            proc = subprocess.run(cmd + ["--started", repr(started)], env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} worker still running after {timeout:.0f} s") from exc
        elapsed = time.monotonic() - started
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.decode(errors="replace")[-3000:]
            raise HarnessError(f"{mode} worker exited {proc.returncode}:\n{tail}")
        if workdir.exists():
            shutil.rmtree(workdir)
        result = json.loads(out.read_text())
        result["elapsed_s"] = elapsed
        return result


def _repeat(seconds, minimum, deadline, once):
    """Call once() until the next call would end past `seconds`, but at least
    `minimum` times unless the next call would end past `deadline`."""
    results = []
    t0 = time.monotonic()
    while True:
        t_call = time.monotonic()
        results.append(once())
        now = time.monotonic()
        last = now - t_call
        if now + last > deadline or (len(results) >= minimum and now - t0 + last > seconds):
            return results


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(session, seconds):
    setups = [session.spawn("setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    runs = _repeat(seconds, MIN_RUNS, session.deadline, lambda: session.spawn("run"))
    setups = [s for s in setups + [r["setup_s"] for r in runs] if s is not None]
    metrics = {
        "wall_s": _median([r["wall_s"] for r in runs]),
        "setup_s": _median(setups),
        "cpu_s": _median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }
    samples = {"setup_s": setups, **{k: [r[k] for r in runs] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
    units = dict(END_TO_END)
    return runs, metrics, units, samples


def measure_layers(session, seconds):
    pairs = _repeat(seconds, 1, session.deadline,
                    lambda: (session.spawn("run"), session.spawn("traced")))
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {n: _median([t["layers"][n] for t in traced]) for n in traced[0]["layers"]}
    metrics["trace.wall_s"] = _median([t["wall_s"] for t in traced])
    metrics["trace.untraced_wall_s"] = _median([u["wall_s"] for u in untraced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    repeat = {n: len({t["layers"][n] for t in traced}) == 1 for n in layers.EXACT_COUNTS}
    late = sorted({name for t in traced for name in t.get("late_targets", [])})
    units = {n: layers.METRICS[n][0] for n in metrics}
    samples = {"repeat_exactly": repeat, "late_targets": late,
               "spans_files": [t.get("spans_file") for t in traced]}
    return untraced + traced, metrics, units, samples


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracstates" / "__init__.py").is_file():
        print(f"error: no fracstates sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    machine = machine_block()
    session = Session(args.workload, args.seed, f"trace{args.trace}")
    try:
        if args.trace:
            runs, metrics, units, samples = measure_layers(session, args.seconds)
        else:
            runs, metrics, units, samples = measure_end_to_end(session, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine["kernel_backend"] = runs[0]["kernel_backend"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = failed == 0 and attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {session.count} ({len(runs)} measured)")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"energies {json.dumps(runs[0]['energies'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:36s} {_fmt(value):>14s} {units[name]}")
    print(f"  {'ops':36s} {attempted:>14d} count")
    print(f"  {'ops_failed':36s} {failed:>14d} count")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    if args.trace:
        big = metrics["grid.max_array_bytes"]
        caches = machine["caches"]
        print(f"  largest FFT array {int(big)} B (computed) against L2 {caches.get('L2')} per core "
              f"and L3 {caches.get('L3')}; no bandwidth or roofline ratio is claimed")
        same = all(samples["repeat_exactly"].values())
        print(f"  counts repeat exactly across {len(runs) // 2} traced run(s): {same}")
        if samples["late_targets"]:
            print(f"  WARNING layer functions loaded after install: {samples['late_targets']}")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine, "metrics": metrics, "units": units,
        "samples": samples, "attempted": attempted, "failed": failed, "failures": failures,
        "energies": runs[0]["energies"],
    }
    (session.dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
