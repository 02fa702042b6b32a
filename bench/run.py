"""membrane-lab benchmark.

One run:

    python3 bench/run.py --workload {design,audio,cli} --seed N --seconds S --trace {0,1}

builds nothing (the package is pure Python and is imported from ``src/`` of
the checkout) and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is a JSON object with the details: machine, seeds, why the
workload was chosen, sample counts and the items that failed.

``--trace 0`` times whole passes over the workload's items until ``S``
seconds have passed and reports the end-to-end metrics.  An item's time is
the median of its repeats in the run; ``item_p50_ms`` and ``item_p90_ms``
are taken over the items' times, and ``items_per_s`` is the verified items
over the sum of all items' times.  Taking each item's median first keeps
the mix of items the same in every run, whatever number of passes fit.

``--trace 1`` wraps the program's public functions, makes a fixed number of
passes (so its counts repeat exactly), writes the spans to ``.bench_out/``
and reports the per-layer metrics; its own end-to-end figures go in the
detail line, for the tracing overhead.

``attempted`` counts the seed's distinct items and ``failed`` those of them
that raise or fail their output check, so both are fixed by the seed and
not by how many passes fit in the time.  Every repeat of an item is checked
too: ``correct`` is false when an item, run again in a later pass, gave a
different output (or error) than the first time.

    python3 bench/run.py --report [--seed N] [--seconds S]

runs every workload untraced and traced, prints every metric with its unit
and failure count, the tracing overhead per workload, and writes the lot
to ``.bench_out/report-seed<N>.json``.  ``python3 bench/selftest.py`` checks
that traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Workload reasons and metric names and units come from the benchmark's spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Seeds 1-10 were used while this benchmark was tuned.  Claims of a gain
# must also hold on this one, which was not.
HELD_OUT_SEED = 2718
SETUP_SAMPLES = 5  # fresh interpreters timed per run; their median is setup_s


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def machine_info() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    llc, level = "unknown", 0
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        lvl = _read(f"{cache}/{index}/level").strip()
        if lvl.isdigit() and int(lvl) > level:
            level, llc = int(lvl), f"L{lvl} {_read(f'{cache}/{index}/size').strip()}"
    versions = {}
    for module in ("numpy", "scipy"):
        # From the distribution metadata: the benchmark itself imports neither.
        try:
            versions[module] = version(module)
        except PackageNotFoundError:
            versions[module] = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        **versions,
    }


def _check_source(module) -> None:
    """Refuse to measure an installed copy instead of the checkout's source."""
    src = (ROOT / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"bench: membrane_lab was imported from {module.__file__}, not {src}")


def measure_setup(args) -> float:
    """Median time from a fresh interpreter to the point the timed loop starts."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit(f"bench: set-up of {args.workload} failed")
    return statistics.median(samples)


def timed_passes(workload, seconds, tracer):
    """Whole passes over the items, one at a time: (results, passes, seconds).

    Untraced, passes continue until ``seconds`` have gone; traced, the
    workload's fixed number of passes runs.
    """
    results = []
    passes = 0
    start = time.perf_counter()
    while True:
        for index, item in enumerate(workload.items):
            if tracer:
                tracer.item = f"{passes}:{index}"
            t0 = time.perf_counter()
            try:
                output, error = workload.run(item), None
            except Exception as exc:  # a failed item, counted by verify()
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append((index, output, error, time.perf_counter() - t0))
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= workload.trace_passes if tracer else elapsed >= seconds:
            return results, passes, elapsed


def verify(workload, results):
    """(failures of the distinct items, failed runs of any item, whether
    every item run again gave its first output)."""
    failures = {}
    failed_runs = 0
    first_output = {}
    consistent = True
    for index, output, error, _ in results:
        item = workload.items[index]
        if error is not None or not workload.check(item, output):
            failed_runs += 1
            failures.setdefault(index, f"{workload.describe(item)}: {error or repr(output)}")
        key = error if error is not None else workload.key(output)
        consistent &= first_output.setdefault(index, key) == key
    return failures, failed_runs, consistent


def run_workload(args) -> int:
    if not (ROOT / "src" / "membrane_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no membrane_lab package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    setup_s = None if args.trace or args.setup_only else measure_setup(args)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(ROOT), str(workdir))
        workload.setup(traced=bool(args.trace))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if "membrane_lab" in sys.modules:  # the cli workload imports it only in children
            _check_source(sys.modules["membrane_lab"])
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        results, passes, elapsed = timed_passes(workload, args.seconds, tracer)
        times = [r[3] for r in results]
        repeats = {}
        for index, _, _, seconds in results:
            repeats.setdefault(index, []).append(seconds)
        item_s = [statistics.median(v) for v in repeats.values()]
        if tracer:
            workload.run_in_process(tracer)
            tracer.uninstall()
        failures, failed_runs, consistent = verify(workload, results)

        end_to_end = {
            "items_per_s": (len(item_s) - len(failures)) / sum(item_s),
            "item_p50_ms": 1e3 * statistics.median(item_s),
            "item_p90_ms": 1e3 * _p90(item_s),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        detail = {
            "workload": args.workload,
            "why": WHY[args.workload],
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "machine": machine_info(),
            "trace": args.trace,
            "passes": passes,
            "items_per_pass": len(workload.items),
            "item_samples": len(results),
            "failed_runs": failed_runs,
            "timed_s": elapsed,
            "failed_items": sorted(failures.values()),
        }
        if tracer:
            # Layers the workload does not exercise report 0.
            metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
            metrics.update(tracer.layer_metrics())
            metrics.update(workload.trace_metrics(times))
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            detail.update(traced_end_to_end=end_to_end, spans=len(tracer.spans),
                          trace_file=str(trace_file.relative_to(ROOT)))
            units = PER_LAYER_UNITS
        else:
            metrics = {"setup_s": setup_s, **end_to_end}
            units = END_TO_END_UNITS
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": consistent,
            "attempted": len(workload.items),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_child(workload, seed, seconds, trace) -> tuple[dict, dict]:
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(argv[1:])} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def report(args) -> int:
    """Every workload untraced and traced: all metrics, failures and overhead."""
    doc = {"seed": args.seed, "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        detail, plain = _run_child(name, args.seed, args.seconds, 0)
        traced_detail, traced = _run_child(name, args.seed, args.seconds, 1)
        overhead = {
            metric: traced_detail["traced_end_to_end"][metric] - plain["metrics"][metric]["value"]
            for metric in traced_detail["traced_end_to_end"]
        }
        doc["machine"] = detail["machine"]
        doc["workloads"][name] = {
            "why": detail["why"],
            "end_to_end": plain,
            "per_layer": traced,
            "item_samples": detail["item_samples"],
            "failed_items": detail["failed_items"],
            "tracing_overhead": overhead,
        }
        print(f"== {name}: {detail['why']}")
        print(f"   attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}, samples {detail['item_samples']}")
        for metric, m in plain["metrics"].items():
            print(f"   {metric:<28} {m['value']:>14.6g} {m['unit']}")
        print("   tracing overhead (traced minus untraced):")
        for metric, value in overhead.items():
            print(f"   {metric:<28} {value:>+14.6g} {END_TO_END_UNITS[metric]}")
        print("   per layer (traced run):")
        for metric, m in traced["metrics"].items():
            if m["value"]:
                print(f"   {metric:<28} {m['value']:>14.6g} {m['unit']}")
    print("machine:", json.dumps(doc["machine"]))
    print(f"seed {args.seed}; held-out seed for later claims: {HELD_OUT_SEED}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"written to {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
