#!/usr/bin/env python3
"""Build and run the watchdog benchmark; print its result as one JSON line.

Run from the root of a checkout:

    python3 wdbench/run.py --workload paper_scale --seed 1 --seconds 40 --trace 0

The first run configures and builds ``wdbench`` (the repository's libraries
plus the benchmark driver) into ``$CARGO_TARGET_DIR`` or ``.bench_build``.
Each run executes the serve, fleet and fault stages (see README.md), writes
its full result, stamped with the host fingerprint, under ``.bench_results/``
and prints, as its last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``). A traced run measures twice, on half
of ``--seconds`` each: untraced, for every figure of the program, then traced,
for the spans and the timed per-layer metrics. It also prints the layers' self
time and the tracing overhead (traced minus untraced figures).

Other modes:

    python3 wdbench/run.py --self-test   # short runs of every workload + planted defects
    python3 wdbench/run.py --compare     # medians and spread of stored results,
                                         # grouped by workload, this host's fingerprint only
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("paper_scale", "large_values")
# Seeds below 1000 tuned and checked the benchmark; this one is kept back for
# later claim checks.
CLAIM_SEED = 1000003
RUN_TIMEOUT_S = 170
# A fault cycle without a verdict and an action within this long is missed.
CYCLE_CAP_MS = 2000
# The end-to-end metrics every run prints. Those whose run-to-run spread on a
# shared 4-vCPU host stays well inside a bound are gated in BENCHMARK.json's
# end_to_end; the others move with the hypervisor's steal time (reported as
# host.steal_share) and are listed under per_layer, unbounded.
END_TO_END = ("setup_s", "cpu_cores", "kvs_rps", "kvs_p50_us", "kvs_p99_us", "checks_per_s",
              "cpu_us_per_check", "detect_hang_ms_p50", "detect_error_ms_p50",
              "act_hang_ms_p50", "act_error_ms_p50", "false_alarms", "error_rate")
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"wdbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to the benchmark: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    log_path = os.path.join(RESULTS_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S).returncode:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "wdbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S).returncode:
            fail(f"build failed, see {log_path}")
    return os.path.join(out, "wdbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    digest = hashlib.sha256()
    for pattern in ("src/**/*", "wdbench/**/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    """Host and build identity; results are only compared within one."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
        "sanitizer": "none",  # the benchmark is only built without sanitizers
        "commit": commit(),
        "source_digest": source_digest(),
    }


def host_key(fp):
    """The part of the fingerprint that must match for two results to be compared."""
    return (fp["nproc"], fp["cpu_model"], fp["build_type"], fp["sanitizer"])


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def run_binary(binary, workload, seed, seconds, trace, short=False, plant="none"):
    """Runs one benchmark process; returns (result dict, stdout text)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    base = os.path.join(RESULTS_DIR, f"{workload}-s{seed}-t{int(trace)}-{stamp}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", base + ".raw.json"]
    if trace:
        cmd += ["--spans", base + ".spans.csv"]
    if short:
        cmd.append("--short")
    if plant != "none":
        cmd += ["--plant", plant]
    with open(base + ".stderr.log", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"benchmark process exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark process exited with {proc.returncode}, see {base}.stderr.log")
    with open(base + ".raw.json") as f:
        result = json.load(f)
    os.remove(base + ".raw.json")
    result.update(workload=workload, seed=seed, seconds=seconds, trace=bool(trace),
                  short=short, plant=plant, fingerprint=fingerprint(),
                  finished=time.strftime("%Y-%m-%dT%H:%M:%S"))
    with open(base + ".json", "w") as f:
        json.dump(result, f, indent=1)
    return result, proc.stdout


def select(result, specs):
    """The metrics named in `specs`, checked against the units they declare."""
    chosen = {}
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            fail(f"metric {spec['name']} missing from the run's output")
        if metric["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {metric['unit']}, expected {spec['unit']}")
        chosen[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return chosen


def print_metrics(result, spec):
    bounded = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("end-to-end:")
    for name in END_TO_END:
        metric = result["metrics"].get(name)
        if metric is not None:
            gate = f"bound {bounded[name]:.2f}" if name in bounded else "unbounded"
            print(f"  {name:22s} {metric['value']:16.6f} {metric['unit']:9s} {gate}")
    if result["trace"]:
        print("per-layer:")
        for metric in spec["per_layer"]:
            m = result["metrics"].get(metric["name"])
            if m is not None and metric["name"] not in END_TO_END:
                print(f"  {metric['name']:34s} {m['value']:16.6f} {m['unit']}")


def run(args):
    spec = load_spec()
    binary = build()
    result, text = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)
    fp = result["fingerprint"]
    print("host: nproc={nproc} cpu={cpu_model} build={build_type} sanitizer={sanitizer} "
          "commit={commit} source={source_digest}".format(**fp))
    print_metrics(result, spec)
    metrics = select(result, spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


def self_test(args):
    """Short runs of every workload, traced and not, plus two planted defects."""
    spec = load_spec()
    binary = build()
    problems = []
    healthy = None
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_binary(binary, workload, 1, 3, trace, short=True)
            for metric in spec["per_layer"] if trace else spec["end_to_end"]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing or "
                                    f"not in {metric['unit']}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: healthy short run not correct")
            print(f"self-test: {workload} trace={int(trace)} printed "
                  f"{len(result['metrics'])} metrics")
            if workload == WORKLOADS[0] and not trace:
                healthy = result
    result, _ = run_binary(binary, WORKLOADS[0], 1, 3, False, short=True, plant="wrong_read")
    if result["correct"] or result["failed"] < 1 or result["metrics"]["kvs.read_mismatches"]["value"] < 1:
        problems.append("planted wrong read value was not counted as a failure")
    # Every hang cycle runs with the listener detached: each must count as a
    # failed operation and at the cycle cap in the gated hang metrics.
    result, _ = run_binary(binary, WORKLOADS[0], 1, 3, False, short=True, plant="missed_detection")
    metrics = result["metrics"]
    if (result["correct"] or result["failed"] < 1 or metrics["fault.error_rate"]["value"] <= 0
            or metrics["error_rate"]["value"] <= 0):
        problems.append("planted missed detection was not counted as a failure")
    for name in ("detect_hang_ms_p50", "act_hang_ms_p50"):
        if (metrics[name]["value"] < CYCLE_CAP_MS
                or healthy["metrics"][name]["value"] >= metrics[name]["value"]):
            problems.append(f"planted missed hang detections did not make {name} worse")
    for problem in problems:
        print("self-test FAILED: " + problem)
    print("self-test " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(args):
    """Median and quartile spread of stored untraced results on this host."""
    spec = load_spec()
    here = host_key(fingerprint())
    groups = {}
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*-t0-*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result.get("short") or result.get("plant") != "none":
            continue
        if host_key(result["fingerprint"]) != here:
            continue  # another host or build: never compared
        key = (result["workload"], result["fingerprint"]["source_digest"])
        groups.setdefault(key, []).append(result)
    for (workload, digest), results in sorted(groups.items()):
        print(f"{workload} source={digest}: {len(results)} runs")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"  {metric['name']:22s} median {statistics.median(values):14.4f} "
                  f"{metric['unit']:9s} spread {100 * quartile_spread(values):6.2f}% "
                  f"(bound {100 * metric['bound']:.0f}%)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args)
    if args.compare:
        return compare(args)
    if args.workload is None:
        parser.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
