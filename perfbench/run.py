#!/usr/bin/env python3
"""The repository's benchmark: three workloads, each run in one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --all [--seconds S]

A run builds perfbench_run from the repository's sources on first use
(into .bench_build/perfbench), runs one workload, checks every cell's
reports and prints the metrics. With --trace 0 they are the end-to-end
metrics, with --trace 1 the per-layer ledger of a separate traced run. The
last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"}. A manifest line precedes it.

--all runs every workload with --trace 0, prints one table of the
end-to-end metrics and writes BENCHMARK.json from the definitions below.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import evaluate  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
BUILD_TIMEOUT_S = 860
RUN_TIMEOUT_S = 170
RUN_SECONDS = 10

WORKLOADS = [
    {"name": "paper_online",
     "why": "fig7 T1,T5 x FCFS/AFS/LAPS, traffic generated online per cell: "
            "the grid users wait for; only workload timing the traffic, "
            "trace and exp layers"},
    {"name": "laps_replay",
     "why": "fig9 scheduler table on auck1/auck2 replayed from setup: LAPS "
            "decisions and a hit-heavy AFD dominate host time"},
    {"name": "cluster_dispatch",
     "why": "fig_cluster_dispatch, 4x4 hash shards on caida1: dispatcher "
            "picks and the coordinator dominate; LAPS and the AFD idle"},
]

DISPATCHERS = ["pass", "rr", "rss", "fdir", "affinity", "load"]

END_TO_END = [
    {"name": "host_mpps", "unit": "Mpps", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "cell_ok_ratio", "unit": "fraction", "better": "higher",
     "bound": 0.01},
    {"name": "drop_pct", "unit": "%", "better": "lower", "bound": 0.25},
    {"name": "ooo_pct", "unit": "%", "better": "lower", "bound": 0.25},
    {"name": "migr_per_kpkt", "unit": "1/kpkt", "better": "lower",
     "bound": 0.25},
]

PER_LAYER = (
    [("traffic.gen_ns", "ns", "lower"),
     ("traffic.record_s", "s", "lower"),
     ("traffic.replay_ns", "ns", "lower"),
     ("trace.next_ns", "ns", "lower"),
     ("trace.records", "count", "lower"),
     ("sim.self_ns", "ns/pkt", "lower"),
     ("sim.offered", "count", "higher"),
     ("sim.delivered", "count", "higher"),
     ("sim.dropped", "count", "lower"),
     ("core.laps_ns", "ns", "lower"),
     ("core.migrations", "count", "lower"),
     ("core.core_requests", "count", "lower"),
     ("core.core_transfers", "count", "lower"),
     ("cache.afd_access_ns", "ns", "lower"),
     ("cache.afc_hit_ratio", "fraction", "higher"),
     ("cache.annex_insert_ratio", "fraction", "lower"),
     ("baselines.fcfs_ns", "ns", "lower"),
     ("baselines.afs_ns", "ns", "lower"),
     ("baselines.hash_ns", "ns", "lower"),
     ("baselines.oracle_ns", "ns", "lower")]
    + [("cluster.pick_ns." + d, "ns", "lower") for d in DISPATCHERS]
    + [("cluster.sync_ns", "ns", "lower"),
       ("cluster.barriers", "count", "lower"),
       ("cluster.self_ns", "ns/pkt", "lower"),
       ("cluster.fabric_ns", "ns/pkt", "lower"),
       ("exp.runner_overhead_ms", "ms", "lower"),
       ("tracing.timer_ns", "ns", "lower"),
       ("tracing.pair_ns", "ns", "lower"),
       ("tracing.overhead_pct", "%", "lower")])


def benchmark_json():
    """The BENCHMARK.json document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def _tail(path, lines=40):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def build():
    """Configures (once) and builds perfbench_run; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.cpp")):
        fail("no LAPS sources at %s (expected the repository root)"
             % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_run",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 2)
            if proc.returncode != 0:
                log.flush()
                fail("build failed (%s):\n%s" % (log_path, _tail(log_path)), 2)
    return os.path.join(BUILD_DIR, "perfbench_run")


def _cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:9]
    return [int(x) for x in fields]  # user .. steal


def _steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if (top.returncode != 0 or os.path.realpath(top.stdout.strip())
                != os.path.realpath(ROOT)):
            return None
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(binary, name, seed, seconds, trace):
    """Runs one workload, checks it; returns (summary, manifest, failures)."""
    out = os.path.join(RUNS_DIR, "%s-%s" % (name, "trace" if trace else "e2e"))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [binary, "--workload=" + name, "--out=" + out,
           "--seconds=%s" % seconds]
    if seed is not None:
        cmd.append("--seed=%d" % seed)
    if trace:
        cmd.append("--trace")
    log_path = os.path.join(out, "stderr.log")
    before = _cpu_times()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    after = _cpu_times()
    if proc.returncode != 0:
        fail("%s exited with %d:\n%s"
             % (name, proc.returncode, _tail(log_path)))
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    passes = []
    for p in result["passes"]:
        with open(os.path.join(out, p["artifact"])) as f:
            passes.append((p["cells"], f.read()))
    attempted, failed, failures = evaluate.check_passes(passes)

    if trace:
        traced = [text for p, (_, text) in zip(result["passes"], passes)
                  if p["traced"]]
        values = evaluate.per_layer_metrics(result, traced, DISPATCHERS)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = evaluate.end_to_end_metrics(name, result, passes[0][1],
                                             attempted, failed)
        units = {m["name"]: m["unit"] for m in END_TO_END}
    manifest = {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "build_type": result["build"]["type"],
        "cxx_flags": result["build"]["cxx_flags"],
        "compiler": result["build"]["compiler"],
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "steal_share": _steal_share(before, after),
        "workload": name,
        "trace": bool(trace),
        "passes": len(result["passes"]),
    }
    manifest.update(result["spec"])  # seed, horizon, specs, shape
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump({"summary": summary, "manifest": manifest,
                   "failures": failures}, f, indent=2)
    return summary, manifest, failures


def _print_run(name, summary, manifest, failures):
    print("perfbench %s seed=%d trace=%d: %d passes, %d cells, %d failed"
          % (name, manifest["seed"], manifest["trace"], manifest["passes"],
             summary["attempted"], summary["failed"]))
    for key, reasons in sorted(failures.items()):
        print("  FAILED %s: %s" % (key, "; ".join(reasons)))
    for metric, v in summary["metrics"].items():
        print("  %-28s %14.6g %s" % (metric, v["value"], v["unit"]))
    print("manifest " + json.dumps(manifest, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the mirrored "
                             "command's own default)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="cell time to measure per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    binary = build()
    if not args.all:
        summary, manifest, failures = run_workload(
            binary, args.workload, args.seed, args.seconds, args.trace)
        _print_run(args.workload, summary, manifest, failures)
        print(json.dumps(summary))
        return 0

    results = {}
    for w in WORKLOADS:
        summary, manifest, failures = run_workload(
            binary, w["name"], args.seed, args.seconds, 0)
        _print_run(w["name"], summary, manifest, failures)
        results[w["name"]] = {"summary": summary, "manifest": manifest}
    names = [w["name"] for w in WORKLOADS]
    print("\n%-16s %-9s " % ("metric", "unit")
          + " ".join("%16s" % n for n in names))
    for m in END_TO_END:
        print("%-16s %-9s " % (m["name"], m["unit"]) + " ".join(
            "%16.6g" % results[n]["summary"]["metrics"][m["name"]]["value"]
            for n in names))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        f.write(json.dumps(benchmark_json(), indent=2) + "\n")
    with open(os.path.join(RUNS_DIR, "all.json"), "w") as f:
        json.dump(results, f, indent=2)
    print("wrote BENCHMARK.json and %s" % os.path.join(RUNS_DIR, "all.json"))
    return 0 if all(r["summary"]["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
