#!/usr/bin/env python3
"""Compare a fresh perf_kernel run against the committed baseline.

Usage:
    perf_kernel --seconds=0.02 --reps=5 --json=fresh.json
    scripts/compare_bench.py fresh.json [--baseline BENCH_kernel.json]
                             [--threshold 0.15] [--gate NAME=FRAC ...]
    scripts/compare_bench.py --self-test

Exits non-zero when any kernel present in both documents regressed by more
than its threshold in mpps, or when the fresh run's FlowAuditProbe overhead
exceeds the audit budget (<= 15%), or when its TelemetryProbe overhead
exceeds the telemetry budget (<= 5%). The audit overhead is perf_kernel's
`engine+audit` row, which times only the probe's hooks appending to its
event log: the fold of that log into per-flow rows runs after the timer
stops, so neither the row nor the audit budget prices it. Kernels only
present on one side are reported but never fail the gate, so adding a
bench row does not require regenerating the baseline in the same change;
that also holds for gated kernels — a --gate naming a row that the fresh
run has but the baseline lacks prints a "new row, skipping" notice and
gates from the next baseline regeneration onward.

The default threshold is deliberately loose (15%): shared CI runners are
noisy, and this gate exists to catch structural regressions (an accidental
O(n) scan on the fast path, a probe hook gone virtual-and-cold), not
single-digit jitter. `--gate NAME=FRAC` tightens (or loosens) the bar for
one kernel — e.g. `--gate engine=0.02` holds the bare-engine row to 2% so
pay-for-what-you-use features (fault injection, probes) cannot tax the
fault-free fast path and hide inside the loose global threshold. A gate
naming a kernel absent from the fresh run is an error: a tightened gate
that silently stopped gating would defeat its purpose. Absent from only
the baseline is the one benign case (the row is brand new), announced
loudly rather than failed.

Every failure path exits with a one-line message naming the file and the
problem; `--self-test` exercises those paths plus the gate arithmetic with
synthetic documents (no bench run needed), so CI can verify the gate itself.
"""

import argparse
import json
import sys

AUDIT_BUDGET = 0.15      # acceptance bar for FlowAuditProbe overhead
TELEMETRY_BUDGET = 0.05  # acceptance bar for TelemetryProbe overhead
SCHEMA = "laps-perf-v1"


def load(path):
    """Reads and validates one perf document; exits with a clear message on
    any malformation so CI logs state the problem, not a traceback."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        sys.exit(f"{path}: file not found — run perf_kernel with "
                 f"--json={path} first (or pass --baseline for the "
                 "committed reference)")
    except json.JSONDecodeError as err:
        sys.exit(f"{path}: not valid JSON ({err}) — was the bench "
                 "interrupted mid-write?")
    schema = doc.get("schema")
    if schema != SCHEMA:
        sys.exit(f"{path}: expected schema {SCHEMA}, got {schema!r}")
    kernels = {}
    for i, entry in enumerate(doc.get("kernels", [])):
        name = entry.get("name")
        if not name:
            sys.exit(f"{path}: kernels[{i}] has no \"name\" field")
        mpps = entry.get("mpps")
        if not isinstance(mpps, (int, float)):
            sys.exit(f"{path}: kernel {name!r} has no numeric \"mpps\" "
                     f"field (got {mpps!r})")
        kernels[name] = entry
    if not kernels:
        sys.exit(f"{path}: no kernels in document — the bench produced an "
                 "empty run")
    return doc, kernels


def parse_gates(items):
    """['engine=0.02', ...] -> {'engine': 0.02}; exits on malformed items."""
    gates = {}
    for item in items or []:
        name, sep, frac = item.partition("=")
        if not sep or not name:
            sys.exit(f"--gate {item!r}: expected NAME=FRAC "
                     "(e.g. --gate engine=0.02)")
        try:
            value = float(frac)
        except ValueError:
            sys.exit(f"--gate {item!r}: {frac!r} is not a number")
        if not 0 < value < 1:
            sys.exit(f"--gate {item!r}: fraction must be in (0, 1)")
        gates[name] = value
    return gates


def compare(fresh_doc, fresh, base, threshold, gates):
    """Returns (report_lines, failure_messages). Pure so --self-test can
    drive it with synthetic documents."""
    lines = []
    failures = []
    for name in gates:
        if name not in fresh:
            failures.append(
                f"--gate {name}={gates[name]}: kernel {name!r} is not in "
                "the fresh run; a gate that gates nothing is a config error")
        elif name not in base:
            # A brand-new bench row cannot have a baseline counterpart yet;
            # the gate arms itself at the next baseline regeneration.
            lines.append(
                f"--gate {name}={gates[name]}: new row, skipping "
                "(no baseline counterpart; gates after the next "
                "BENCH_kernel.json regeneration)")
    lines.append(f"{'kernel':<16} {'baseline':>10} {'fresh':>10} {'delta':>8}")
    for name in base:
        if name not in fresh:
            lines.append(f"{name:<16} {base[name]['mpps']:>10.3f} "
                         f"{'absent':>10} {'--':>8}  (not gated)")
            continue
        b, f = base[name]["mpps"], fresh[name]["mpps"]
        if b <= 0:
            failures.append(
                f"{name}: baseline mpps is {b} — a zero/negative baseline "
                "cannot gate anything; regenerate BENCH_kernel.json")
            continue
        bar = gates.get(name, threshold)
        delta = (f - b) / b
        verdict = ""
        if delta < -bar:
            verdict = "  REGRESSION"
            failures.append(
                f"{name}: {b:.3f} -> {f:.3f} mpps "
                f"({delta:+.1%}, threshold -{bar:.0%})")
        lines.append(f"{name:<16} {b:>10.3f} {f:>10.3f} {delta:>+8.1%}"
                     f"{verdict}")
    for name in fresh:
        if name not in base:
            lines.append(f"{name:<16} {'absent':>10} "
                         f"{fresh[name]['mpps']:>10.3f} {'--':>8}"
                         "  (not gated)")

    for field, budget in (("audit_probe_overhead", AUDIT_BUDGET),
                          ("telemetry_probe_overhead", TELEMETRY_BUDGET)):
        overhead = fresh_doc.get(field)
        if overhead is None:
            continue
        ok = overhead <= budget
        lines.append(f"{field}: {overhead:.1%} (budget {budget:.0%}) "
                     f"{'ok' if ok else 'OVER BUDGET'}")
        if not ok:
            failures.append(
                f"{field} {overhead:.1%} exceeds the {budget:.0%} budget")
    return lines, failures


def self_test():
    """Exercises the gate arithmetic and failure paths without a bench run."""
    def doc(**mpps):
        return {"schema": SCHEMA,
                "kernels": [{"name": n, "mpps": v} for n, v in mpps.items()]}

    def run(fresh, base, threshold=0.15, gates=None):
        fresh_kernels = {k["name"]: k for k in fresh["kernels"]}
        base_kernels = {k["name"]: k for k in base["kernels"]}
        return compare(fresh, fresh_kernels, base_kernels, threshold,
                       gates or {})

    checks = []

    def check(label, got, want):
        checks.append((label, got == want, got, want))

    # Within the loose threshold: no failure.
    _, fails = run(doc(engine=9.0), doc(engine=10.0))
    check("10% dip passes the default 15% gate", len(fails), 0)
    # Beyond it: exactly one failure naming the kernel.
    _, fails = run(doc(engine=8.0), doc(engine=10.0))
    check("20% dip fails the default gate", len(fails), 1)
    check("failure names the kernel", "engine" in (fails or [""])[0], True)
    # A per-kernel gate overrides the global threshold.
    _, fails = run(doc(engine=9.7), doc(engine=10.0), gates={"engine": 0.02})
    check("3% dip fails a 2% per-kernel gate", len(fails), 1)
    _, fails = run(doc(engine=9.9), doc(engine=10.0), gates={"engine": 0.02})
    check("1% dip passes a 2% per-kernel gate", len(fails), 0)
    # The gate only tightens its kernel; others keep the global bar.
    _, fails = run(doc(engine=10.0, probes=9.0), doc(engine=10.0, probes=10.0),
                   gates={"engine": 0.02})
    check("ungated kernel keeps the loose bar", len(fails), 0)
    # Gating a kernel absent from the fresh run is a config error.
    _, fails = run(doc(engine=10.0), doc(engine=10.0), gates={"ghost": 0.02})
    check("gate on a kernel missing from fresh fails", len(fails), 1)
    # ... but a gated row that is new in the fresh run (no baseline
    # counterpart yet) is announced and skipped, never failed.
    lines, fails = run(doc(engine=10.0, fresh_row=10.0), doc(engine=10.0),
                       gates={"fresh_row": 0.05})
    check("gate on a new fresh-only row never fails", len(fails), 0)
    check("new gated row announces the skip",
          any("new row, skipping" in ln for ln in lines), True)
    # One-sided kernels are reported but never gated.
    _, fails = run(doc(engine=10.0, extra=1.0), doc(engine=10.0, gone=1.0))
    check("one-sided kernels never gate", len(fails), 0)
    # A zero baseline is a loud config error, not a ZeroDivisionError.
    _, fails = run(doc(engine=10.0), doc(engine=0.0))
    check("zero baseline fails loudly", len(fails), 1)
    # Audit budget enforcement rides along.
    over = doc(engine=10.0)
    over["audit_probe_overhead"] = 0.20
    _, fails = run(over, doc(engine=10.0))
    check("audit overhead over budget fails", len(fails), 1)
    # Telemetry budget enforcement too, at its own (tighter) bar.
    over = doc(engine=10.0)
    over["telemetry_probe_overhead"] = 0.07
    _, fails = run(over, doc(engine=10.0))
    check("telemetry overhead over budget fails", len(fails), 1)
    under = doc(engine=10.0)
    under["telemetry_probe_overhead"] = 0.03
    _, fails = run(under, doc(engine=10.0))
    check("telemetry overhead under budget passes", len(fails), 0)
    # Improvements never fail.
    _, fails = run(doc(engine=20.0), doc(engine=10.0))
    check("speedups pass", len(fails), 0)

    bad = [c for c in checks if not c[1]]
    for label, ok, got, want in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}"
              + ("" if ok else f" (got {got!r}, want {want!r})"))
    if bad:
        print(f"\nself-test: {len(bad)}/{len(checks)} checks failed",
              file=sys.stderr)
        return 1
    print(f"\nself-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="?",
                    help="perf_kernel JSON from the current build")
    ap.add_argument("--baseline", default="BENCH_kernel.json",
                    help="committed reference JSON (default: %(default)s)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated mpps regression (default: %(default)s)")
    ap.add_argument("--gate", action="append", metavar="NAME=FRAC",
                    help="per-kernel threshold override, repeatable "
                         "(e.g. --gate engine=0.02)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate logic itself and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.fresh is None:
        ap.error("fresh JSON path required (or use --self-test)")
    gates = parse_gates(args.gate)

    fresh_doc, fresh = load(args.fresh)
    _, base = load(args.baseline)

    lines, failures = compare(fresh_doc, fresh, base, args.threshold, gates)
    for line in lines:
        print(line)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: no kernel regressed beyond its threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
