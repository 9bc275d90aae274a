"""Output checks and metrics for one run of perfbench_run.

perfbench_run writes result.json plus one artifact per pass: the pass's
per-cell reports in the --json format of the shipped command the workload
mirrors (laps-bench-v1 for the engine grids, laps-cluster-grid-v1 for the
cluster grid). This module checks every cell of every pass and turns the
run into the benchmark's end-to-end or per-layer metrics.
"""
import json
import statistics

# Front ends that provably never split a flow across NPs while it has
# packets in flight: RSS never moves a flow, drain-gated affinity moves one
# only when nothing of it is in flight.
NO_CROSS_NP_REORDER = ("RSS", "Affinity")


def split_reports(text):
    """The artifact's "reports" elements as (raw text, parsed) pairs.

    The raw text is the element's exact bytes in the artifact, which is
    what the byte-identity checks compare.
    """
    decoder = json.JSONDecoder()
    marker = '"reports": ['
    i = text.index(marker) + len(marker)
    cells = []
    while True:
        while text[i].isspace():
            i += 1
        if text[i] == "]":
            return cells
        obj, end = decoder.raw_decode(text, i)
        cells.append((text[i:end], obj))
        i = end
        while text[i].isspace():
            i += 1
        if text[i] == ",":
            i += 1


def cell_key(obj):
    if "dispatcher" in obj:
        return obj["dispatcher"]
    return "%s/%s" % (obj["scenario"], obj["scheduler"])


def _engine_checks(cells):
    """{key: [reason]} for the cells of one laps-bench-v1 pass."""
    bad = {}
    offered_by_scenario = {}
    for _, obj in cells:
        key = cell_key(obj)
        if "error" in obj:
            bad.setdefault(key, []).append(
                "threw: %s" % obj["error"].get("message", ""))
            continue
        r = obj["report"]
        if r["offered"] != r["delivered"] + r["dropped"]:
            bad.setdefault(key, []).append(
                "offered %d != delivered %d + dropped %d"
                % (r["offered"], r["delivered"], r["dropped"]))
        if r["in_flight_at_end"] != 0:
            bad.setdefault(key, []).append(
                "%d packets in flight at the end" % r["in_flight_at_end"])
        if obj["scheduler"] == "StaticHash" and r["out_of_order"] != 0:
            bad.setdefault(key, []).append(
                "hash cell reordered %d packets" % r["out_of_order"])
        offered_by_scenario.setdefault(obj["scenario"], {})[key] = r["offered"]
    for scenario, offered in offered_by_scenario.items():
        if len(set(offered.values())) > 1:
            for key in offered:
                bad.setdefault(key, []).append(
                    "cells of %s disagree on offered: %s"
                    % (scenario, sorted(set(offered.values()))))
    return bad


def _cluster_checks(cells):
    """{key: [reason]} for the rows of one laps-cluster-grid-v1 pass."""
    bad = {}
    offered = {}
    for _, r in cells:
        key = cell_key(r)
        if "error" in r:
            bad.setdefault(key, []).append("threw: %s" % r["error"])
            continue
        reasons = []
        if r["offered"] != r["delivered"] + r["dropped"]:
            reasons.append("offered %d != delivered %d + dropped %d"
                           % (r["offered"], r["delivered"], r["dropped"]))
        if sum(s["offered"] for s in r["shards"]) != r["offered"]:
            reasons.append("shards' offered does not add up to the row's")
        for i, s in enumerate(r["shards"]):
            if s["offered"] != s["delivered"] + s["dropped"]:
                reasons.append("shard %d loses packets" % i)
            if s["in_flight_at_end"] != 0:
                reasons.append("shard %d has packets in flight" % i)
            if s["out_of_order"] != 0:
                reasons.append("shard %d reordered %d packets inside the NP"
                               % (i, s["out_of_order"]))
        if r["intra_np_out_of_order"] != 0:
            reasons.append("%d intra-NP out-of-order departures"
                           % r["intra_np_out_of_order"])
        if (r["dispatcher"] in NO_CROSS_NP_REORDER
                and r["cross_np_out_of_order"] != 0):
            reasons.append("%d cross-NP out-of-order departures"
                           % r["cross_np_out_of_order"])
        if reasons:
            bad[key] = reasons
        offered[key] = r["offered"]
    if len(set(offered.values())) > 1:
        for key in offered:
            bad.setdefault(key, []).append(
                "rows disagree on offered: %s" % sorted(set(offered.values())))
    return bad


def check_passes(passes):
    """Checks every cell of every pass.

    `passes` is a list of (cells attempted, artifact text). The first pass
    is the reference: every later pass, traced ones included, must report
    each cell with the same bytes. Returns (attempted, failed, failures),
    where failures maps "pass/cell" to its reasons; a cell that fails
    several checks is one failed cell, and a cell missing from its
    artifact is a failed cell.
    """
    attempted = failed = 0
    failures = {}
    reference = None
    for p, (expected, text) in enumerate(passes):
        cells = split_reports(text)
        attempted += max(expected, len(cells))
        if len(cells) < expected:
            failed += expected - len(cells)
            failures["%d/missing" % p] = ["%d of %d cells not reported"
                                         % (expected - len(cells), expected)]
        cluster = bool(cells) and "dispatcher" in cells[0][1]
        bad = (_cluster_checks if cluster else _engine_checks)(cells)
        raw = {cell_key(obj): cell_text for cell_text, obj in cells}
        if reference is None:
            reference = raw
        else:
            for key, cell_text in raw.items():
                if reference.get(key) != cell_text:
                    bad.setdefault(key, []).append(
                        "report differs from pass 0's")
        failed += len(bad)
        for key, reasons in bad.items():
            failures["%d/%s" % (p, key)] = reasons
    return attempted, failed, failures


def _is_subject(workload, obj):
    """Cells the simulated end-to-end metrics sum over.

    laps_replay: the LAPS cells (Fig. 9's subject). paper_online: every
    cell of the grid; its LAPS cells alone swing 0.4-0.65 (quartile spread
    over median) between seeds at the 0.25 s horizon, more than any bound
    a regression gate can use. cluster_dispatch: every dispatcher row.
    """
    if workload == "laps_replay":
        return obj["scheduler"].startswith("LAPS")
    return True


def simulated_metrics(workload, text):
    """drop_pct, ooo_pct and migr_per_kpkt over the subject cells."""
    offered = delivered = dropped = ooo = migrations = 0
    for _, obj in split_reports(text):
        if "error" in obj:
            continue
        if "dispatcher" in obj:
            r = obj
            ooo += r["cluster_out_of_order"]
            migrations += r["cross_np_migrations"]
        else:
            if not _is_subject(workload, obj):
                continue
            r = obj["report"]
            ooo += r["out_of_order"]
            migrations += r["flow_migrations"]
        offered += r["offered"]
        delivered += r["delivered"]
        dropped += r["dropped"]
    return {
        "drop_pct": 100.0 * dropped / offered if offered else 0.0,
        "ooo_pct": 100.0 * ooo / delivered if delivered else 0.0,
        "migr_per_kpkt": 1000.0 * migrations / delivered if delivered else 0.0,
    }


def end_to_end_metrics(workload, result, reference_text, attempted, failed):
    passes = result["passes"]
    rates = [p["offered"] / p["host_s"] / 1e6 for p in passes if p["host_s"]]
    metrics = {
        "host_mpps": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "cell_ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    metrics.update(simulated_metrics(workload, reference_text))
    return metrics


class _Ledger:
    """Per-boundary arithmetic over one ledger of a traced run.

    Every timed call reads `span` ns more than the work it wraps and costs
    its caller `pair` ns of wall time (two clock reads); both are
    calibrated at run time and subtracted.
    """

    def __init__(self, boundaries, timer):
        self.b = boundaries
        self.span = timer["span_ns"]
        self.pair = timer["pair_ns"]

    def calls(self, name):
        return self.b.get(name, {}).get("calls", 0)

    def children(self, name):
        return [c for c, v in self.b.items() if v["parent"] == name]

    def corrected(self, name):
        if name not in self.b:
            return 0.0
        return self.b[name]["ns"] - self.calls(name) * self.span

    def self_ns(self, name):
        """Span minus the spans (and timing cost) of the boundaries it calls."""
        return self.corrected(name) - sum(
            self.b[c]["ns"] + self.calls(c) * (self.pair - self.span)
            for c in self.children(name))

    def per_call(self, name):
        n = self.calls(name)
        return self.corrected(name) / n if n else 0.0

    def self_per_packet(self, name, decision_prefix):
        """Self time per packet; every packet makes one call to a child
        whose name starts with `decision_prefix` (a schedule or a pick)."""
        packets = sum(self.calls(c) for c in self.children(name)
                      if c.startswith(decision_prefix))
        return self.self_ns(name) / packets if packets else 0.0


def _sum_cells(text, pred, field):
    total = 0
    for _, obj in split_reports(text):
        if "error" in obj:
            continue
        r = obj if "dispatcher" in obj else obj["report"]
        if pred(obj):
            total += r[field] if field in r else r["extra"].get(field, 0)
    return total


def per_layer_metrics(result, traced_texts, dispatchers):
    """The per-layer ledger of a traced run (see README for the map).

    Times come from the workload's own traced cells when they call the
    boundary, otherwise from the layer sweep over the workload's recorded
    arrivals. Counts come from the workload's own traced cells.
    """
    ledgers = [_Ledger(result[k], result["timer"])
               for k in ("ledger", "engine_sweep", "cluster_sweep")]

    def led(name):
        return next((x for x in ledgers if x.calls(name)), ledgers[0])

    def per_call(name):
        return led(name).per_call(name)

    def laps(obj):
        return obj.get("scheduler", "").startswith("LAPS")

    def per_pass(field, pred=lambda _: True):
        return _sum_cells(traced_texts[0], pred, field)

    m = {}
    gen = led("traffic.gen")
    m["traffic.gen_ns"] = (gen.self_ns("traffic.gen") / gen.calls("traffic.gen")
                           if gen.calls("traffic.gen") else 0.0)
    m["traffic.record_s"] = per_call("traffic.record") * 1e-9
    m["traffic.replay_ns"] = per_call("traffic.replay")
    m["trace.next_ns"] = per_call("trace.next")
    m["trace.records"] = ledgers[0].calls("trace.next") / len(traced_texts)
    m["sim.self_ns"] = led("sim.run").self_per_packet(
        "sim.run", ("core.", "baselines."))
    m["sim.offered"] = per_pass("offered")
    m["sim.delivered"] = per_pass("delivered")
    m["sim.dropped"] = per_pass("dropped")
    m["core.laps_ns"] = per_call("core.laps")
    m["core.migrations"] = per_pass("aggressive_migrations", laps)
    m["core.core_requests"] = per_pass("core_requests", laps)
    m["core.core_transfers"] = per_pass("core_transfers", laps)
    cache = result["cache"]
    accesses = cache["accesses"]
    m["cache.afd_access_ns"] = cache["ns"] / accesses if accesses else 0.0
    m["cache.afc_hit_ratio"] = cache["afc_hits"] / accesses if accesses else 0.0
    m["cache.annex_insert_ratio"] = (cache["annex_inserts"] / accesses
                                     if accesses else 0.0)
    for b in ("fcfs", "afs", "hash", "oracle"):
        m["baselines.%s_ns" % b] = per_call("baselines." + b)
    for d in dispatchers:
        m["cluster.pick_ns." + d] = per_call("cluster.pick." + d)
    m["cluster.sync_ns"] = per_call("cluster.sync")
    cluster = led("cluster.run")
    runs = cluster.calls("cluster.run")
    m["cluster.barriers"] = cluster.calls("cluster.sync") / runs if runs else 0.0
    m["cluster.self_ns"] = cluster.self_per_packet("cluster.run",
                                                   "cluster.pick.")
    fabric = result["fabric"]
    m["cluster.fabric_ns"] = ((fabric["cluster_s"] - fabric["engine_s"])
                              / fabric["packets"] * 1e9)
    runner = led("exp.run")
    m["exp.runner_overhead_ms"] = (runner.self_ns("exp.run")
                                   / runner.calls("exp.run") * 1e-6
                                   if runner.calls("exp.run") else 0.0)
    m["tracing.timer_ns"] = ledgers[0].span
    m["tracing.pair_ns"] = ledgers[0].pair
    untraced = [p["host_s"] for p in result["passes"] if not p["traced"]]
    traced = [p["host_s"] for p in result["passes"] if p["traced"]]
    m["tracing.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return m
