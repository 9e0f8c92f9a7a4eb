"""Statistics helpers of the benchmark: percentiles with the sample-count
rule, ok_ratio accounting, the layer split, and the metrics run.py prints.

The perfbench binary reports raw samples and counters; everything derived
from them is computed here so that test_stats.py can check it.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest sample such that at least
    q percent of the samples are at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile rank out of range: %r" % q)
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    if n < 1:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values, q):
    """percentile(values, q), refused when fewer than MIN_BEYOND samples lie
    beyond it: such a tail is a handful of outliers, not a percentile."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has only %d beyond it (need %d)"
            % (q, len(values), beyond, MIN_BEYOND))
    return percentile(values, q)


def ok_ratio(attempted, failed):
    """Share of attempted operations that succeeded and passed the checks."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed=%d outside [0, attempted=%d]"
                         % (failed, attempted))
    return (attempted - failed) / attempted


def remainder(wall, parts):
    """What the timed seams leave of `wall`: never negative. Seams timed
    inside the wall can only exceed it by timer granularity, and a layer
    cannot take negative time."""
    return max(0.0, wall - sum(parts))


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, as {name: (value, unit)}."""
    batch_us = raw["batch_us"]
    sub_op_us = raw["sub_op_us"]
    return {
        "docs_per_s": (raw["docs_timed"] / (sum(batch_us) / 1e6), "docs/s"),
        "batch_ms_p50": (statistics.median(batch_us) / 1e3, "ms"),
        "batch_ms_p95": (tail_percentile(batch_us, 95) / 1e3, "ms"),
        "sub_op_us_p50": (statistics.median(sub_op_us), "us"),
        "sub_op_us_p95": (tail_percentile(sub_op_us, 95), "us"),
        "ckpt_ms_p50": (statistics.median(raw["ckpt_us"]) / 1e3, "ms"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ok_ratio": (ok_ratio(raw["attempted"], raw["failed"]), "ratio"),
    }


def _per(num, den):
    return num / den if den else 0.0


def layer_split(layers):
    """Traced wall time split into layers, in microseconds: warehouse
    (ingest, which contains parse and diff), alerters (detect), mqp (match)
    and system (resolve + deliver). Deliver is the remainder of the batch
    wall time once the seams and the trace's own bookkeeping are taken out.
    """
    wall = layers["traced_wall_us"] - layers["bookkeeping_us"]
    seams = [layers["ingest_us"], layers["detect_us"], layers["match_us"],
             layers["resolve_us"]]
    deliver = remainder(wall, seams)
    return {
        "wall": wall,
        "warehouse": layers["ingest_us"],
        "alerters": layers["detect_us"],
        "mqp": layers["match_us"],
        "resolve": layers["resolve_us"],
        "deliver": deliver,
        "system": layers["resolve_us"] + deliver,
    }


def per_layer(raw):
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    l = raw["layers"]
    docs = l["traced_docs"]
    split = layer_split(l)
    traced_dps = _per(docs, l["traced_wall_us"] / 1e6)
    untraced_dps = _per(l["untraced_docs"], l["untraced_wall_us"] / 1e6)
    ops = raw["subscribe_us"], raw["unsubscribe_us"]
    return {
        "xml.parse_us_per_doc": (_per(l["parse_us"], docs), "us"),
        "xml.parse_mb_per_s": (_per(l["parse_bytes"], l["parse_us"]), "MB/s"),
        "xml.nodes_per_doc": (_per(l["nodes"], docs), "count"),
        "xmldiff.diff_us_per_doc": (_per(l["diff_us"], docs), "us"),
        "xmldiff.diff_ms_max": (l["diff_max_us"] / 1e3, "ms"),
        "xmldiff.changes_per_doc": (_per(l["changes"], docs), "count"),
        "xmldiff.max_siblings": (l["max_siblings"], "count"),
        "warehouse.ingest_us_per_doc": (_per(l["ingest_us"], docs), "us"),
        "warehouse.changed_ratio": (_per(l["changed_docs"], l["ingest_docs"]),
                                    "ratio"),
        "alerters.detect_us_per_doc": (_per(l["detect_us"], docs), "us"),
        "alerters.alert_ratio": (_per(l["alerts"], l["detect_docs"]), "ratio"),
        "alerters.events_per_alert": (_per(l["events"], l["alerts"]), "count"),
        "mqp.match_us_per_alert": (_per(l["match_us"], l["alerts"]), "us"),
        "mqp.matches_per_alert": (_per(l["matches"], l["alerts"]), "count"),
        "mqp.cells_per_alert": (_per(l["cells"], l["alerts"]), "count"),
        "system.resolve_us_per_doc": (_per(l["resolve_us"], docs), "us"),
        "system.actions_per_doc": (_per(l["actions"], docs), "count"),
        "system.payload_bytes_per_doc": (_per(l["payload_bytes"], docs),
                                         "bytes"),
        "system.deliver_us_per_doc": (_per(split["deliver"], docs), "us"),
        "reporter.reports_per_doc": (_per(l["reports"], docs), "count"),
        "reporter.report_bytes_per_doc": (_per(l["report_bytes"], docs),
                                          "bytes"),
        "sublang.parse_us_per_sub": (_per(l["sublang_us"], l["sublang_subs"]),
                                     "us"),
        "manager.subscribe_us_per_op": (_per(sum(ops[0]), len(ops[0])), "us"),
        "manager.unsubscribe_us_per_op": (_per(sum(ops[1]), len(ops[1])),
                                          "us"),
        "storage.checkpoint_ms": (
            statistics.median(raw["ckpt_us"]) / 1e3 if raw["ckpt_us"] else 0.0,
            "ms"),
        "storage.bytes_per_doc": (_per(l["storage_doc_bytes"], docs), "bytes"),
        "storage.bytes_per_sub_op": (
            _per(l["storage_op_bytes"], l["storage_ops"]), "bytes"),
        "ipc.encode_us_per_doc": (_per(l["encode_us"], l["ipc_docs"]), "us"),
        "ipc.decode_us_per_doc": (_per(l["decode_us"], l["ipc_docs"]), "us"),
        "ipc.bytes_per_doc": (_per(l["ipc_bytes"], l["ipc_docs"]), "bytes"),
        "trace.overhead_pct": (
            _per(untraced_dps - traced_dps, untraced_dps) * 100.0, "%"),
        "share.warehouse_pct": (_per(split["warehouse"], split["wall"]) * 100,
                                "%"),
        "share.alerters_pct": (_per(split["alerters"], split["wall"]) * 100,
                               "%"),
        "share.mqp_pct": (_per(split["mqp"], split["wall"]) * 100, "%"),
        "share.system_pct": (_per(split["system"], split["wall"]) * 100, "%"),
    }
