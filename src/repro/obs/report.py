"""Analysis over lifecycle traces and metrics snapshots.

:func:`analyze` turns a flat ``.rtrace`` record stream into the latency
decomposition the paper argues about: where each message spent its time
between origination and delivery, per-stage percentiles (by
:func:`repro.sim.latency.summarize`, the rule
:class:`~repro.sim.latency.LatencyRecorder` reports with), token-round
statistics (computed the same way :class:`repro.sim.trace.RoundTracer`
computes them, so the two cross-check exactly on a shared run), and the
top-N slowest deliveries.  :func:`format_report` and
:func:`format_metrics` are the pretty-printers behind
``python -m repro.cli trace-analyze`` and ``python -m repro.cli report``.

Stage deltas telescope: for a delivery chain
``originated → token_granted → multicast → received → ordered →
delivered`` the per-stage differences sum *exactly* to the end-to-end
latency, so ``reconciliation.error_frac`` is zero up to float rounding
on any complete trace — the acceptance gate checks < 1%.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from ..sim.latency import summarize
from ..wire.tracefmt import LoadedTrace, load_trace
from .lifecycle import (
    AUX_POST_TOKEN,
    STAGE_COALESCED,
    STAGE_DELIVERED_AGREED,
    STAGE_DELIVERED_SAFE,
    STAGE_MULTICAST,
    STAGE_NAMES,
    STAGE_ORDERED,
    STAGE_ORIGINATED,
    STAGE_PACKED,
    STAGE_RECEIVED,
    STAGE_TOKEN_GRANTED,
    STAGE_TOKEN_HANDLED,
)

__all__ = ["analyze", "analyze_path", "format_report", "format_metrics"]

#: Human-readable names for the chain segments (stage-to-stage deltas).
SEGMENT_NAMES = (
    "queue_wait",      # originated -> token_granted (waiting for the token)
    "send_gap",        # token_granted -> multicast (send CPU + NIC queue)
    "propagation",     # multicast -> received (fabric; remote chains only)
    "ordering_wait",   # received -> ordered (buffer until deliverable)
    "self_ordering",   # multicast -> ordered (initiator's own copy)
    "delivery_exec",   # ordered -> delivered (delivery CPU charge)
)


def analyze(trace: LoadedTrace, top_n: int = 10) -> Dict[str, Any]:
    """Full latency decomposition of one loaded trace (JSON-ready)."""
    originated: Dict[Tuple[int, int], float] = {}
    granted: Dict[Tuple[int, int], float] = {}
    multicast_first: Dict[Tuple[int, int], float] = {}
    received: Dict[Tuple[int, int, int], float] = {}
    ordered_at: Dict[Tuple[int, int, int], float] = {}
    delivered: Dict[Tuple[int, int, int], Tuple[float, int]] = {}
    token_times: Dict[int, List[float]] = {}
    post_token_sends = 0
    new_messages = 0
    stage_counts: Dict[int, int] = {}

    for t, stage, node, origin, seq, aux in trace.records:
        stage_counts[stage] = stage_counts.get(stage, 0) + 1
        if stage == STAGE_ORIGINATED:
            originated.setdefault((origin, seq), t)
        elif stage == STAGE_TOKEN_GRANTED:
            granted.setdefault((origin, seq), t)
            if aux & AUX_POST_TOKEN:
                post_token_sends += 1
        elif stage == STAGE_MULTICAST:
            multicast_first.setdefault((origin, seq), t)
        elif stage == STAGE_RECEIVED:
            received.setdefault((origin, seq, node), t)
        elif stage == STAGE_ORDERED:
            ordered_at.setdefault((origin, seq, node), t)
        elif stage in (STAGE_DELIVERED_AGREED, STAGE_DELIVERED_SAFE):
            delivered.setdefault((origin, seq, node), (t, stage))
        elif stage == STAGE_TOKEN_HANDLED:
            token_times.setdefault(node, []).append(t)
            new_messages += aux

    # -- delivery chains -----------------------------------------------------
    segments: Dict[str, List[float]] = {name: [] for name in SEGMENT_NAMES}
    e2e_by_service: Dict[str, List[float]] = {"agreed": [], "safe": []}
    chains: List[Dict[str, Any]] = []
    sum_stage = 0.0
    sum_e2e = 0.0
    reconciled = 0

    for (origin, seq, node), (t_del, del_stage) in delivered.items():
        message = (origin, seq)
        t_orig = originated.get(message)
        t_grant = granted.get(message)
        t_mcast = multicast_first.get(message)
        t_recv = received.get((origin, seq, node))
        t_ord = ordered_at.get((origin, seq, node))
        if t_orig is None or t_grant is None or t_mcast is None or t_ord is None:
            continue
        parts: Dict[str, float] = {
            "queue_wait": t_grant - t_orig,
            "send_gap": t_mcast - t_grant,
        }
        if node != origin and t_recv is not None:
            parts["propagation"] = t_recv - t_mcast
            parts["ordering_wait"] = t_ord - t_recv
        else:
            parts["self_ordering"] = t_ord - t_mcast
        parts["delivery_exec"] = t_del - t_ord
        for name, value in parts.items():
            segments[name].append(value)
        e2e = t_del - t_orig
        service = "safe" if del_stage == STAGE_DELIVERED_SAFE else "agreed"
        e2e_by_service[service].append(e2e)
        sum_stage += sum(parts.values())
        sum_e2e += e2e
        reconciled += 1
        chains.append({
            "origin": origin, "seq": seq, "node": node,
            "service": service, "e2e_s": e2e, "segments": parts,
        })

    chains.sort(key=lambda c: (-c["e2e_s"], c["origin"], c["seq"], c["node"]))

    # -- token rounds (RoundTracer-compatible) -------------------------------
    per_node_rounds: Dict[str, Dict[str, Any]] = {}
    node_means: List[float] = []
    for node in sorted(token_times):
        times = token_times[node]
        intervals = [
            b - a for a, b in zip(times[2:], times[3:])
        ]
        if intervals:
            mean = sum(intervals) / len(intervals)
            node_means.append(mean)
            per_node_rounds[str(node)] = {
                "count": len(intervals),
                "mean_round_s": mean,
                "min_round_s": min(intervals),
                "max_round_s": max(intervals),
            }
        else:
            per_node_rounds[str(node)] = {
                "count": 0, "mean_round_s": 0.0,
                "min_round_s": 0.0, "max_round_s": 0.0,
            }

    return {
        "schema": 1,
        "world": trace.world_name,
        "clock": trace.clock_name,
        "label": trace.label,
        "truncated_tail": trace.truncated_tail,
        "records": len(trace.records),
        "stage_counts": {
            STAGE_NAMES.get(stage, "s%d" % stage): count
            for stage, count in sorted(stage_counts.items())
        },
        "messages": len(granted),
        "deliveries": len(delivered),
        "segments": {
            name: asdict(summarize(values))
            for name, values in segments.items()
        },
        "end_to_end": {
            service: asdict(summarize(values))
            for service, values in e2e_by_service.items()
        },
        "reconciliation": {
            "chains": reconciled,
            "sum_stage_s": sum_stage,
            "sum_e2e_s": sum_e2e,
            "error_frac": (
                abs(sum_stage - sum_e2e) / sum_e2e if sum_e2e else 0.0
            ),
        },
        "token_rounds": {
            "per_node": per_node_rounds,
            "mean_round_s": (
                sum(node_means) / len(node_means) if node_means else 0.0
            ),
            "handlings": sum(len(v) for v in token_times.values()),
            "post_token_sends": post_token_sends,
            "new_messages": new_messages,
            "overlap_fraction": (
                post_token_sends / new_messages if new_messages else 0.0
            ),
        },
        "slowest": chains[:top_n],
    }


def analyze_path(path: str, top_n: int = 10) -> Dict[str, Any]:
    return analyze(load_trace(path), top_n=top_n)


# -- pretty-printers ---------------------------------------------------------

def _us(seconds: float) -> str:
    return "%10.1f" % (seconds * 1e6)


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of an :func:`analyze` report."""
    lines: List[str] = []
    lines.append(
        "trace: world=%s clock=%s records=%d messages=%d deliveries=%d%s"
        % (
            report["world"], report["clock"], report["records"],
            report["messages"], report["deliveries"],
            "  TRUNCATED-TAIL" if report.get("truncated_tail") else "",
        )
    )
    if report["label"]:
        lines.append("label: %s" % report["label"])
    lines.append("")
    lines.append("per-stage latency (us)")
    lines.append(
        "  %-14s %8s %10s %10s %10s %10s %10s"
        % ("segment", "count", "mean", "p50", "p90", "p99", "max")
    )
    for name in SEGMENT_NAMES:
        summary = report["segments"].get(name)
        if not summary or summary["count"] == 0:
            continue
        lines.append(
            "  %-14s %8d %s %s %s %s %s" % (
                name, summary["count"], _us(summary["mean_s"]),
                _us(summary["p50_s"]), _us(summary["p90_s"]),
                _us(summary["p99_s"]), _us(summary["max_s"]),
            )
        )
    lines.append("")
    lines.append("end-to-end latency (us)")
    for service in ("agreed", "safe"):
        summary = report["end_to_end"][service]
        if summary["count"] == 0:
            continue
        lines.append(
            "  %-14s %8d %s %s %s %s %s" % (
                service, summary["count"], _us(summary["mean_s"]),
                _us(summary["p50_s"]), _us(summary["p90_s"]),
                _us(summary["p99_s"]), _us(summary["max_s"]),
            )
        )
    recon = report["reconciliation"]
    lines.append(
        "  reconciliation: %d chains, stage-sum vs e2e error %.4f%%"
        % (recon["chains"], recon["error_frac"] * 100.0)
    )
    rounds = report["token_rounds"]
    lines.append("")
    lines.append(
        "token rounds: %d handlings, mean round %.1f us, overlap %.3f "
        "(%d post-token sends / %d initiated)"
        % (
            rounds["handlings"], rounds["mean_round_s"] * 1e6,
            rounds["overlap_fraction"], rounds["post_token_sends"],
            rounds["new_messages"],
        )
    )
    slowest = report["slowest"]
    if slowest:
        lines.append("")
        lines.append("slowest deliveries")
        for chain in slowest:
            parts = "  ".join(
                "%s=%.1fus" % (name, value * 1e6)
                for name, value in chain["segments"].items()
            )
            lines.append(
                "  (pid %d, seq %d) -> node %d  %s  e2e %.1fus  [%s]" % (
                    chain["origin"], chain["seq"], chain["node"],
                    chain["service"], chain["e2e_s"] * 1e6, parts,
                )
            )
    return "\n".join(lines)


def format_metrics(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a MetricsRegistry snapshot."""
    lines: List[str] = []
    cluster = snapshot.get("cluster", {})
    nodes = snapshot.get("nodes", {})
    lines.append(
        "metrics: %d cluster aggregates across %d nodes"
        % (len(cluster), len(nodes))
    )
    lines.append("")
    lines.append("  %-44s %16s" % ("metric", "cluster total"))
    for name, value in sorted(cluster.items()):
        if isinstance(value, dict):
            rendered = "hist n=%d sum=%.6g" % (value["count"], value["sum"])
        elif isinstance(value, float):
            rendered = "%.6g" % value
        else:
            rendered = "%d" % value
        lines.append("  %-44s %16s" % (name, rendered))
    return "\n".join(lines)
