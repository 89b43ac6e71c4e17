"""Metrics from timed phases: the end-to-end figures and the per-layer table.

Per-layer times are seconds per op for spans inside the op windows (no
prefix), seconds per job for spans inside fixed jobs that are not made of
ops (`job.`, the Stage-1 training call of sr_stage1) and seconds per setup
(`setup.`). A name whose layer did no work in that phase reads 0. Counts of
work are computed from call shapes, not measured.
"""
from __future__ import annotations

import math
import re
import resource
import statistics

import spans as sp
from instrument import TARGETS

# spans the workloads open themselves, around calls into the package
_OWN_SPANS = [("data.batch", False), ("train.eval", False), ("metrics.confusion_add", False)]
_WAIT_SPANS = {"data.batch"}   # time the step blocks on, not time busy
_STAGE_SPAN = re.compile(r"scan2d\.ss2d\.s\d")
_STAGES = 4
_PREFIXES = ("", "job.", "setup.")
_COUNTERS = (
    "ops.conv2d.calls", "ops.conv2d.gflop", "ops.conv2d.gflop_per_s",
    "scan2d.ss2d.state_elems", "scan2d.ss2d.state_elems_per_s",
    "ssm.recurrence.calls", "ssm.recurrence.pad_ratio", "ssm.recurrence.padded_elems_per_s",
    "train.save_checkpoint.bytes", "train.save_checkpoint.bytes_per_s",
)
_TRACE = ("trace.coverage", "trace.overhead", "probe.before_s", "probe.after_s")

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "img_per_s": "1/s",
              "job_s": "s", "peak_rss_mb": "MB"}


def _span_kinds():
    seen = {}
    for _module, _attr, base, has_vjp in TARGETS:
        seen.setdefault(base, has_vjp)
    for base, has_vjp in _OWN_SPANS:
        seen.setdefault(base, has_vjp)
    for i in range(_STAGES):
        seen[f"scan2d.ss2d.s{i}"] = True
    return seen


def _time_names(base, has_vjp):
    if has_vjp:
        return [f"{base}.{k}" for k in ("fwd_s", "bwd_s", "self_fwd_s", "self_bwd_s")]
    kind = "wait" if base in _WAIT_SPANS else "busy"
    return [f"{base}.{kind}_s", f"{base}.self_s"]


def layer_names() -> list[str]:
    """Every per-layer metric name a traced run reports."""
    names = []
    for prefix in _PREFIXES:
        for base, has_vjp in _span_kinds().items():
            names += [prefix + n for n in _time_names(base, has_vjp)]
        names += [prefix + c for c in _COUNTERS]
    return names + list(_TRACE)


def is_computed(name: str) -> bool:
    """Whether a per-layer value is a work count computed from call shapes, or its rate."""
    for prefix in _PREFIXES:
        if prefix and name.startswith(prefix):
            name = name[len(prefix):]
    return name in _COUNTERS


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "coverage", "overhead")):
        return "ratio"
    return "count"


def _div(a, b):
    return a / b if b else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(phase, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, and how the tail was chosen."""
    ops = phase.op_times()
    tail, pct, above = sp.tail_percentile(ops)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": tail,
        "img_per_s": throughput(phase),
        "job_s": statistics.median(phase.jobs) if phase.jobs else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, {"tail_percentile": pct, "tail_samples_above": above, "op_samples": len(ops)}


def throughput(phase) -> float:
    """Images per second of op time."""
    return _div(len(phase.windows) * phase.images_per_op, sum(phase.op_times()))


def _aggregate(rec, keep_span, keep_count, divisor, prefix, out):
    totals = sp.totals_by_name(rec.spans, keep_span)
    tot = {}   # seconds per metric name (before division), for the rates below
    for name, (total, own, _n) in totals.items():
        if name.endswith((".fwd", ".bwd")):
            base, kind = name[:-4], name[-3:]
            keys = [(f"{base}.{kind}_s", total), (f"{base}.self_{kind}_s", own)]
            if _STAGE_SPAN.fullmatch(base):
                keys += [(f"scan2d.ss2d.{kind}_s", total), (f"scan2d.ss2d.self_{kind}_s", own)]
        else:
            kind = "wait" if name in _WAIT_SPANS else "busy"
            keys = [(f"{name}.{kind}_s", total), (f"{name}.self_s", own)]
        for key, value in keys:
            tot[key] = tot.get(key, 0.0) + value
    counts = {}
    for (_t, name, amount), k in zip(rec.counts, keep_count):
        if k:
            counts[name] = counts.get(name, 0.0) + amount
    for key, value in tot.items():
        out[prefix + key] = _div(value, divisor)
    conv_s = tot.get("ops.conv2d.fwd_s", 0.0) + tot.get("ops.conv2d.bwd_s", 0.0)
    flop = counts.get("ops.conv2d.flop", 0.0)
    elems = counts.get("scan2d.ss2d.state_elems", 0.0)
    saved = counts.get("train.save_checkpoint.bytes", 0.0)
    out[prefix + "ops.conv2d.calls"] = _div(counts.get("ops.conv2d.calls", 0.0), divisor)
    out[prefix + "ops.conv2d.gflop"] = _div(flop / 1e9, divisor)
    out[prefix + "ops.conv2d.gflop_per_s"] = _div(flop / 1e9, conv_s)
    out[prefix + "scan2d.ss2d.state_elems"] = _div(elems, divisor)
    out[prefix + "scan2d.ss2d.state_elems_per_s"] = _div(elems, tot.get("scan2d.ss2d.fwd_s", 0.0))
    out[prefix + "ssm.recurrence.calls"] = _div(counts.get("ssm.recurrence.calls", 0.0), divisor)
    out[prefix + "ssm.recurrence.pad_ratio"] = _div(counts.get("ssm.recurrence.padded_length", 0.0),
                                                    counts.get("ssm.recurrence.length", 0.0))
    out[prefix + "ssm.recurrence.padded_elems_per_s"] = _div(
        counts.get("ssm.recurrence.padded_elems", 0.0), tot.get("ssm.recurrence.busy_s", 0.0))
    saves = totals.get("train.save_checkpoint", (0.0, 0.0, 0))[2]
    out[prefix + "train.save_checkpoint.bytes"] = _div(saved, saves)
    out[prefix + "train.save_checkpoint.bytes_per_s"] = _div(saved, tot.get("train.save_checkpoint.busy_s", 0.0))


def layer_metrics(run_rec, phase, setup_rec, n_setups) -> dict:
    """The per-layer table of one traced phase and the setups before it."""
    out = dict.fromkeys(layer_names(), 0.0)
    spans = run_rec.spans
    roots = sp.roots(spans)
    root_start = [spans[r].start for r in roots]
    in_op = sp.in_windows(root_start, phase.windows)
    in_job = [not o and j for o, j in zip(in_op, sp.in_windows(root_start, phase.job_windows))]
    count_times = [t for t, _n, _a in run_rec.counts]
    count_op = sp.in_windows(count_times, phase.windows)
    count_job = [not o and j for o, j in zip(count_op, sp.in_windows(count_times, phase.job_windows))]
    _aggregate(run_rec, in_op, count_op, len(phase.windows), "", out)
    _aggregate(run_rec, in_job, count_job, len(phase.job_windows), "job.", out)
    every_span = [True] * len(setup_rec.spans)
    every_count = [True] * len(setup_rec.counts)
    _aggregate(setup_rec, every_span, every_count, n_setups, "setup.", out)
    out["trace.coverage"] = sp.coverage(spans, phase.windows)
    unknown = sorted(set(out) - set(layer_names()))
    if unknown:
        raise RuntimeError(f"per-layer names missing from layer_names(): {unknown}")
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}
