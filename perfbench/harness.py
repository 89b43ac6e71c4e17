"""The benchmark run: setups, warm-up, timed phase, checks and the report.

Imported by run.py once BLAS is pinned and src/ is on the path.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time

import instrument
import machine
import report
import spans
import workloads

# setup runs at least SETUP_MIN times and until SETUP_BUDGET_S have passed, both before and
# after the timed phase; setup_s is the median of all of them
SETUP_MIN = 3
SETUP_MAX = 30
SETUP_BUDGET_S = 1.5
# values a workload reports beside its metrics, with their units
NOTE_UNITS = {"train_loss_first": "nats", "train_loss_last": "nats",
              "sr_psnr_gain_db": "dB", "oracle_max_abs_diff": "abs"}


def _null_span(_name):
    return contextlib.nullcontext()


def _setups(wl, seed, workroot, tag="setup"):
    times = []
    state = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        state = None  # the previous setup's memory is released before the next one
        t0 = time.perf_counter()
        state = wl.setup(seed, os.path.join(workroot, f"{tag}{len(times)}"))
        times.append(time.perf_counter() - t0)
    return state, times


def _untraced(wl, args, workroot):
    state, setup_times = _setups(wl, args.seed, workroot)
    wl.warm(state)
    phase = wl.run(state, args.seconds, _null_span)
    wl.check(state, phase)
    # Setting up again after the run puts setup_s over both ends of it: a setup of ~50 ms
    # repeated for a second or two samples the machine's speed at one moment only, and that
    # speed drifts by tens of percent over tens of seconds.
    del state
    setup_times += _setups(wl, args.seed, workroot, tag="resetup")[1]
    return phase, report.end_to_end(phase, setup_times)


def _traced(wl, args, workroot):
    setup_rec = spans.Recorder()
    tracer = instrument.Tracer(setup_rec, {c: i for i, c in enumerate(workloads.STAGE_CHANNELS)})
    tracer.install()
    try:
        state, setup_times = _setups(wl, args.seed, workroot)
    finally:
        tracer.uninstall()
    wl.warm(state)
    plain = wl.run(state, args.seconds / 2, _null_span)
    wl.check(state, plain)
    tracer.rec = spans.Recorder()
    tracer.install()
    try:
        traced = wl.run(state, args.seconds / 2, tracer.span)
    finally:
        tracer.uninstall()
    wl.check(state, traced)
    table = report.layer_metrics(tracer.rec, traced, setup_rec, len(setup_times))
    table["trace.overhead"] = spans.overhead(report.throughput(plain), report.throughput(traced))
    return plain, traced, table, tracer.rec


def _fmt(value):
    return f"{value:.6g}"


def main(args, root, bench) -> int:
    """Run one workload as args say; `bench` is the parsed BENCHMARK.json."""
    wl = workloads.WORKLOADS[args.workload]
    workroot = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    env = machine.environment()
    probe_before = machine.probe()
    try:
        if args.trace:
            plain, phase, table, rec = _traced(wl, args, workroot)
            phases = [plain, phase]
        else:
            phase, (values, tail) = _untraced(wl, args, workroot)
            phases = [phase]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            os.rmdir(os.path.dirname(workroot))
    probe_after = machine.probe()

    attempted = sum(len(p.windows) for p in phases)
    failed = sum(len(p.failed_ops) for p in phases)
    problems = [why for p in phases for why in p.problems]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"probe before {_fmt(probe_before)} s   after {_fmt(probe_after)} s")
    if args.trace:
        table["probe.before_s"] = probe_before
        table["probe.after_s"] = probe_after
        wanted = bench["per_layer"]
        all_values = table
        for name in sorted(table):
            if table[name]:
                label = "   (computed)" if report.is_computed(name) else ""
                print(f"layer {name:48s} {_fmt(table[name]):>12s} {report.unit_of(name)}{label}")
    else:
        wanted = bench["end_to_end"]
        all_values = dict(values)
        for name in report.END_TO_END:
            extra = ""
            if name == "op_s_tail":
                extra = (f"   (p{tail['tail_percentile']:.1f} of {tail['op_samples']} ops, "
                         f"{tail['tail_samples_above']} above)")
            if not any(m["name"] == name for m in wanted):
                extra += "   (reported, not bounded)"
            print(f"metric {name:12s} {_fmt(values[name]):>12s} {report.unit_of(name)}{extra}")
        if args.workload == "sr_stage1":
            print(f"metric sr_train_s   {_fmt(values['job_s']):>12s} s   (= job_s, reported, not bounded)")
    print(f"metric fail_ratio   {_fmt(failed / max(attempted, 1)):>12s} ratio   ({failed} of {attempted} ops)")
    for key, value in sorted(phases[-1].notes.items()):
        print(f"metric {key:12s} {_fmt(value):>12s} {NOTE_UNITS[key]}   (reported, not bounded)")
    for why in problems:
        print(f"FAILED {why}")

    metrics_out = {}
    for m in wanted:
        if m["name"] not in all_values:
            print(f"perfbench: BENCHMARK.json names unknown metric {m['name']!r}", file=sys.stderr)
            return 2
        metrics_out[m["name"]] = {"value": float(all_values[m["name"]]), "unit": m["unit"]}
    correct = failed == 0 and not problems and attempted > 0

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "probe_before_s": probe_before, "probe_after_s": probe_after,
        "values": all_values, "notes": [p.notes for p in phases], "problems": problems,
        "op_times_s": [p.op_times() for p in phases], "jobs_s": [p.jobs for p in phases],
    }
    if args.trace:
        record["spans"] = [[s.name, s.parent, s.start, s.end] for s in rec.spans]
    else:
        record["tail"] = tail
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1
