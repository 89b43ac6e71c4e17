"""The three workloads: Stage-2 training (train48), full-frame inference
(infer120) and Stage-1 super-resolution (sr_stage1).

Each is a closed loop in one process: the next op starts when the previous
one has returned. A workload has three steps, which the caller times apart:
`setup` (synthetic inputs from the seed, materialised fused frames, model
init or load), `run` (ops until the deadline, timed) and `check` (output
checks, untimed). Inputs come only from the seed passed in. `span` is a
callable giving a context manager per name; the caller passes a recorder's
or a no-op one, so the untraced run pays nothing for it.
"""
from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from crackfuse import data, metrics, segnet, sr, train

IR_FACTOR = Fraction(10, 3)   # RGB/IR sensor ratio of the README walkthrough: 96^2 RGB -> 29^2 IR
VARIANT = "PRGB_plus_PIRprime"
BATCH = 8
STAGE_CHANNELS = segnet.ModelConfig().embed_dims


@dataclass
class Phase:
    """What one timed phase did."""

    images_per_op: int
    windows: list = field(default_factory=list)       # (start, end) of each op, in order
    failed_ops: set = field(default_factory=set)      # indices into windows
    jobs: list = field(default_factory=list)          # wall time of each fixed-size job, s
    job_windows: list = field(default_factory=list)   # (start, end) of work that is not ops
    notes: dict = field(default_factory=dict)         # values reported beside the metrics
    problems: list = field(default_factory=list)      # failed output checks, as text
    detail: dict = field(default_factory=dict)        # what `check` needs from `run`

    def op_times(self):
        return [b - a for a, b in self.windows]

    def fail(self, ops, why):
        self.failed_ops.update(ops)
        self.problems.append(why)


def _now():
    return time.perf_counter()


def _fresh_model(seed):
    return segnet.init_model(segnet.ModelConfig(), data.named_rng(seed, "init"))


def _fused_table(samples, seed):
    # the untrained SR model is exactly bicubic (its last conv starts at zero)
    # but runs the whole conv net, as sr-apply does
    sr_model = sr.init_sr_model(IR_FACTOR, data.named_rng(seed, "sr"))
    return data.materialize(samples, VARIANT, sr_model=sr_model)


# --------------------------------------------------------------------------
# train48: Stage-2 training, as `crackfuse train`


TRAIN_FRAMES = 16   # the first 8 train, the other 8 are the val set
TRAIN_RGB = (96, 96)
TRAIN_PATCH = 48
# Iterations per train() call: the schedule and the loss check need a fixed length. The call
# ends with a val pass and its first best.ckpt and last.ckpt writes, so 1 op in 8 is the same
# slow op and the tail percentile (10 ops above it in a run of ~100) falls among those, as the
# periodic eval of a real run makes its tail.
TRAIN_ITERS = 8
LOSS_WINDOW = 4


class _Deadline(Exception):
    pass


class _OpClock:
    """Batch source handed to train.train. An op is the gap between consecutive
    batch() calls; after the deadline the next batch() call ends the run."""

    def __init__(self, src, phase: Phase, span, deadline):
        self.src = src
        self.phase = phase
        self.span = span
        self.deadline = deadline
        self.start = None

    def batch(self, it):
        now = _now()
        self.close(now)
        if now >= self.deadline:
            raise _Deadline
        self.start = now
        with self.span("data.batch"):
            return self.src.batch(it)

    def close(self, now):
        if self.start is not None:
            self.phase.windows.append((self.start, now))
            self.start = None


def _digest(named: dict) -> str:
    """Hash of names, dtypes, shapes and bytes of a weight dict: equal iff bitwise equal.
    A run keeps one per train() call, so its memory does not grow with the number of calls."""
    h = hashlib.sha256()
    for name in sorted(named):
        a = np.ascontiguousarray(named[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _eval_batches(src, span):
    with span("train.eval"):
        yield from src.eval_batches()


class Train48:
    name = "train48"

    def setup(self, seed, workdir):
        samples = data.synth_dataset(seed, TRAIN_FRAMES, TRAIN_RGB, IR_FACTOR)
        ids = [s.id for s in samples]
        table = _fused_table(samples, seed)
        model = _fresh_model(seed)
        return {
            "seed": seed, "workdir": workdir, "cfg": model.cfg, "weights": model.weights,
            "train_src": data.BatchSource(table, ids[:BATCH], BATCH, TRAIN_PATCH, seed),
            "val_src": data.BatchSource(table, ids[BATCH:], BATCH, TRAIN_PATCH, seed,
                                        augment_data=False),
        }

    def warm(self, state):
        x, t, _ = state["train_src"].batch(0)
        model = segnet.SegModel(state["cfg"], state["weights"])
        logits, vjp = segnet.model_forward(x, model)
        vjp(train.cross_entropy(logits, t)[1](1.0)[0])

    def run(self, state, seconds, span):
        phase = Phase(images_per_op=BATCH)
        deadline = _now() + seconds
        calls = phase.detail["calls"] = []
        while True:
            # the first call always completes, so every run checks one whole call
            clock = _OpClock(state["train_src"], phase, span, deadline if calls else math.inf)
            cfg = train.TrainConfig(
                total_iters=TRAIN_ITERS, batch_size=BATCH, base_lr=1e-3, warmup_iters=2,
                seed=state["seed"], eval_interval=TRAIN_ITERS,
                checkpoint_dir=os.path.join(state["workdir"], f"call{len(calls)}"))
            model = segnet.SegModel(state["cfg"], state["weights"])
            first_op = len(phase.windows)
            t0 = _now()
            try:
                result = train.train(model, clock, cfg,
                                     val_batches_fn=lambda: _eval_batches(state["val_src"], span))
            except _Deadline:
                break
            except Exception as e:  # the op in progress failed; the run stops there
                clock.start = t0 if clock.start is None else clock.start
                clock.close(_now())
                phase.fail([len(phase.windows) - 1], f"train: {e!r}")
                break
            end = _now()
            clock.close(end)
            phase.jobs.append(end - t0)
            calls.append({"ops": range(first_op, len(phase.windows)),
                          "losses": result.loss_curve, "last_path": result.last_path,
                          "digest": _digest(segnet.flatten_weights(model))})
            if end >= deadline:
                break
        return phase

    def check(self, state, phase):
        for call in phase.detail["calls"]:
            losses = call["losses"]
            first = float(np.mean(losses[:LOSS_WINDOW]))
            last = float(np.mean(losses[-LOSS_WINDOW:]))
            phase.notes.setdefault("train_loss_first", first)
            phase.notes.setdefault("train_loss_last", last)
            if not all(math.isfinite(v) for v in losses):
                phase.fail(call["ops"], "train: non-finite loss")
            elif not last < first:
                phase.fail(call["ops"], f"train: final loss window {last:.4f} not below first {first:.4f}")
            tensors, _manifest = train.load_checkpoint(call["last_path"])
            stored = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
            if _digest(stored) != call["digest"]:
                phase.fail(call["ops"], f"train: {call['last_path']} does not load back bitwise")


# --------------------------------------------------------------------------
# infer120: full-frame segmentation, as `crackfuse eval --checkpoint`


INFER_FRAMES = 16
INFER_RGB = (120, 120)
ORACLE_TOL = 1e-9


class Infer120:
    name = "infer120"

    def setup(self, seed, workdir):
        samples = data.synth_dataset(seed, INFER_FRAMES, INFER_RGB, IR_FACTOR)
        table = _fused_table(samples, seed)
        model = _fresh_model(seed)
        path = os.path.join(workdir, "model.ckpt")
        train.save_checkpoint(path, segnet.flatten_weights(model),
                              {"format": "crackfuse-checkpoint-v1", "iteration": 0,
                               "model_config": model.cfg.to_dict()})
        # load as `crackfuse eval --checkpoint` does: config from the manifest, weights into a template
        tensors, manifest = train.load_checkpoint(path)
        loaded = segnet.init_model(segnet.ModelConfig.from_dict(manifest["model_config"]),
                                   data.named_rng(0, "init"))
        loaded.weights = segnet.unflatten_weights(
            loaded, {k: v for k, v in tensors.items() if not k.startswith("opt.")})
        ids = [s.id for s in samples]
        batches = []
        for k in range(0, len(ids), BATCH):
            take = ids[k:k + BATCH]
            batches.append((np.stack([table[i][0] for i in take]),
                            np.stack([table[i][1] for i in take]).astype(np.int64)))
        return {"model": loaded, "batches": batches}

    def warm(self, state):
        segnet.model_forward(state["batches"][0][0], state["model"])

    def run(self, state, seconds, span):
        model, batches = state["model"], state["batches"]
        phase = Phase(images_per_op=BATCH)
        cm = metrics.ConfusionMatrix(model.cfg.num_classes)
        want = (BATCH, model.cfg.num_classes) + INFER_RGB
        deadline = _now() + seconds
        k = added = 0
        while True:
            x, t = batches[k % len(batches)]
            logits = None
            t0 = _now()
            try:
                logits, _ = segnet.model_forward(x, model)
                cm.add(np.argmax(logits, axis=1), t)
                added += 1
                err = None
            except Exception as e:  # counted as a failed op
                err = e
            t1 = _now()
            phase.windows.append((t0, t1))
            if err is not None:
                phase.fail([k], f"infer: {err!r}")
            elif logits.shape != want or not np.isfinite(logits).all():
                phase.fail([k], f"infer: logits of shape {logits.shape} or non-finite")
            if k == 0:
                phase.detail["first_logits"] = logits
            k += 1
            if t1 >= deadline and k % len(batches) == 0:  # whole passes over the frames
                break
        n = len(batches)
        phase.jobs = [phase.windows[p + n - 1][1] - phase.windows[p][0]
                      for p in range(0, len(phase.windows), n)]
        phase.detail["cm"] = cm
        phase.detail["added"] = added
        return phase

    def check(self, state, phase):
        first = phase.detail["first_logits"]
        if first is not None:
            oracle, _ = segnet.model_forward(state["batches"][0][0], state["model"], parallel=False)
            diff = float(np.max(np.abs(first - oracle)))
            phase.notes["oracle_max_abs_diff"] = diff
            if not diff <= ORACLE_TOL:
                phase.fail([0], f"infer: parallel scan differs from the sequential oracle by {diff:.3e}")
        cm = phase.detail["cm"]
        pixels = phase.detail["added"] * BATCH * INFER_RGB[0] * INFER_RGB[1]
        sums = cm.tp + cm.fp + cm.fn + cm.tn
        if not np.all(sums == pixels):
            phase.fail(range(len(phase.windows)), f"infer: confusion counts {sums.tolist()} != {pixels} pixels")


# --------------------------------------------------------------------------
# sr_stage1: Stage-1 training and application, as `crackfuse sr-train` + `sr-apply`


SR_FRAMES = 20
SR_RGB = (96, 96)
SR_ITERS = 300   # SrTrainConfig's default, as `crackfuse sr-train` runs
# The run is rounds of one training call then one pass of applies over the frames, repeated
# until the deadline (~8 rounds in 30 s), so job_s is a median of training calls spread over
# the whole run, which a few seconds of machine slowdown cannot move.


class SrStage1:
    name = "sr_stage1"

    def setup(self, seed, workdir):
        samples = data.synth_dataset(seed, SR_FRAMES, SR_RGB, IR_FACTOR)
        split = data.split_ids([s.id for s in samples], seed)
        return {
            "seed": seed,
            "train_ir": [s.ir for s in samples if split[s.id] == "train"],
            "held_ir": [s.ir for s in samples if split[s.id] == "val"],
            "frames": [s.ir for s in samples],
        }

    def warm(self, state):
        model = sr.sr_train_selfsupervised(state["train_ir"], IR_FACTOR, sr.SrTrainConfig(iters=2))
        sr.sr_apply(model, state["frames"][0], SR_RGB)

    def run(self, state, seconds, span):
        phase = Phase(images_per_op=1)
        frames = state["frames"]
        want = (3,) + SR_RGB
        deadline = _now() + seconds
        k = 0
        while True:
            t0 = _now()
            try:
                model = sr.sr_train_selfsupervised(state["train_ir"], IR_FACTOR,
                                                   sr.SrTrainConfig(iters=SR_ITERS, seed=state["seed"]))
            except Exception as e:  # no model to apply: the run ends with one failed op
                phase.windows.append((t0, _now()))
                phase.fail([len(phase.windows) - 1], f"sr-train: {e!r}")
                return phase
            t1 = _now()
            phase.jobs.append(t1 - t0)
            phase.job_windows.append((t0, t1))
            phase.detail["model"] = model
            for frame in frames:
                a = _now()
                try:
                    out = sr.sr_apply(model, frame, SR_RGB)
                    err = None
                except Exception as e:  # counted as a failed op
                    err = e
                b = _now()
                phase.windows.append((a, b))
                if err is not None:
                    phase.fail([k], f"sr-apply: {err!r}")
                elif out.shape != want or not np.isfinite(out).all() or out.min() < 0.0 or out.max() > 1.0:
                    phase.fail([k], f"sr-apply: output of shape {out.shape} not finite in [0, 1]")
                k += 1
            if _now() >= deadline:
                return phase

    def check(self, state, phase):
        if "model" not in phase.detail:
            return
        rows = sr.evaluate_sr(phase.detail["model"], state["held_ir"], IR_FACTOR)
        gains = [metrics.psnr_for_log(r["psnr_model"]) - metrics.psnr_for_log(r["psnr_bicubic"])
                 for r in rows]
        phase.notes["sr_psnr_gain_db"] = float(np.mean(gains))


WORKLOADS = {w.name: w for w in (Train48(), Infer120(), SrStage1())}
