"""Outside-in tracing of crackfuse: wraps the package's public functions where
they are looked up, so that each call records a span in a Recorder.

Nothing in the package changes. A function is replaced in every crackfuse
module that binds it (its own module and every `from .x import f` copy), so
calls made inside the package are traced too; `uninstall` puts the originals
back. Functions that return `(output, vjp)` record `<name>.fwd` for the call
and `<name>.bwd` for each call of the returned vjp. Counters of computed work
(FLOPs, state elements, scan padding, bytes) are derived from argument shapes.
"""
from __future__ import annotations

import os
import sys

from crackfuse import data, metrics, ops, scan2d, segnet, sr, ssm, train, trees

from spans import Recorder

# (module, attribute, span name, returns a vjp)
TARGETS = [
    (ssm, "linear_recurrence_par", "ssm.recurrence", False),
    (ssm, "linear_recurrence_seq", "ssm.recurrence", False),
    (ssm, "selective_scan_par", "ssm.selective_scan", True),
    (ssm, "selective_scan_seq", "ssm.selective_scan", True),
    (scan2d, "ss2d", "scan2d.ss2d", True),
    (segnet, "init_model", "segnet.init_model", False),
    (segnet, "patch_embed", "segnet.patch_embed", True),
    (segnet, "vss_block", "segnet.vss_block", True),
    (segnet, "downsample", "segnet.downsample", True),
    (segnet, "encoder_forward", "segnet.encoder_forward", True),
    (segnet, "uper_decode", "segnet.uper_decode", True),
    (segnet, "model_forward", "segnet.model_forward", True),
    (ops, "conv2d", "ops.conv2d", True),
    (ops, "resize_bicubic", "ops.resize", True),
    (ops, "resize_bilinear", "ops.resize", True),
    (ops, "adaptive_avg_pool2d", "ops.resize", True),
    (train, "cross_entropy", "train.cross_entropy", True),
    (train, "adamw_step", "train.adamw_step", False),
    (train, "save_checkpoint", "train.save_checkpoint", False),
    (train, "load_checkpoint", "train.load_checkpoint", False),
    (trees, "tree_flatten", "trees.flatten_unflatten", False),
    (trees, "tree_unflatten", "trees.flatten_unflatten", False),
    (data, "synth_dataset", "data.synth_dataset", False),
    (data, "materialize", "data.materialize", False),
    (sr, "sr_train_selfsupervised", "sr.sr_train", False),
    (sr, "sr_forward", "sr.sr_forward", True),
    (sr, "sr_apply", "sr.sr_apply", False),
    (sr, "corpus_loss", "sr.corpus_loss", False),
    (sr, "degrade", "sr.degrade", False),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crackfuse" or name.startswith("crackfuse."))]


def _batch(x):
    """Leading batch extent of a [B,C,H,W] / [B,H,W,C] array; 1 when unbatched."""
    return x.shape[0] if x.ndim == 4 else 1


def _conv_flop(x, w):
    """Multiply-adds of a same-padded conv2d forward, counted as 2 FLOPs each."""
    return 2.0 * _batch(x) * x.shape[-2] * x.shape[-1] * w.size


class Tracer:
    """Installs span-recording wrappers into crackfuse until uninstalled.

    `rec` is the Recorder that spans go to; a caller may swap it between
    phases. `stage_of` maps an ss2d input's channel count to its encoder
    stage, so four-direction scans are recorded per stage.
    """

    def __init__(self, rec: Recorder, stage_of: dict[int, int]):
        self.rec = rec
        self.stage_of = stage_of
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name):
        return self.rec.span(name)

    def _count(self, attr, args):
        rec = self.rec
        if attr == "conv2d":
            rec.count("ops.conv2d.calls", 1)
            rec.count("ops.conv2d.flop", _conv_flop(args[0], args[1]))
        elif attr == "ss2d":
            x, params = args[0], args[1]
            h, w, c = x.shape[-3:]
            rec.count("scan2d.ss2d.state_elems",
                      float(_batch(x) * h * w * c * params[0].state_dim * len(params)))
        elif attr.startswith("linear_recurrence"):
            a = args[0]
            length = a.shape[0]
            padded = (1 << (length - 1).bit_length()) if attr.endswith("par") and length else length
            rec.count("ssm.recurrence.calls", 1)
            rec.count("ssm.recurrence.length", length)
            rec.count("ssm.recurrence.padded_length", padded)
            rec.count("ssm.recurrence.padded_elems", float(padded * (a.size // max(length, 1))))
        elif attr == "save_checkpoint":
            rec.count("train.save_checkpoint.bytes", float(os.path.getsize(args[0])))

    def _wrap(self, fn, attr, base, has_vjp):
        tracer = self

        def plain(*args, **kwargs):
            rec = tracer.rec
            if rec.is_open(base):  # a recursive call is part of the outer span
                return fn(*args, **kwargs)
            with rec.span(base):
                out = fn(*args, **kwargs)
            tracer._count(attr, args)
            return out

        def with_vjp(*args, **kwargs):
            rec = tracer.rec
            name = base
            if attr == "ss2d":
                name = f"{base}.s{tracer.stage_of.get(args[0].shape[-1], 'x')}"
            with rec.span(name + ".fwd"):
                out, vjp = fn(*args, **kwargs)
            tracer._count(attr, args)
            # the backward of a conv computes both dx and dw: twice the forward's FLOPs
            bwd_flop = 2.0 * _conv_flop(args[0], args[1]) if attr == "conv2d" else 0.0

            def traced_vjp(*grads):
                with rec.span(name + ".bwd"):
                    res = vjp(*grads)
                if bwd_flop:
                    rec.count("ops.conv2d.flop", bwd_flop)
                return res

            return out, traced_vjp

        return with_vjp if has_vjp else plain

    def install(self) -> "Tracer":
        modules = _package_modules()
        for module, attr, base, has_vjp in TARGETS:
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, attr, base, has_vjp)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._saved.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        orig_add = metrics.ConfusionMatrix.add
        tracer = self

        def add(cm, pred, gt):
            with tracer.rec.span("metrics.confusion_add"):
                return orig_add(cm, pred, gt)

        self._saved.append((metrics.ConfusionMatrix, "add", orig_add))
        metrics.ConfusionMatrix.add = add
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
