"""Optimization: pixel cross-entropy, decoupled-decay Adam, the polynomial
schedule with linear warmup, checkpoint archives, and the training loop.

Checkpoints are zip archives of MSCM tensors plus a JSON manifest, read
through a table of fields rules; entries carry a fixed timestamp so save ->
load -> save is byte-identical.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import fields, metrics, segnet
from .tensor import TensorFormatError, check_tensor, tensor_from_bytes, tensor_to_bytes
from .trees import tree_flatten, tree_leaves, tree_unflatten


@dataclass
class TrainConfig:
    # JSON reads NaN and Infinity, and a clip at or below 0 zeroes or flips the gradient
    total_iters: int = fields.entry(20000, fields.integer(1))
    batch_size: int = fields.entry(8, fields.integer(1))
    base_lr: float = fields.entry(3e-5, fields.above(0))
    weight_decay: float = fields.entry(0.01, fields.at_least(0))
    warmup_iters: int = fields.entry(1500, fields.integer(0))
    poly_power: float = fields.entry(0.9, fields.at_least(0))
    seed: int = fields.entry(0, fields.integer(0))
    eval_interval: int = fields.entry(100, fields.integer(1))
    checkpoint_dir: str = fields.entry("checkpoints", fields.PATH)
    grad_clip: float | None = fields.entry(None, fields.either(fields.above(0), fields.NULL))

    def __post_init__(self):
        fields.check_config(self)
        if self.warmup_iters >= self.total_iters:
            raise ValueError(f"warmup_iters is {self.warmup_iters!r}, not below total_iters {self.total_iters}")

    def to_dict(self):
        return dataclasses.asdict(self)


def cross_entropy(logits, target):
    """Mean pixel cross-entropy. logits [B,K,H,W], target labels [B,H,W] in
    [0, K). Returns (loss, vjp) with vjp(upstream) -> (dlogits,)."""
    k = logits.shape[1]
    if target.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ValueError(f"target shape {target.shape} does not match logits {logits.shape}")
    if target.size and (target.min() < 0 or target.max() >= k):
        raise ValueError(f"target labels outside [0, {k})")
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    onehot = np.moveaxis(np.eye(k, dtype=logits.dtype)[target], -1, 1)
    count = target.size
    loss = float(-(logp * onehot).sum() / count)
    softmax = np.exp(logp)

    def vjp(upstream=1.0):
        return (upstream * (softmax - onehot) / count,)

    return loss, vjp


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0


def init_optimizer(weights) -> OptimizerState:
    """Zero moments for every leaf of a weight tree, keyed by its dotted name."""
    return OptimizerState(m={k: np.zeros_like(p) for k, p in tree_leaves(weights)},
                          v={k: np.zeros_like(p) for k, p in tree_leaves(weights)})


def adamw_step(weights, grads, state: OptimizerState, lr,
               beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01) -> None:
    """One decoupled-weight-decay Adam update of a weight tree's leaves and of
    state's moments, in place; grads are keyed by the leaves' dotted names.
    Every gradient is checked first, so a refused one changes nothing."""
    for name, p in tree_leaves(weights):
        g = grads[name]
        if p.shape != g.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    t = state.step + 1
    for name, p in tree_leaves(weights):
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        p[...] = (p - lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
                  - lr * weight_decay * p)
    state.step = t


def clip_grad_norm(grads: dict, max_norm: float) -> dict:
    """grads scaled to a global L2 norm of at most max_norm, summed in dict
    order; a non-finite norm leaves them for adamw_step to name the bad leaf."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or not math.isfinite(total):
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def poly_lr(iteration, cfg: TrainConfig) -> float:
    """Linear warmup from base/warmup, then (1 - progress)^power decay to 0."""
    if iteration < cfg.warmup_iters:
        return cfg.base_lr * (iteration + 1) / cfg.warmup_iters
    frac = (iteration - cfg.warmup_iters) / (cfg.total_iters - cfg.warmup_iters)
    return cfg.base_lr * (1.0 - frac) ** cfg.poly_power


# --------------------------------------------------------------------------
# Checkpoint archive: zip of tensors/<name>.mscm + manifest.json


_ZIP_STAMP = (1980, 1, 1, 0, 0, 0)
CHECKPOINT_FORMAT = "crackfuse-checkpoint-v1"

# the manifest fields a segmenter checkpoint's readers decode (not rng_state)
CHECKPOINT_FIELDS = {
    "format": fields.one_of(CHECKPOINT_FORMAT), "iteration": fields.integer(0),
    "model_config": fields.OBJECT, "train_config": fields.OBJECT,
    "best_miou": fields.at_least(-1, 1).optional(-1.0),
}


class CheckpointError(ValueError):
    """Raised when a file does not decode as a checkpoint archive."""


def save_checkpoint(path, named_tensors: dict, manifest: dict) -> None:
    """Write the archive to a temporary file beside path, flush and fsync it,
    then rename it over path, so a crash mid-save leaves the previous
    checkpoint whole."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            with zipfile.ZipFile(f, "w", compression=zipfile.ZIP_STORED) as z:
                info = zipfile.ZipInfo("manifest.json", date_time=_ZIP_STAMP)
                z.writestr(info, json.dumps(manifest, sort_keys=True, indent=1))
                for name in sorted(named_tensors):
                    info = zipfile.ZipInfo(f"tensors/{name}.mscm", date_time=_ZIP_STAMP)
                    z.writestr(info, tensor_to_bytes(named_tensors[name]))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def check_resume(stored: dict, model_config: dict, train_config: dict) -> None:
    """Refuse to resume a run whose model or schedule differs from the one
    that wrote the checkpoint's stored fields. The checkpoint directory may differ."""
    diffs = []
    for section, current in (("model_config", model_config), ("train_config", train_config)):
        saved = stored[section]
        for key in sorted(set(saved) | set(current)):
            if key != "checkpoint_dir" and saved.get(key) != current.get(key):
                diffs.append(f"{section}.{key} is {saved.get(key)!r} in the checkpoint, "
                             f"{current.get(key)!r} in this run")
    if diffs:
        raise ValueError("checkpoint does not match this run: " + "; ".join(diffs))


def load_checkpoint(path):
    """Read a checkpoint archive: (tensors by name, manifest dict).

    Raises CheckpointError, naming path, when the file cannot be read or is
    not a zip archive holding a manifest.json JSON object and MSCM tensors.
    """
    try:
        with zipfile.ZipFile(path, "r") as z:
            manifest = json.loads(z.read("manifest.json"))
            tensors = {}
            for entry in z.namelist():
                if entry.startswith("tensors/") and entry.endswith(".mscm"):
                    name = entry[len("tensors/"):-len(".mscm")]
                    tensors[name] = tensor_from_bytes(z.read(entry))
    # zipfile raises NotImplementedError for an unsupported compression method
    # or version, RuntimeError for an encrypted entry and zlib.error for a
    # corrupt deflate stream; ValueError covers JSON, UTF-8 and MSCM decoding
    # (TensorFormatError) and a seek before the start of a file object;
    # KeyError is a missing manifest.json
    except (zipfile.BadZipFile, zipfile.LargeZipFile, zlib.error, NotImplementedError,
            RuntimeError, KeyError, OSError, EOFError, ValueError) as e:
        raise CheckpointError(f"checkpoint {path} is unreadable: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint {path}: manifest.json holds a "
                              f"{type(manifest).__name__}, not a JSON object")
    return tensors, manifest


def restore_checkpoint(path, table: dict, template_of):
    """The one path from a checkpoint archive back to weights.

    template_of(stored, tensors) takes the manifest fields table checks and
    returns the weight tree the archive must hold: every leaf, finite and of
    the leaf's shape and dtype, plus its opt.m./opt.v. moments for every leaf
    or for none. Returns (weights, opt, stored), opt an OptimizerState at step 0 or
    None. Every refusal is a CheckpointError naming path.
    """
    tensors, manifest = load_checkpoint(path)
    try:
        stored = fields.check_fields(manifest, table)
        template = template_of(stored, tensors)
        names = tree_flatten(template)
        moments = OptimizerState(m=names, v=names)
        leaves = names | tree_flatten(moments, "opt")
        extra = [k for k in tensors if k not in leaves]
        if extra:
            raise ValueError(f"entries this model does not have: {', '.join(extra)}")
        for name, t in tensors.items():
            try:
                check_tensor(t)
            except TensorFormatError as e:
                raise ValueError(f"entry {name}: {e}") from None
            if t.dtype != leaves[name].dtype:  # adamw_step keeps a leaf's dtype
                raise ValueError(f"entry {name}: stored as {t.dtype}, not {leaves[name].dtype}")
        opt = None
        if any(k.startswith("opt.") for k in tensors):
            missing = [k for k in leaves if k.startswith("opt.") and k not in tensors]
            if missing:
                raise ValueError(f"no optimizer state for: {', '.join(missing)}")
            opt = tree_unflatten(moments, tensors, "opt")
        return tree_unflatten(template, tensors), opt, stored
    # ValueError is a refused entry or field; the others are what a model
    # builder raises for stored config values of the wrong type or range
    except (ValueError, TypeError, LookupError, ArithmeticError) as e:
        raise CheckpointError(f"checkpoint {path}: {e}") from e


def load_model_checkpoint(path) -> segnet.SegModel:
    """The segmenter stored at path, built from its stored model_config. It
    reads only format and model_config, all an archive written for inference
    holds, and not the optimizer moments, if the archive holds them."""
    def template_of(stored, _tensors):
        return segnet.init_model(segnet.ModelConfig.from_dict(stored["model_config"]),
                                 np.random.default_rng(0)).weights

    table = {key: CHECKPOINT_FIELDS[key] for key in ("format", "model_config")}
    weights, _opt, stored = restore_checkpoint(path, table, template_of)
    return segnet.SegModel(segnet.ModelConfig.from_dict(stored["model_config"]), weights)


# --------------------------------------------------------------------------
# Training loop


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    best_miou: float = -1.0
    last_path: str = ""
    best_path: str = ""


def evaluate_model(model, batches):
    """Run the model over batches and report confusion-based metrics."""
    cm = metrics.ConfusionMatrix(model.cfg.num_classes)
    count = 0
    for inputs, targets, _ids in batches:
        pred = np.argmax(segnet.predict(inputs, model), axis=1)
        cm.add(pred, targets)
        count += inputs.shape[0]
    return cm.report(image_count=count)


def train(model, batch_source, cfg: TrainConfig, val_batches_fn=None,
          log_path=None, resume_from=None, stop_after=None):
    """Run the optimization loop.

    batch_source.batch(it) must return (inputs [B,C,h,w], targets [B,h,w],
    ids) as a pure function of the iteration index, so the whole run is a
    deterministic function of (model init, cfg) and checkpoint resume only
    needs the iteration counter. val_batches_fn() yields evaluation batches.
    stop_after interrupts the run at that iteration (schedule and state keep
    cfg.total_iters semantics, so a later resume continues the same curve).
    adamw_step steps model.weights in place; a fresh run first copies the caller's weights.
    A non-finite loss, or a gradient adamw_step refuses, saves the state the
    failed iteration started from as last.ckpt.aborted and raises TrainingDiverged.
    """
    result = TrainResult()
    start = 0
    if resume_from is None:
        model.weights = copy.deepcopy(model.weights)
        opt = init_optimizer(model.weights)
    else:
        def template_of(stored, _tensors):
            check_resume(stored, model.cfg.to_dict(), cfg.to_dict())
            return model.weights

        weights, opt, stored = restore_checkpoint(resume_from, CHECKPOINT_FIELDS, template_of)
        if opt is None:
            raise CheckpointError(f"checkpoint {resume_from} holds no optimizer state, "
                                  f"which a resume needs")
        start = opt.step = stored["iteration"]
        result.best_miou = float(stored["best_miou"])
        model.weights = weights

    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    result.last_path = os.path.join(cfg.checkpoint_dir, "last.ckpt")
    result.best_path = os.path.join(cfg.checkpoint_dir, "best.ckpt")
    # fresh runs truncate so reruns are idempotent; resumes append
    log_f = open(log_path, "a" if resume_from else "w") if log_path else None

    def manifest_at(it):
        return {
            "format": CHECKPOINT_FORMAT,
            "iteration": it,
            "model_config": model.cfg.to_dict(),
            "train_config": cfg.to_dict(),
            "rng_state": {"seed": cfg.seed, "iteration": it},
            "best_miou": result.best_miou,
        }

    def dump(path, it):
        named = tree_flatten(model.weights) | tree_flatten(opt, "opt")
        save_checkpoint(path, named, manifest_at(it))

    def abort(it, cause, err=None):
        """Snapshot the state before iteration it as last.ckpt.aborted and raise."""
        dump(result.last_path + ".aborted", it)
        raise TrainingDiverged(
            f"{cause} at iteration {it}; last good checkpoint kept at {result.last_path}") from err

    def log(rec):
        if log_f:
            log_f.write(json.dumps(rec, sort_keys=True) + "\n")
            log_f.flush()

    stop = cfg.total_iters if stop_after is None else min(stop_after, cfg.total_iters)
    try:
        for it in range(start, stop):
            inputs, targets, _ids = batch_source.batch(it)
            logits, vjp_model = segnet.model_forward(inputs, model)
            loss, vjp_loss = cross_entropy(logits, targets)
            if not math.isfinite(loss):
                abort(it, "non-finite loss")
            dlogits = vjp_loss(1.0)[0]
            _dimg, grads = vjp_model(dlogits)
            if cfg.grad_clip is not None:
                grads = clip_grad_norm(grads, cfg.grad_clip)
            lr = poly_lr(it, cfg)
            try:
                adamw_step(model.weights, grads, opt, lr, weight_decay=cfg.weight_decay)
            except FloatingPointError as err:  # the step refused it and changed nothing
                abort(it, str(err), err)
            result.loss_curve.append(loss)
            log({"iter": it, "loss": loss, "lr": lr})

            done = it + 1
            if done % cfg.eval_interval == 0 or done == stop:
                if val_batches_fn is not None:
                    rep = evaluate_model(model, val_batches_fn())
                    rec = {"iter": it, "miou": rep["miou"],
                           "iou_bg": rep["iou_per_class"][0],
                           "iou_crack": rep["iou_per_class"][-1]}
                    result.evals.append(rec)
                    log(rec)
                    if rec["miou"] > result.best_miou:
                        result.best_miou = rec["miou"]
                        dump(result.best_path, done)
                dump(result.last_path, done)
    finally:
        if log_f:
            log_f.close()
    return result
