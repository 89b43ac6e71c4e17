"""Optimization: pixel cross-entropy, decoupled-decay Adam, the polynomial
schedule with linear warmup, checkpoint archives, and the training loop.

Checkpoints are zip archives of MSCM tensors plus a JSON manifest; entries
carry a fixed timestamp so save -> load -> save is byte-identical.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import metrics, segnet
from .tensor import tensor_from_bytes, tensor_to_bytes


@dataclass
class TrainConfig:
    total_iters: int = 20000
    batch_size: int = 8
    base_lr: float = 3e-5
    weight_decay: float = 0.01
    warmup_iters: int = 1500
    poly_power: float = 0.9
    seed: int = 0
    eval_interval: int = 100
    checkpoint_dir: str = "checkpoints"
    grad_clip: float | None = None

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0 <= self.warmup_iters < self.total_iters:
            raise ValueError("need 0 <= warmup_iters < total_iters")
        for name in ("batch_size", "eval_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

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
    onehot = np.moveaxis(np.eye(k)[target], -1, 1)
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


def split_checkpoint(tensors: dict, names):
    """Split checkpoint tensors into (weights, OptimizerState at step 0) for
    a model whose weights are named by names.

    Raises ValueError naming every entry that is not one of those weights or
    its opt.m.*/opt.v.* moments, and every moment missing for a weight.
    """
    extra = [k for k in tensors
             if (k[len("opt.m."):] if k.startswith(("opt.m.", "opt.v.")) else k) not in names]
    if extra:
        raise ValueError(f"checkpoint has entries this model does not have: {', '.join(extra)}")
    params = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    opt = OptimizerState(
        m={k[len("opt.m."):]: v for k, v in tensors.items() if k.startswith("opt.m.")},
        v={k[len("opt.v."):]: v for k, v in tensors.items() if k.startswith("opt.v.")},
    )
    missing = [f"opt.{moment}.{k}" for moment, stored in (("m", opt.m), ("v", opt.v))
               for k in params if k not in stored]
    if missing:
        raise ValueError(f"checkpoint has no optimizer state for: {', '.join(missing)}")
    return params, opt


def init_optimizer(params: dict) -> OptimizerState:
    return OptimizerState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
    )


def adamw_step(params, grads, state: OptimizerState, lr,
               beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
    """One decoupled-weight-decay Adam update; returns (new_params, state)."""
    t = state.step + 1
    new = {}
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        new[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * p
    state.step = t
    return new, state


def clip_grad_norm(grads: dict, max_norm: float) -> dict:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
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


def check_format(manifest: dict, expected: str) -> None:
    """Refuse a checkpoint written for another kind of model."""
    found = manifest.get("format")
    if found != expected:
        raise ValueError(f"expected a {expected} checkpoint, found format {found!r}")


def check_resume(manifest: dict, model_config: dict, train_config: dict) -> None:
    """Refuse to resume a run whose model or schedule differs from the one
    that wrote the checkpoint. The checkpoint directory may differ."""
    diffs = []
    for section, current in (("model_config", model_config), ("train_config", train_config)):
        saved = manifest.get(section, {})
        for key in sorted(set(saved) | set(current)):
            if key != "checkpoint_dir" and saved.get(key) != current.get(key):
                diffs.append(f"{section}.{key} is {saved.get(key)!r} in the checkpoint, "
                             f"{current.get(key)!r} in this run")
    if diffs:
        raise ValueError("checkpoint does not match this run: " + "; ".join(diffs))


def load_checkpoint(path):
    with zipfile.ZipFile(path, "r") as z:
        manifest = json.loads(z.read("manifest.json"))
        tensors = {}
        for entry in z.namelist():
            if entry.startswith("tensors/") and entry.endswith(".mscm"):
                name = entry[len("tensors/"):-len(".mscm")]
                tensors[name] = tensor_from_bytes(z.read(entry))
    return tensors, manifest


# --------------------------------------------------------------------------
# Training loop


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)
    lr_curve: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    best_miou: float = -1.0
    last_path: str = ""
    best_path: str = ""


def _evaluate(model, batches):
    cm = metrics.ConfusionMatrix(model.cfg.num_classes)
    count = 0
    for inputs, targets, _ids in batches:
        logits, _ = segnet.model_forward(inputs, model)
        pred = np.argmax(logits, axis=1)
        cm.add(pred, targets)
        count += inputs.shape[0]
    return cm, count


def evaluate_model(model, batches):
    """Run the model over batches and report confusion-based metrics."""
    cm, count = _evaluate(model, batches)
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
    """
    result = TrainResult()
    params = segnet.flatten_weights(model)
    opt = init_optimizer(params)
    start = 0
    if resume_from is not None:
        tensors, manifest = load_checkpoint(resume_from)
        check_format(manifest, CHECKPOINT_FORMAT)
        check_resume(manifest, model.cfg.to_dict(), cfg.to_dict())
        start = int(manifest["iteration"])
        params, opt = split_checkpoint(tensors, params)
        opt.step = start
        result.best_miou = float(manifest.get("best_miou", -1.0))
    model.weights = segnet.unflatten_weights(model, params)

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
        named = dict(params)
        named.update({f"opt.m.{k}": v for k, v in opt.m.items()})
        named.update({f"opt.v.{k}": v for k, v in opt.v.items()})
        save_checkpoint(path, named, manifest_at(it))

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
                dump(result.last_path + ".aborted", it)
                raise TrainingDiverged(
                    f"non-finite loss at iteration {it}; last good checkpoint kept at {result.last_path}")
            dlogits = vjp_loss(1.0)[0]
            _dimg, gtree = vjp_model(dlogits)
            grads = segnet.tree_flatten(gtree)
            if cfg.grad_clip is not None:
                grads = clip_grad_norm(grads, cfg.grad_clip)
            lr = poly_lr(it, cfg)
            params, opt = adamw_step(params, grads, opt, lr, weight_decay=cfg.weight_decay)
            model.weights = segnet.unflatten_weights(model, params)
            result.loss_curve.append(loss)
            result.lr_curve.append(lr)
            log({"iter": it, "loss": loss, "lr": lr})

            done = it + 1
            if done % cfg.eval_interval == 0 or done == stop:
                if val_batches_fn is not None:
                    cm, count = _evaluate(model, val_batches_fn())
                    iou = cm.iou()
                    rec = {
                        "iter": it, "miou": cm.miou(),
                        "iou_bg": None if math.isnan(iou[0]) else float(iou[0]),
                        "iou_crack": None if math.isnan(iou[-1]) else float(iou[-1]),
                    }
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
