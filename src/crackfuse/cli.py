"""Batch command-line surface for the full pipeline.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure. All
randomness flows from --seed through named sub-streams, so reruns with the
same flags produce identical output bytes (timestamps appear only in log
lines on stderr, never in output files).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
from fractions import Fraction

import numpy as np

from . import checks, data, metrics, segnet, sr, ssm, train
from .tensor import save_tensor


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_dims(text):
    try:
        w, h = (int(v) for v in text.lower().split("x"))
        if w >= 1 and h >= 1:
            return h, w
    except ValueError:
        pass
    raise UsageError(f"--rgb-dims expects WIDTHxHEIGHT in positive integers, got {text!r}")


def _parse_factor(text):
    try:
        f = Fraction(text)
    except Exception:
        raise UsageError(f"--ir-factor expects a rational like 2 or 10/3, got {text!r}") from None
    if f < 1:
        raise UsageError(f"--ir-factor must be >= 1, got {text}")
    return f


def _prepare_out(path, force):
    if os.path.exists(path) and os.listdir(path):
        if not force:
            raise UsageError(f"output directory {path} is not empty; pass --force to overwrite")
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)


# --------------------------------------------------------------------------
# Run configuration (train/eval/ablate)

_MODEL_KEYS = {f.name for f in dataclasses.fields(segnet.ModelConfig)}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(train.TrainConfig)}


# each top-level run-config key: (valid, what it must be); the values under
# model and train are checked where their configs are built (_make_sources)
_PATH = (lambda v: isinstance(v, str) and v != "" and "\0" not in v,
         "a non-empty path string without NUL bytes")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_RUN_FIELDS = {
    "data_root": _PATH, "sr_checkpoint": _PATH, "log_path": _PATH,
    "variant": (lambda v: v in data.VARIANTS, f"one of {', '.join(data.VARIANTS)}"),
    "patch": (lambda v: type(v) is int and v >= 1, "a positive integer"),  # a JSON true is no size
    "model": _OBJECT, "train": _OBJECT,
}
_REQUIRED = ("data_root", "variant")


def validate_run_config(doc: dict, where="run config") -> dict:
    """Schema check of a run-config object: the required keys, the value of
    every top-level key present, and unknown keys anywhere, rejected by name.
    Every refusal is a UsageError whose message starts with where."""
    try:
        for key, (valid, what) in _RUN_FIELDS.items():
            if key in doc or key in _REQUIRED:
                train.manifest_field(doc, key, valid, what)
    except ValueError as e:
        raise UsageError(f"{where}: {e}") from None
    bad = sorted(set(doc) - set(_RUN_FIELDS))
    bad += sorted(f"model.{k}" for k in set(doc.get("model", {})) - _MODEL_KEYS)
    bad += sorted(f"train.{k}" for k in set(doc.get("train", {})) - _TRAIN_KEYS)
    if bad:
        raise UsageError(f"{where}: unknown keys: {', '.join(bad)}")
    return doc


def load_run_config(path) -> dict:
    where = f"config file {path}"
    return validate_run_config(data.read_json_object(path, UsageError, where), where)


def _load_split_samples(manifest):
    return [data.load_sample(manifest.root, i) for i in manifest.ids]


def _fit_patch(requested, dims, divisor):
    if requested < divisor:
        raise UsageError(f"patch {requested} is below the model's grid divisor {divisor}")
    best = min(requested, dims[0], dims[1])
    best -= best % divisor
    if best < divisor:
        raise UsageError(f"images {dims} too small for the {divisor}-divisible patch grid")
    return best


# --------------------------------------------------------------------------
# Commands


def cmd_synth(args):
    dims = _parse_dims(args.rgb_dims)
    factor = _parse_factor(args.ir_factor)
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    _prepare_out(args.out, args.force)
    samples = data.synth_dataset(args.seed, args.count, dims, factor)
    manifest = data.save_dataset(args.out, samples, args.seed, ir_factor=str(factor))
    print(json.dumps({
        "out": args.out, "count": len(samples),
        "rgb_dims": list(dims), "ir_dims": list(samples[0].ir.shape[-2:]),
        "train": len(manifest.train_ids()), "val": len(manifest.val_ids()),
    }, sort_keys=True))
    return 0


def cmd_sr_train(args):
    manifest = data.read_manifest(args.data)
    samples = _load_split_samples(manifest)
    factor = Fraction(manifest.ir_factor)
    train_ids = set(manifest.train_ids())
    train_imgs = [s.ir for s in samples if s.id in train_ids]
    held_imgs = [s.ir for s in samples if s.id not in train_ids]
    cfg = sr.SrTrainConfig(iters=args.iters, lr=args.lr, seed=args.seed)
    model = sr.sr_train_selfsupervised(train_imgs, factor, cfg)
    sr.save_sr_checkpoint(args.out, model)
    report = {
        "train": sr.evaluate_sr(model, train_imgs, factor),
        "heldout": sr.evaluate_sr(model, held_imgs, factor) if held_imgs else [],
        "final_loss": model.final_loss, "initial_loss": model.initial_loss,
    }
    for rows in (report["train"], report["heldout"]):
        for r in rows:
            r["psnr_model"] = metrics.psnr_for_log(r["psnr_model"])
            r["psnr_bicubic"] = metrics.psnr_for_log(r["psnr_bicubic"])
    for split in ("train", "heldout"):
        rows = report[split]
        if rows:
            report[f"mean_psnr_model_{split}"] = sum(r["psnr_model"] for r in rows) / len(rows)
            report[f"mean_psnr_bicubic_{split}"] = sum(r["psnr_bicubic"] for r in rows) / len(rows)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, sort_keys=True, indent=1)
    print(json.dumps({k: v for k, v in report.items() if not isinstance(v, list)}, sort_keys=True))
    return 0


def cmd_sr_apply(args):
    manifest = data.read_manifest(args.data)
    model = sr.load_sr_checkpoint(args.checkpoint)
    _prepare_out(args.out, args.force)
    for sid in manifest.ids:
        s = data.load_sample(manifest.root, sid)
        up = sr.sr_apply(model, s.ir, s.rgb.shape[-2:])
        data.save_image(os.path.join(args.out, f"{sid}.ppm"), up)
    print(json.dumps({"out": args.out, "count": len(manifest.ids)}, sort_keys=True))
    return 0


def cmd_fuse(args):
    manifest = data.read_manifest(args.data)
    _prepare_out(args.out, args.force)
    for sid in manifest.ids:
        s = data.load_sample(manifest.root, sid)
        ir_sr = data.load_image(os.path.join(args.sr_dir, f"{sid}.ppm"))
        fused = sr.fuse_channels(s.rgb, ir_sr)
        save_tensor(os.path.join(args.out, f"{sid}.mscm"), fused.astype(np.float32))
    print(json.dumps({"out": args.out, "count": len(manifest.ids)}, sort_keys=True))
    return 0


def _make_sources(doc, manifest, samples, sr_model=None):
    """The one path from a validated run doc to batches.

    Returns (model config, train config, source), where source("train") is
    the augmented training split and source("val") the center-cropped
    evaluation split. A split is built on request only, so evaluating a
    dataset without training ids works; an empty split requested raises
    ManifestError naming the manifest.
    """
    variant = doc["variant"]
    if variant == "PRGB_plus_PIRprime" and sr_model is None:
        if "sr_checkpoint" not in doc:
            raise UsageError("variant PRGB_plus_PIRprime requires an SR checkpoint "
                             "(sr_checkpoint in a run config, --sr-checkpoint for eval)")
        sr_model = sr.load_sr_checkpoint(doc["sr_checkpoint"])
    try:
        tcfg = train.TrainConfig(**doc.get("train", {}))
    except ValueError as e:
        raise UsageError(f"config train.{e}") from None
    table = data.materialize(samples, variant, sr_model=sr_model)
    some_input = table[manifest.ids[0]][0]
    try:
        cfg = segnet.ModelConfig.from_dict({"in_channels": some_input.shape[0],
                                            **doc.get("model", {})})
    except ValueError as e:
        raise UsageError(f"config model.{e}") from None
    if cfg.in_channels != some_input.shape[0]:
        raise UsageError(f"config model.in_channels is {cfg.in_channels}, but variant "
                         f"{variant} has {some_input.shape[0]} channels")
    patch = _fit_patch(doc.get("patch", 48), some_input.shape[-2:], cfg.grid_divisor)

    def source(split):
        ids = manifest.train_ids() if split == "train" else manifest.val_ids()
        if not ids:
            path = os.path.join(manifest.root, "manifest.json")
            raise data.ManifestError(f"dataset manifest {path}: split {split!r} has no ids")
        return data.BatchSource(table, ids, tcfg.batch_size, patch, tcfg.seed,
                                augment_data=split == "train")

    return cfg, tcfg, source


def cmd_train(args):
    doc = load_run_config(args.config)
    manifest = data.read_manifest(doc["data_root"])
    samples = _load_split_samples(manifest)
    cfg, tcfg, source = _make_sources(doc, manifest, samples)
    train_src, val_src = source("train"), source("val")
    model = segnet.init_model(cfg, data.named_rng(tcfg.seed, "init"))
    result = train.train(model, train_src, tcfg, val_batches_fn=val_src.eval_batches,
                         log_path=doc.get("log_path"), resume_from=args.resume)
    print(json.dumps({"best_miou": result.best_miou, "last": result.last_path,
                      "best": result.best_path, "iters": len(result.loss_curve)},
                     sort_keys=True))
    return 0


def cmd_eval(args):
    manifest = data.read_manifest(args.data)
    samples = _load_split_samples(manifest)
    stored = train.load_model_checkpoint(args.checkpoint) if args.checkpoint else None
    sr_path = {} if args.sr_checkpoint is None else {"sr_checkpoint": args.sr_checkpoint}
    doc = validate_run_config({
        "data_root": args.data, "variant": args.variant or manifest.variant, "patch": args.patch,
        "model": stored.cfg.to_dict() if stored else {},
        "train": {"batch_size": args.batch_size, "seed": args.seed}, **sr_path,
    }, "eval options")
    cfg, tcfg, source = _make_sources(doc, manifest, samples)
    model = stored or segnet.init_model(cfg, data.named_rng(tcfg.seed, "init"))
    report = train.evaluate_model(model, source("val").eval_batches())
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0


def cmd_ablate(args):
    manifest = data.read_manifest(args.data)
    samples = _load_split_samples(manifest)
    factor = Fraction(manifest.ir_factor)
    train_ids = set(manifest.train_ids())
    sr_model = sr.sr_train_selfsupervised(
        [s.ir for s in samples if s.id in train_ids], factor,
        sr.SrTrainConfig(iters=args.sr_iters, seed=args.seed))
    rows = []
    for variant in data.VARIANTS:
        doc = validate_run_config({
            "data_root": args.data, "variant": variant, "patch": args.patch,
            "train": {"total_iters": args.iters, "batch_size": args.batch_size,
                      "base_lr": args.lr, "warmup_iters": min(50, args.iters - 1),
                      "seed": args.seed, "eval_interval": args.iters,
                      "checkpoint_dir": os.path.join(args.work_dir, f"ckpt_{variant}")},
        }, "ablate options")
        cfg, tcfg, source = _make_sources(doc, manifest, samples, sr_model=sr_model)
        train_src, val_src = source("train"), source("val")
        model = segnet.init_model(cfg, data.named_rng(tcfg.seed, "init"))
        result = train.train(model, train_src, tcfg, val_batches_fn=val_src.eval_batches)
        rep = train.evaluate_model(model, val_src.eval_batches())
        rows.append({"variant": data.VARIANT_LABELS[variant], "tag": variant,
                     "miou": rep["miou"], "iou_per_class": rep["iou_per_class"],
                     "final_loss": result.loss_curve[-1]})
        print(f"{data.VARIANT_LABELS[variant]:>10s}  miou={rep['miou']:.4f}", file=sys.stderr)
    table_doc = {"rows": rows, "seed": args.seed, "iters": args.iters}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(table_doc, f, sort_keys=True, indent=1)
    print(json.dumps(table_doc, sort_keys=True))
    return 0


def cmd_gradcheck(args):
    reports = checks.run_suite(tol=args.tol)
    failed = 0
    for rep in reports:
        print(rep)
        if not rep.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} gradient checks passed")
    return 2 if failed else 0


def cmd_bench_scan(args):
    lengths = [1 << k for k in range(args.min_pow, args.max_pow + 1)]
    rows = ssm.bench_scan(lengths=lengths, reps=args.reps)
    print(f"{'L':>8s} {'seq_ms':>10s} {'par_ms':>10s} {'ratio_seq':>10s} {'ratio_par':>10s}")
    for r in rows:
        rs = "" if r["ratio_seq"] is None else f"{r['ratio_seq']:.2f}"
        rp = "" if r["ratio_par"] is None else f"{r['ratio_par']:.2f}"
        print(f"{r['length']:>8d} {1e3 * r['t_seq']:>10.3f} {1e3 * r['t_par']:>10.3f} {rs:>10s} {rp:>10s}")
    ratios = [r["ratio_seq"] for r in rows if r["ratio_seq"] is not None]
    med = sorted(ratios)[len(ratios) // 2] if ratios else math.nan
    print(f"median sequential doubling ratio: {med:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"rows": rows, "median_ratio_seq": med}, f, sort_keys=True, indent=1)
    return 0


# --------------------------------------------------------------------------


def build_parser():
    p = _Parser(prog="crackfuse", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic RGB+IR crack dataset")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--rgb-dims", default="96x96")
    s.add_argument("--ir-factor", default="2")
    s.add_argument("--out", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("sr-train", help="train the thermal super-resolver self-supervised")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)
    s.add_argument("--iters", type=int, default=300)
    s.add_argument("--lr", type=float, default=2e-3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_sr_train)

    s = sub.add_parser("sr-apply", help="super-resolve IR images to the RGB grid")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(fn=cmd_sr_apply)

    s = sub.add_parser("fuse", help="write six-channel fused tensors")
    s.add_argument("--data", required=True)
    s.add_argument("--sr-dir", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(fn=cmd_fuse)

    s = sub.add_parser("train", help="train the segmentation network from a run config")
    s.add_argument("--config", required=True)
    s.add_argument("--resume", default=None)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("eval", help="evaluate a checkpoint (or a fresh init) on the val split")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", default=None)
    s.add_argument("--variant", default=None)
    s.add_argument("--sr-checkpoint", default=None)
    s.add_argument("--patch", type=int, default=48)
    s.add_argument("--batch-size", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("ablate", help="train/evaluate all four input variants")
    s.add_argument("--data", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--iters", type=int, default=400)
    s.add_argument("--sr-iters", type=int, default=150)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--batch-size", type=int, default=8)
    s.add_argument("--patch", type=int, default=48)
    s.add_argument("--work-dir", default="ablate_work")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_ablate)

    s = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    s.add_argument("--tol", type=float, default=1e-4)
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("bench-scan", help="time the sequential and parallel scans")
    s.add_argument("--reps", type=int, default=11)
    s.add_argument("--min-pow", type=int, default=12)
    s.add_argument("--max-pow", type=int, default=18)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_bench_scan)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as e:  # runtime failure contract: report and exit 2
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
