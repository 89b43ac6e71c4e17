import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crackfuse import cli, data, segnet, sr, train
from crackfuse.tensor import load_tensor


def run_cli(*argv):
    return cli.main(list(argv))


def dir_digest(root):
    h = hashlib.sha256()
    for dirpath, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            h.update(name.encode())
            h.update(Path(p).read_bytes())
    return h.hexdigest()


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "d"
    code = run_cli("synth", "--seed", "0", "--count", "8", "--rgb-dims", "48x48",
                   "--ir-factor", "2", "--out", str(out))
    assert code == 0
    return out


def test_synth_dims_and_rerun_identical(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("synth", "--seed", "0", "--count", "4", "--rgb-dims", "96x96",
                   "--ir-factor", "10/3", "--out", str(out)) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rgb_dims"] == [96, 96]
    assert info["ir_dims"] == [29, 29]
    first = dir_digest(out)
    assert run_cli("synth", "--seed", "0", "--count", "4", "--rgb-dims", "96x96",
                   "--ir-factor", "10/3", "--out", str(out), "--force") == 0
    assert dir_digest(out) == first


def test_synth_usage_errors(tmp_path):
    assert run_cli("synth", "--seed", "0", "--count", "0",
                   "--out", str(tmp_path / "x")) == 1
    out = tmp_path / "d"
    assert run_cli("synth", "--count", "2", "--rgb-dims", "48x48", "--out", str(out)) == 0
    # non-empty dir without --force
    assert run_cli("synth", "--count", "2", "--rgb-dims", "48x48", "--out", str(out)) == 1
    assert run_cli("synth", "--count", "2", "--rgb-dims", "nonsense", "--out",
                   str(tmp_path / "y")) == 1
    assert run_cli("synth", "--count", "2", "--rgb-dims", "0x0", "--out",
                   str(tmp_path / "z")) == 1
    assert not (tmp_path / "z").exists()


def test_sr_train_apply_fuse_chain(dataset, tmp_path, capsys):
    ckpt = tmp_path / "sr.ckpt"
    report = tmp_path / "sr_report.json"
    assert run_cli("sr-train", "--data", str(dataset), "--out", str(ckpt),
                   "--report", str(report), "--iters", "20") == 0
    rep = json.loads(report.read_text())
    assert rep["train"] and {"psnr_model", "psnr_bicubic"} <= set(rep["train"][0])
    assert "mean_psnr_model_train" in rep

    sr_dir = tmp_path / "irsr"
    assert run_cli("sr-apply", "--data", str(dataset), "--checkpoint", str(ckpt),
                   "--out", str(sr_dir)) == 0
    manifest = data.read_manifest(dataset)
    for sid in manifest.ids:
        img = data.load_image(sr_dir / f"{sid}.ppm")
        assert img.shape == (3, 48, 48)  # RGB dims for every id

    tensors, sr_manifest = train.load_checkpoint(ckpt)
    bad_ckpt = tmp_path / "bad_sr.ckpt"
    train.save_checkpoint(bad_ckpt, {**tensors, "conv1_b": np.zeros(1)}, sr_manifest)
    capsys.readouterr()
    assert run_cli("sr-apply", "--data", str(dataset), "--checkpoint", str(bad_ckpt),
                   "--out", str(tmp_path / "irsr_bad")) == 2
    err = capsys.readouterr().err
    assert str(bad_ckpt) in err and "conv1_b" in err and "Traceback" not in err

    fused_dir = tmp_path / "fused"
    assert run_cli("fuse", "--data", str(dataset), "--sr-dir", str(sr_dir),
                   "--out", str(fused_dir)) == 0
    t = load_tensor(fused_dir / f"{manifest.ids[0]}.mscm")
    assert t.shape == (6, 48, 48) and t.dtype == np.float32

    # fuse refuses unmatched dims
    bad_dir = tmp_path / "bad_sr"
    os.makedirs(bad_dir)
    for sid in manifest.ids:
        data.save_image(bad_dir / f"{sid}.ppm", np.zeros((3, 24, 24)))
    assert run_cli("fuse", "--data", str(dataset), "--sr-dir", str(bad_dir),
                   "--out", str(tmp_path / "f2")) == 2


def _run_config(dataset, tmp_path, **overrides):
    doc = {
        "data_root": str(dataset),
        "variant": "P_RGB",
        "patch": 48,
        "model": {"embed_dims": [4, 8, 16, 32], "depths": [1, 1, 1, 1],
                  "state_dim": 2, "decoder_dim": 4, "patch_size": 3,
                  "num_classes": 2},
        "train": {"total_iters": 4, "batch_size": 2, "base_lr": 1e-3,
                  "warmup_iters": 2, "seed": 0, "eval_interval": 2,
                  "checkpoint_dir": str(tmp_path / "ck")},
        "log_path": str(tmp_path / "metrics.jsonl"),
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_train_rejects_unknown_keys(dataset, tmp_path, capsys):
    cfg = _run_config(dataset, tmp_path)
    doc = json.loads(cfg.read_text())
    doc["bogus_key"] = 1
    doc["model"]["wrong"] = 2
    cfg.write_text(json.dumps(doc))
    assert run_cli("train", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "bogus_key" in err and "model.wrong" in err


@pytest.mark.parametrize("section,key,value", [("model", "state_dim", "x"),
                                               ("train", "total_iters", "x"),
                                               ("train", "checkpoint_dir", "c\0k"),
                                               ("train", "checkpoint_dir", ""),
                                               # json reads NaN and Infinity; a clip at or
                                               # below 0 zeroes or flips every gradient
                                               ("train", "grad_clip", -1),
                                               ("train", "grad_clip", 0),
                                               ("train", "base_lr", float("nan")),
                                               ("train", "weight_decay", float("inf")),
                                               ("train", "weight_decay", -0.01),
                                               ("train", "poly_power", -1)],
                         ids=["model-state_dim", "train-total_iters", "train-checkpoint_dir-nul",
                              "train-checkpoint_dir-empty", "train-grad_clip-negative",
                              "train-grad_clip-zero", "train-base_lr-nan", "train-weight_decay-inf",
                              "train-weight_decay-negative", "train-poly_power-negative"])
def test_train_names_mistyped_config_value(dataset, tmp_path, capsys, section, key, value):
    cfg = _run_config(dataset, tmp_path)
    doc = json.loads(cfg.read_text())
    doc[section][key] = value
    cfg.write_text(json.dumps(doc))
    assert run_cli("train", "--config", str(cfg)) == 1
    assert f"{section}.{key}" in capsys.readouterr().err


def test_train_refuses_one_stage_model(dataset, tmp_path, capsys):
    # the decoder fuses two or more levels; the config is refused before
    # the checkpoint directory or the log is made
    cfg = _run_config(dataset, tmp_path)
    doc = json.loads(cfg.read_text())
    doc["model"].update(embed_dims=[16], depths=[1])
    cfg.write_text(json.dumps(doc))
    assert run_cli("train", "--config", str(cfg)) == 1
    assert "model.embed_dims" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists() and not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "sr-train", "ablate"])
def test_train_names_manifest_with_empty_train_split(tmp_path, capsys, monkeypatch, command):
    one = tmp_path / "one"
    assert run_cli("synth", "--seed", "0", "--count", "1", "--rgb-dims", "48x48",
                   "--out", str(one)) == 0
    assert json.loads(capsys.readouterr().out)["train"] == 0
    argv = {"train": ["--config", str(_run_config(one, tmp_path))],
            "sr-train": ["--data", str(one), "--out", str(tmp_path / "sr.ckpt")],
            "ablate": ["--data", str(one), "--work-dir", str(tmp_path / "ck")]}[command]
    # ablate refuses before its SR step
    monkeypatch.setattr(sr, "sr_train_selfsupervised", None)
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert str(one / "manifest.json") in err and "'train' has no ids" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ck").exists() and not (tmp_path / "sr.ckpt").exists()


@pytest.mark.parametrize("case,named", [
    ({"patch": "x"}, "'patch'"),
    ({"patch": 0}, "'patch'"),
    ({"patch": True}, "'patch'"),
    ({"data_root": 5}, "'data_root'"),
    ({"sr_checkpoint": 3}, "'sr_checkpoint'"),
    ({"log_path": 7}, "'log_path'"),
    ({"log_path": "a\0b"}, "'log_path'"),
    (b"[" * 100000, "recursion"),
    (b"\xff", "utf-8"),
    ("directory", "directory"),
    ("missing", "No such file"),
])
def test_train_names_bad_run_config(dataset, tmp_path, capsys, case, named):
    cfg = _run_config(dataset, tmp_path, **(case if isinstance(case, dict) else {}))
    if isinstance(case, bytes):
        cfg.write_bytes(case)
    elif case == "directory":
        cfg = tmp_path / "dir.json"
        cfg.mkdir()
    elif case == "missing":
        cfg = tmp_path / "missing.json"
    assert run_cli("train", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    named = f"{named[1:-1]} is " if named.startswith("'") else named  # "<key> is <value>, not ..."
    assert f"config file {cfg}" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "metrics.jsonl").exists()


def test_readme_run_config_is_valid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    doc = json.loads(re.search(r"A run config for `train` looks like:\s*```json\n(.*?)```",
                               readme, re.S).group(1))
    assert cli.validate_run_config(doc) == doc
    segnet.ModelConfig.from_dict({"in_channels": 6, **doc["model"]})
    train.TrainConfig(**doc["train"])


def test_train_twice_identical_logs(dataset, tmp_path):
    for clip in (None, 0.05):
        logs, tensors = [], []
        for run in range(2):
            sub = tmp_path / f"clip{clip}-run{run}"
            sub.mkdir()
            cfg = _run_config(dataset, sub)
            doc = json.loads(cfg.read_text())
            doc["train"]["grad_clip"] = clip
            cfg.write_text(json.dumps(doc))
            assert run_cli("train", "--config", str(cfg)) == 0
            logs.append((sub / "metrics.jsonl").read_text())
            # the tensors, not the archive: the manifests differ by checkpoint_dir
            tensors.append(train.load_checkpoint(sub / "ck" / "last.ckpt")[0])
        assert logs[0] == logs[1], clip
        assert tensors[0].keys() == tensors[1].keys()
        for name, t in tensors[0].items():
            other = tensors[1][name]
            assert t.dtype == other.dtype and t.tobytes() == other.tobytes(), (clip, name)


def test_eval_untrained_model_valid_report(dataset, capsys):
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--patch", "48") == 0
    rep = json.loads(capsys.readouterr().out)
    assert 0.0 <= rep["miou"] <= 1.0
    assert rep["image_count"] >= 1
    assert "pixel_counts" in rep


def test_eval_patch_below_grid_divisor_names_patch(dataset, capsys):
    # the default model's grid divisor is 24; the 48 x 48 images are not at fault
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB", "--patch", "12") == 1
    err = capsys.readouterr().err
    assert "patch 12" in err and "24" in err and "too small" not in err


def test_eval_checkpoint_roundtrip(dataset, tmp_path, capsys):
    cfg = _run_config(dataset, tmp_path)
    assert run_cli("train", "--config", str(cfg)) == 0
    capsys.readouterr()
    ckpt = tmp_path / "ck" / "last.ckpt"
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert 0.0 <= rep["miou"] <= 1.0
    # weights only, as a model exported without its optimizer state
    tensors, manifest = train.load_checkpoint(ckpt)
    weights_only = tmp_path / "weights.ckpt"
    train.save_checkpoint(weights_only, {k: v for k, v in tensors.items()
                                         if not k.startswith("opt.")},
                          {k: manifest[k] for k in ("format", "iteration", "model_config")})
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(weights_only)) == 0
    assert json.loads(capsys.readouterr().out) == rep


def test_eval_refuses_sr_checkpoint_as_model(dataset, tmp_path, capsys):
    ckpt = tmp_path / "sr.ckpt"
    assert run_cli("sr-train", "--data", str(dataset), "--out", str(ckpt), "--iters", "2") == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert "crackfuse-checkpoint-v1" in err and "crackfuse-sr-v1" in err


def test_eval_refuses_model_checkpoint_as_sr(dataset, tmp_path, capsys):
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path))) == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", str(dataset), "--variant", "PRGB_plus_PIRprime",
                   "--sr-checkpoint", str(tmp_path / "ck" / "last.ckpt")) == 2
    err = capsys.readouterr().err
    assert "crackfuse-sr-v1" in err and "crackfuse-checkpoint-v1" in err


def test_train_resume_refuses_sr_checkpoint(dataset, tmp_path, capsys):
    ckpt = tmp_path / "sr.ckpt"
    assert run_cli("sr-train", "--data", str(dataset), "--out", str(ckpt), "--iters", "2") == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path)),
                   "--resume", str(ckpt)) == 2
    assert "crackfuse-checkpoint-v1" in capsys.readouterr().err


def test_train_resume_refuses_changed_schedule(dataset, tmp_path, capsys):
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path))) == 0
    changed = tmp_path / "changed"
    changed.mkdir()
    cfg = _run_config(dataset, changed)
    doc = json.loads(cfg.read_text())
    doc["train"]["total_iters"] = 6
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("train", "--config", str(cfg),
                   "--resume", str(tmp_path / "ck" / "last.ckpt")) == 2
    assert "total_iters" in capsys.readouterr().err


def _without_entry(src, dst, name, **manifest_changes):
    tensors, manifest = train.load_checkpoint(src)
    del tensors[name]
    train.save_checkpoint(dst, tensors, {**manifest, **manifest_changes})
    return dst


def test_train_resume_names_missing_optimizer_entry(dataset, tmp_path, capsys):
    cfg = _run_config(dataset, tmp_path)
    assert run_cli("train", "--config", str(cfg)) == 0
    # as if written at the mid-run evaluation, then damaged
    ckpt = _without_entry(tmp_path / "ck" / "last.ckpt", tmp_path / "mid.ckpt",
                          "opt.v.decoder.classifier.b", iteration=2)
    capsys.readouterr()
    assert run_cli("train", "--config", str(cfg), "--resume", str(ckpt)) == 2
    assert "opt.v.decoder.classifier.b" in capsys.readouterr().err


def test_eval_names_missing_weight(dataset, tmp_path, capsys):
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path))) == 0
    ckpt = _without_entry(tmp_path / "ck" / "last.ckpt", tmp_path / "bad.ckpt",
                          "decoder.fuse.w")
    capsys.readouterr()
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 2
    assert "decoder.fuse.w: missing" in capsys.readouterr().err


def _with_extra_weight(src, dst, name, **manifest_changes):
    tensors, manifest = train.load_checkpoint(src)
    for key in (name, f"opt.m.{name}", f"opt.v.{name}"):
        tensors[key] = np.zeros(3)
    train.save_checkpoint(dst, tensors, {**manifest, **manifest_changes})
    return dst


def test_train_resume_names_extra_entry(dataset, tmp_path, capsys):
    cfg = _run_config(dataset, tmp_path)
    assert run_cli("train", "--config", str(cfg)) == 0
    ckpt = _with_extra_weight(tmp_path / "ck" / "last.ckpt", tmp_path / "mid.ckpt",
                              "decoder.extra", iteration=2)
    capsys.readouterr()
    assert run_cli("train", "--config", str(cfg), "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert "decoder.extra, opt.m.decoder.extra, opt.v.decoder.extra" in err


def test_eval_names_extra_entry(dataset, tmp_path, capsys):
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path))) == 0
    ckpt = _with_extra_weight(tmp_path / "ck" / "last.ckpt", tmp_path / "bad.ckpt",
                              "decoder.extra")
    capsys.readouterr()
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 2
    assert "decoder.extra" in capsys.readouterr().err
    # a stored model_config key this version does not know is the archive's
    # fault (exit 2), not the user's flags' (exit 1)
    tensors, manifest = train.load_checkpoint(tmp_path / "ck" / "last.ckpt")
    ckpt = tmp_path / "bad_config.ckpt"
    train.save_checkpoint(ckpt, tensors,
                          {**manifest, "model_config": {**manifest["model_config"], "foo": 1}})
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "foo" in err and "Traceback" not in err


def test_eval_names_truncated_checkpoint(dataset, tmp_path, capsys):
    assert run_cli("train", "--config", str(_run_config(dataset, tmp_path))) == 0
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes((tmp_path / "ck" / "last.ckpt").read_bytes()[:100])
    capsys.readouterr()
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB",
                   "--checkpoint", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "Traceback" not in err


def test_eval_names_manifest_without_split(dataset, capsys):
    path = dataset / "manifest.json"
    doc = json.loads(path.read_text())
    del doc["split"]
    path.write_text(json.dumps(doc))
    assert run_cli("eval", "--data", str(dataset), "--variant", "P_RGB") == 2
    err = capsys.readouterr().err
    assert str(path) in err and "split is missing" in err and "Traceback" not in err


def test_eval_fused_variant_requires_sr_checkpoint(dataset, capsys):
    assert run_cli("eval", "--data", str(dataset), "--variant", "PRGB_plus_PIRprime") == 1
    assert "--sr-checkpoint" in capsys.readouterr().err


def test_ablate_emits_four_tagged_rows(dataset, tmp_path, capsys):
    out = tmp_path / "ablate.json"
    code = run_cli("ablate", "--data", str(dataset), "--seed", "0", "--iters", "2",
                   "--sr-iters", "3", "--batch-size", "2", "--patch", "48",
                   "--work-dir", str(tmp_path / "work"), "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    tags = [r["variant"] for r in doc["rows"]]
    assert tags == ["p_RGB", "P_RGB", "pRGB+PIR", "PRGB+P'IR"]
    for row in doc["rows"]:
        assert 0.0 <= row["miou"] <= 1.0


def test_bench_scan_table_structure(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert run_cli("bench-scan", "--reps", "3", "--min-pow", "6", "--max-pow", "8",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 3
    assert {"length", "t_seq", "t_par"} <= set(doc["rows"][0])
    text = capsys.readouterr().out
    assert "median sequential doubling ratio" in text


@pytest.mark.parametrize("argv, flag", [
    (("ablate", "--data", "d", "--iters", "0"), "--iters"),
    (("sr-train", "--data", "d", "--out", "o", "--iters", "-4"), "--iters"),
    (("ablate", "--data", "d", "--sr-iters", "-3"), "--sr-iters"),
    (("bench-scan", "--reps", "0"), "--reps"),
    (("bench-scan", "--min-pow", "-1"), "--min-pow"),
    (("bench-scan", "--min-pow", "6", "--max-pow", "4"), "--max-pow"),
    (("gradcheck", "--tol", "nan"), "--tol"),
    (("gradcheck", "--tol", "0"), "--tol"),
    (("gradcheck", "--tol=-1e-4"), "--tol"),
    (("sr-train", "--data", "d", "--out", "o", "--lr", "0"), "--lr"),
    (("sr-train", "--data", "d", "--out", "o", "--lr", "-1"), "--lr"),
    (("sr-train", "--data", "d", "--out", "o", "--lr", "nan"), "--lr"),
    (("sr-train", "--data", "d", "--out", "o", "--seed", "-1"), "--seed"),
    (("ablate", "--data", "d", "--lr", "inf"), "--lr"),
    (("synth", "--count", "1", "--out", "o", "--seed", "-2"), "--seed"),
    # refused at parse, before a later argument's check or any work runs
    (("synth", "--count", "0", "--out", "o", "--rgb-dims", "nonsense"), "--count"),
    (("eval", "--data", "d", "--batch-size", "0"), "--batch-size"),
    (("eval", "--data", "d", "--patch", "-48"), "--patch"),
    (("ablate", "--data", "d", "--batch-size", "0"), "--batch-size"),
    (("ablate", "--data", "d", "--patch", "0"), "--patch"),
], ids=["ablate-iters", "sr-train-iters", "ablate-sr-iters", "bench-reps", "bench-min-pow",
        "bench-pow-range", "tol-nan", "tol-zero", "tol-negative", "sr-lr-zero", "sr-lr-negative",
        "sr-lr-nan", "sr-seed-negative", "ablate-lr-inf", "synth-seed-negative",
        "synth-count-zero", "eval-batch-size-zero", "eval-patch-negative",
        "ablate-batch-size-zero", "ablate-patch-zero"])
def test_counts_checked_where_they_enter(argv, flag, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_runtime_failure_exit_code(tmp_path):
    assert run_cli("eval", "--data", str(tmp_path / "missing")) == 2


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # as in `crackfuse synth ... | head -0`, the reader of stdout is gone before
    # the command writes; the command runs as a child, so fd 1 is its own
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run([sys.executable, "-m", "crackfuse.cli", "synth", "--count", "1",
                               "--rgb-dims", "24x24", "--out", str(tmp_path / "d")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_missing_subcommand_is_usage_error():
    assert run_cli() == 1


def test_gradcheck_command_passes(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    assert "[FAIL]" not in out


def test_sr_train_idempotent_checkpoint(dataset, tmp_path):
    digests = []
    for run in range(2):
        ckpt = tmp_path / f"sr{run}.ckpt"
        assert run_cli("sr-train", "--data", str(dataset), "--out", str(ckpt),
                       "--iters", "8") == 0
        digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
