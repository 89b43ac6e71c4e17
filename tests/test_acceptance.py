"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy end-to-end
criteria (7, 8, 9) dominate the runtime; each asserts its own budget.
"""
import math
import time

import numpy as np
import pytest

from crackfuse import checks, data, metrics, scan2d, segnet, sr, ssm, train

pytestmark = pytest.mark.slow


def _report(criterion, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------


def test_criterion_1_scan_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        L = int(rng.integers(1, 4097))
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        p = ssm.init_ssm_params(c, n, np.random.default_rng(trial))
        x = rng.standard_normal((1, L, c))
        ys, _ = ssm.selective_scan_seq(x, p)
        yp, _ = ssm.selective_scan_par(x, p)
        rel = np.max(np.abs(ys - yp) / np.maximum(np.abs(ys), 1.0))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-10 and elapsed < 60.0,
            f"parallel vs sequential max rel diff {worst:.2e} over 100 cases "
            f"(L up to 4096) in {elapsed:.1f}s")


def test_criterion_2_zoh_correctness():
    pair = ssm.discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]),
                              np.array([[math.log(2.0)]]))
    err_closed = max(abs(pair.decay[0, 0, 0] - 0.5), abs(pair.gain[0, 0, 0] - 0.5))
    # series vs exact right at the switching threshold, both signs
    rels = []
    for a0 in (-1.0, -7.3):
        dt = np.array([[ssm.SERIES_THRESHOLD / abs(a0)]])
        a = np.array([[a0]])
        z = dt[..., None] * a
        exact = np.expm1(z) / a
        series = dt[..., None] * (1.0 + z / 2.0 + z * z / 6.0)
        rels.append(float(np.max(np.abs(series - exact) / np.abs(exact))))
    _report(2, err_closed <= 1e-12 and max(rels) <= 1e-10,
            f"closed-form err {err_closed:.1e}, series-vs-exact rel {max(rels):.1e} "
            f"at |dt*a| = {ssm.SERIES_THRESHOLD}")


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    reports = checks.run_suite(tol=1e-4)
    elapsed = time.perf_counter() - t0
    bad = [r for r in reports if not r.passed]
    for r in reports:
        print("   ", r)
    _report(3, not bad and elapsed < 300.0,
            f"{len(reports) - len(bad)}/{len(reports)} ops pass finite differences "
            f"at 1e-4 in {elapsed:.1f}s")


def test_criterion_4_linear_complexity():
    rows = ssm.bench_scan(lengths=[1 << k for k in range(12, 19)], reps=5)
    ratios = [r["ratio_seq"] for r in rows if r["ratio_seq"] is not None]
    med = float(np.median(ratios))
    _report(4, 1.6 <= med <= 2.6,
            f"sequential doubling ratios {['%.2f' % r for r in ratios]}, median {med:.2f}")


def test_criterion_5_structural_symmetries():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 6, 9, 3))
    merged = scan2d.cross_merge(scan2d.cross_scan(x), 6, 9)
    exact = np.array_equal(merged, 4.0 * x) or np.max(np.abs(merged - 4.0 * x)) == 0.0
    p = ssm.init_ssm_params(3, 3, np.random.default_rng(6))
    y, _ = scan2d.ss2d(x, [p, p, p, p])
    yr, _ = scan2d.ss2d(x[:, ::-1, ::-1].copy(), [p, p, p, p])
    rel = np.max(np.abs(yr - y[:, ::-1, ::-1]) / np.maximum(np.abs(y), 1.0))
    _report(5, exact and rel <= 1e-10,
            f"cross-scan/merge roundtrip exact 4x: {exact}; rot-180 equivariance "
            f"rel diff {rel:.2e}")


def test_criterion_6_metric_oracle():
    def brute(pred, gt):
        ious = []
        for cls in (0, 1):
            tp = fp = fn = 0
            for pv, gv in zip(pred.ravel().tolist(), gt.ravel().tolist()):
                tp += pv == cls and gv == cls
                fp += pv == cls and gv != cls
                fn += pv != cls and gv == cls
            if tp + fp + fn:
                ious.append(tp / (tp + fp + fn))
        return sum(ious) / len(ious)

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        pred = rng.integers(0, 2, (8, 8))
        gt = rng.integers(0, 2, (8, 8))
        got = metrics.ConfusionMatrix(2).add(pred, gt).miou()
        worst = max(worst, abs(got - brute(pred, gt)))
    hand = metrics.ConfusionMatrix(2).add(np.zeros(4, dtype=int),
                                          np.array([1, 0, 0, 0])).miou()
    _report(6, worst < 1e-12 and hand == 0.375,
            f"1000-case oracle max diff {worst:.1e}; hand example mIoU {hand}")


def test_criterion_7_stage1_noninferiority():
    t0 = time.perf_counter()
    samples = data.synth_dataset(0, 64, (48, 48), "2")
    split = data.split_ids([s.id for s in samples], seed=0)
    train_imgs = [s.ir for s in samples if split[s.id] == "train"]
    held_imgs = [s.ir for s in samples if split[s.id] == "val"]
    model = sr.sr_train_selfsupervised(train_imgs, 2,
                                       sr.SrTrainConfig(iters=300, lr=1e-3, hidden=16, seed=0))

    def mean_psnr(rows, key):
        return float(np.mean([metrics.psnr_for_log(r[key]) for r in rows]))

    rows_tr = sr.evaluate_sr(model, train_imgs, 2)
    rows_ho = sr.evaluate_sr(model, held_imgs, 2)
    tr_model, tr_bic = mean_psnr(rows_tr, "psnr_model"), mean_psnr(rows_tr, "psnr_bicubic")
    ho_model, ho_bic = mean_psnr(rows_ho, "psnr_model"), mean_psnr(rows_ho, "psnr_bicubic")
    elapsed = time.perf_counter() - t0
    _report(7, tr_model > tr_bic and ho_model >= ho_bic - 0.1 and elapsed < 600.0,
            f"train PSNR {tr_model:.2f} vs bicubic {tr_bic:.2f} dB; held-out "
            f"{ho_model:.2f} vs {ho_bic:.2f} dB; {elapsed:.0f}s")


def _train_variant(samples, train_ids, val_ids, variant, sr_model, seed, iters,
                   model_cfg=None, base_lr=1.5e-3, batch=8, patch=48, workdir="/tmp"):
    table = data.materialize(samples, variant, sr_model=sr_model)
    cin = table[train_ids[0]][0].shape[0]
    cfg = model_cfg or segnet.ModelConfig(in_channels=cin, embed_dims=(8, 16, 32, 64),
                                          depths=(1, 1, 1, 1), state_dim=2, decoder_dim=16)
    if cfg.in_channels != cin:
        cfg = segnet.ModelConfig(**{**cfg.to_dict(), "in_channels": cin})
    model = segnet.init_model(cfg, data.named_rng(seed, "init"))
    tcfg = train.TrainConfig(total_iters=iters, batch_size=batch, base_lr=base_lr,
                             warmup_iters=min(50, iters - 1), seed=seed,
                             eval_interval=max(iters // 4, 1),
                             checkpoint_dir=f"{workdir}/ck_{variant}_{seed}")
    tsrc = data.BatchSource(table, train_ids, batch, patch, seed, augment_data=True)
    vsrc = data.BatchSource(table, val_ids, batch, patch, seed, augment_data=False)
    res = train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches)
    return model, res, vsrc


def test_criterion_8_end_to_end_toy_training(tmp_path):
    t0 = time.perf_counter()
    samples = data.synth_dataset(0, 80, (48, 48), "2")
    ids = [s.id for s in samples]
    train_ids, val_ids = ids[:64], ids[64:]
    sr_model = sr.sr_train_selfsupervised(
        [s.ir for s in samples[:32]], 2, sr.SrTrainConfig(iters=100, lr=1e-3, hidden=16))
    model, res, vsrc = _train_variant(
        samples, train_ids, val_ids, "PRGB_plus_PIRprime", sr_model, seed=0, iters=800,
        model_cfg=segnet.ModelConfig(), base_lr=1e-3, workdir=str(tmp_path))
    final_miou = res.evals[-1]["miou"]
    baseline = metrics.ConfusionMatrix(2)
    for _xs, ts, _ids in vsrc.eval_batches():
        baseline.add(np.zeros_like(ts), ts)
    base_miou = baseline.miou()

    def smoothed(curve, it, window=50):
        lo = max(0, it - window + 1)
        return sum(curve[lo:it + 1]) / (it + 1 - lo)

    loss_ok = smoothed(res.loss_curve, 500) < smoothed(res.loss_curve, 10)
    elapsed = time.perf_counter() - t0
    _report(8, final_miou >= 0.75 and final_miou > base_miou and loss_ok and elapsed < 1800.0,
            f"val mIoU {final_miou:.4f} (all-background baseline {base_miou:.4f}), "
            f"smoothed loss {smoothed(res.loss_curve, 10):.3f} -> "
            f"{smoothed(res.loss_curve, 500):.3f}, 800 iters in {elapsed:.0f}s")


def test_criterion_9_variant_trend(tmp_path):
    samples = data.synth_dataset(1, 50, (48, 48), "2")
    ids = [s.id for s in samples]
    train_ids, val_ids = ids[:40], ids[40:]
    sr_model = sr.sr_train_selfsupervised(
        [s.ir for s in samples[:20]], 2, sr.SrTrainConfig(iters=80, lr=1e-3, hidden=16))
    wins = 0
    lines = []
    for seed in range(3):
        _m, res_rgb, _ = _train_variant(samples, train_ids, val_ids, "P_RGB", None,
                                        seed, 350, workdir=str(tmp_path))
        _m, res_fused, _ = _train_variant(samples, train_ids, val_ids, "PRGB_plus_PIRprime",
                                          sr_model, seed, 350, workdir=str(tmp_path))
        a, b = res_rgb.evals[-1]["miou"], res_fused.evals[-1]["miou"]
        wins += b > a
        lines.append(f"seed {seed}: P_RGB {a:.4f} vs fused {b:.4f}")
    _report(9, wins >= 2, f"fused input wins {wins}/3 seeds ({'; '.join(lines)})")


def test_criterion_10_determinism_and_resume(tmp_path):
    samples = data.synth_dataset(2, 10, (24, 24), "1")
    ids = [s.id for s in samples]
    train_ids, val_ids = ids[:8], ids[8:]
    table = data.materialize(samples, "P_RGB")
    cfg = segnet.ModelConfig(in_channels=3, embed_dims=(4, 8, 16, 32), depths=(1, 1, 1, 1),
                             state_dim=2, decoder_dim=4)

    def run(workdir, stop_after=None, resume_from=None):
        model = segnet.init_model(cfg, data.named_rng(0, "init"))
        tcfg = train.TrainConfig(total_iters=8, batch_size=2, base_lr=1e-3,
                                 warmup_iters=2, seed=0, eval_interval=4,
                                 checkpoint_dir=str(workdir))
        tsrc = data.BatchSource(table, train_ids, 2, 24, 0, augment_data=True)
        vsrc = data.BatchSource(table, val_ids, 2, 24, 0, augment_data=False)
        return train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches,
                           stop_after=stop_after, resume_from=resume_from)

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    identical = a.loss_curve == b.loss_curve
    # interrupt at iteration 3 (not an eval boundary), then resume to the end
    half = run(tmp_path / "h", stop_after=3)
    cont = run(tmp_path / "r", resume_from=half.last_path)
    resume_ok = half.loss_curve + cont.loss_curve == a.loss_curve
    _report(10, identical and resume_ok,
            f"identical-seed curves bitwise equal: {identical}; resume continues "
            f"the curve exactly: {resume_ok}")
