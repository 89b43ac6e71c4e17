"""The package-wide gradient-check suite.

Each entry is one differentiable operation (including the composites) with
its inputs, arrays or weight trees, so the finite-difference checker can
perturb every leaf. The CLI `gradcheck` command and the acceptance tests
both run this list.
"""
from __future__ import annotations

import numpy as np

from . import ops, scan2d, segnet, ssm, train
from .gradcheck import grad_check


def suite():
    """Return [(name, runner)] where runner(tol) -> GradCheckReport."""
    rng = np.random.default_rng(7)
    entries = []

    def add(name, fn, inputs, max_entries=None):
        entries.append((name, lambda tol: grad_check(
            fn, inputs, tol=tol, name=name, max_entries_per_input=max_entries)))

    x = rng.standard_normal((4, 6))
    add("silu", ops.silu, [x])
    add("relu", ops.relu, [x + 0.05 * np.sign(x)])  # keep away from the kink
    add("softplus", ops.softplus, [x])
    add("sigmoid", ops.sigmoid, [x])
    add("clamp01", ops.clamp01, [rng.uniform(0.1, 0.9, size=(3, 5))])
    add("layer_norm", ops.layer_norm,
        [rng.standard_normal((3, 7)), rng.standard_normal(7), rng.standard_normal(7)])
    add("linear", ops.linear,
        [rng.standard_normal((5, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)])
    add("depthwise_conv2d", ops.depthwise_conv2d,
        [rng.standard_normal((1, 3, 5, 4)), rng.standard_normal((3, 3, 3))])
    add("conv2d", ops.conv2d,
        [rng.standard_normal((1, 2, 5, 5)), rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3)])
    add("resize_bicubic", lambda a: ops.resize_bicubic(a, 9, 7), [rng.standard_normal((2, 5, 4))])
    add("resize_bilinear", lambda a: ops.resize_bilinear(a, 3, 9), [rng.standard_normal((2, 5, 4))])
    add("adaptive_avg_pool2d", lambda a: ops.adaptive_avg_pool2d(a, 3, 3),
        [rng.standard_normal((2, 5, 7))])

    # both scan evaluations on the same 16-step, C=3, N=4 input
    for scan_name in ("selective_scan_seq", "selective_scan_par"):
        rng1 = np.random.default_rng(3)
        seq = rng1.standard_normal((1, 16, 3)) * 0.5
        add(scan_name, getattr(ssm, scan_name), [seq, ssm.init_ssm_params(3, 4, rng1)])

    # ss2d on a 3x3 grid, two channels, independent directions
    rng2 = np.random.default_rng(11)
    grid = rng2.standard_normal((1, 3, 3, 2)) * 0.5
    add("ss2d", scan2d.ss2d, [grid, [ssm.init_ssm_params(2, 2, rng2) for _ in range(4)]])

    # full residual block on a 3x3 grid, C=4
    rng3 = np.random.default_rng(13)
    bx = rng3.standard_normal((1, 3, 3, 4)) * 0.5
    add("vss_block", segnet.vss_block, [bx, segnet.init_block(4, 2, rng3)])

    # patch embed and downsample
    rng4 = np.random.default_rng(17)
    cfg = segnet.ModelConfig(in_channels=2, patch_size=3, embed_dims=(4, 8), depths=(1, 1),
                             state_dim=2, num_classes=2, decoder_dim=4)
    img = rng4.standard_normal((1, 2, 6, 6))
    emb = segnet.PatchEmbedWeights(w=rng4.standard_normal((2 * 9, 4)) * 0.2, b=np.zeros(4))
    add("patch_embed", lambda a, w: segnet.patch_embed(a, w, cfg), [img, emb])
    dw = segnet.DownsampleWeights(w=rng4.standard_normal((16, 8)) * 0.2, b=np.zeros(8))
    add("downsample", segnet.downsample, [rng4.standard_normal((1, 4, 4, 4)), dw])

    # decoder on a reduced two-level config
    rng5 = np.random.default_rng(19)
    feats = [rng5.standard_normal((1, 4, 4, 4)) * 0.5, rng5.standard_normal((1, 2, 2, 8)) * 0.5]
    dec = segnet.init_decoder((4, 8), 4, 2, rng5)
    add("uper_decode", lambda f, w: segnet.uper_decode(f, w, 12, 12), [feats, dec],
        max_entries=40)

    # pixel cross-entropy wrt logits
    rng6 = np.random.default_rng(23)
    logits = rng6.standard_normal((1, 2, 4, 4))
    target = rng6.integers(0, 2, size=(1, 4, 4))
    add("cross_entropy", lambda lg: train.cross_entropy(lg, target), [logits])

    return entries


def run_suite(tol=1e-4):
    """Run every check; returns the list of reports."""
    return [runner(tol) for _name, runner in suite()]
