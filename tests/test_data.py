import json

import numpy as np
import pytest

from crackfuse import data, sr


def small_dataset(seed=0, n=6, dims=(48, 48), factor="2"):
    return data.synth_dataset(seed, n, dims, factor)


# ---------------------------------------------------------------- image io


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((3, 9, 7))
    p = tmp_path / "x.ppm"
    data.save_image(p, img)
    back = data.load_image(p)
    assert back.shape == img.shape and back.dtype == np.float32
    assert np.max(np.abs(back - img)) <= 1.0 / 255.0 + 1e-12


def test_pgm_roundtrip(tmp_path):
    mask = (np.random.default_rng(1).random((6, 8)) < 0.4).astype(np.int64)
    p = tmp_path / "m.pgm"
    data.save_mask(p, mask)
    np.testing.assert_array_equal(data.load_mask(p), mask)


def test_bad_magic_offset(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"Q6\n2 2\n255\n" + bytes(12))
    with pytest.raises(data.ImageParseError, match="byte 0"):
        data.load_image(p)


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "deep.ppm"
    p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(data.ImageParseError, match="maxval"):
        data.load_image(p)


def test_truncated_payload_offset(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(data.ImageParseError, match="truncated payload at byte"):
        data.load_image(p)


def test_comment_headers_parse(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
    img = data.load_image(p)
    assert img.shape == (3, 1, 2)


def test_mask_value_validation(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 7, 0]))
    with pytest.raises(data.ImageParseError, match="value 7"):
        data.load_mask(p)


# ---------------------------------------------------------------- synthesis


def test_synth_deterministic():
    a = small_dataset(seed=3, n=2)
    b = small_dataset(seed=3, n=2)
    for s, t in zip(a, b):
        assert np.array_equal(s.rgb, t.rgb)
        assert np.array_equal(s.ir, t.ir)
        assert np.array_equal(s.mask, t.mask)
    c = small_dataset(seed=4, n=2)
    assert not np.array_equal(a[0].rgb, c[0].rgb)


def test_synth_dims_and_binary_mask():
    samples = small_dataset(n=2, dims=(96, 96), factor="10/3")
    s = samples[0]
    assert s.rgb.shape == (3, 96, 96)
    assert s.ir.shape == (3, 29, 29)
    assert s.mask.shape == (96, 96)
    assert set(np.unique(s.mask)) <= {0, 1}


def test_synth_frames_are_the_float32_frames_saved(tmp_path):
    # synth quantizes each frame to 8 bits, so a dataset read back from disk
    # holds the very frames that were generated
    samples = small_dataset(seed=5, n=3, dims=(96, 96), factor="10/3")
    data.save_dataset(tmp_path, samples, seed=5)
    for s in samples:
        back = data.load_sample(tmp_path, s.id)
        for name in ("rgb", "ir"):
            made, read = getattr(s, name), getattr(back, name)
            assert made.dtype == read.dtype == np.float32, name
            assert np.array_equal(made, read), (s.id, name)


def test_synth_crack_fraction_window_over_seeds():
    for seed in range(100):
        s = data.synth_dataset(seed, 1, (48, 48), "2")[0]
        frac = s.mask.mean()
        assert 0.002 <= frac <= 0.08, f"seed {seed}: fraction {frac}"


def test_ir_only_cracks_have_zero_rgb_contrast():
    hits = 0
    for seed in range(30):
        rng = data.named_rng(seed, "synth.0.0")
        made = data._make_sample(rng, (48, 48), "2")
        hidden = (made["mask"] == 1) & ~made["rgb_visible"]
        if hidden.any():
            hits += 1
            np.testing.assert_array_equal(made["rgb"][:, hidden], made["background"][:, hidden])
        vis = made["rgb_visible"]
        if vis.any():
            assert np.all(made["rgb"][:, vis] < made["background"][:, vis])
    assert hits > 5  # the IR-only subset actually occurs


# ---------------------------------------------------------------- variants


def test_variant_shapes_and_channels():
    s = small_dataset(n=1)[0]
    m = sr.init_sr_model(2, np.random.default_rng(0), hidden=4)
    inp, tgt = data.make_variant(s, "p_RGB")
    assert inp.shape == (3, 24, 24) and tgt.shape == (24, 24)
    inp, tgt = data.make_variant(s, "P_RGB")
    assert inp.shape == (3, 48, 48) and tgt.shape == (48, 48)
    inp, tgt = data.make_variant(s, "pRGB_plus_PIR")
    assert inp.shape == (6, 24, 24) and tgt.shape == (24, 24)
    inp, tgt = data.make_variant(s, "PRGB_plus_PIRprime", sr_model=m)
    assert inp.shape == (6, 48, 48) and tgt.shape == (48, 48)
    for v, c in data.VARIANT_CHANNELS.items():
        assert data.make_variant(s, v, sr_model=m)[0].shape[0] == c


def test_variant_requires_sr_model():
    s = small_dataset(n=1)[0]
    with pytest.raises(ValueError, match="sr_model"):
        data.make_variant(s, "PRGB_plus_PIRprime")
    with pytest.raises(ValueError, match="unknown variant"):
        data.make_variant(s, "nope")


def test_variant_targets_stay_binary():
    s = small_dataset(n=1)[0]
    _, tgt = data.make_variant(s, "p_RGB")
    assert set(np.unique(tgt)) <= {0, 1}


# ---------------------------------------------------------------- augment


def test_flips_rotations_preserve_crack_count():
    s = small_dataset(n=1)[0]
    inp, tgt = data.make_variant(s, "P_RGB")
    total = tgt.sum()
    for seed in range(12):
        rng = data.named_rng(seed, "aug")
        a_in, a_tgt = data.augment(inp, tgt, rng, patch=48)  # full-size crop
        assert a_tgt.sum() == total
        assert set(np.unique(a_tgt)) <= {0, 1}
        assert a_in.shape == inp.shape


def test_identity_transform():
    s = small_dataset(n=1)[0]
    inp, tgt = data.make_variant(s, "P_RGB")
    a_in, a_tgt = data.apply_geometric(inp, tgt, False, False, 0, 0, 0, 48)
    assert np.array_equal(a_in, inp) and np.array_equal(a_tgt, tgt)


def test_augment_deterministic_per_stream():
    s = small_dataset(n=1)[0]
    inp, tgt = data.make_variant(s, "P_RGB")
    a1 = data.augment(inp, tgt, data.named_rng(5, "aug"), patch=24)
    a2 = data.augment(inp, tgt, data.named_rng(5, "aug"), patch=24)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])


def test_augment_marker_pixel_commutes():
    # a unique marker in the input must land where the mask marker lands
    inp = np.zeros((3, 16, 16))
    tgt = np.zeros((16, 16), dtype=np.int64)
    inp[:, 5, 11] = 1.0
    tgt[5, 11] = 1
    for seed in range(20):
        rng = data.named_rng(seed, "marker")
        a_in, a_tgt = data.augment(inp, tgt, rng, patch=16)
        pos_in = np.argwhere(a_in[0] == 1.0)
        pos_tgt = np.argwhere(a_tgt == 1)
        assert len(pos_in) == 1 and len(pos_tgt) == 1
        np.testing.assert_array_equal(pos_in[0], pos_tgt[0])


def test_augment_patch_too_large():
    with pytest.raises(ValueError, match="larger"):
        data.augment(np.zeros((3, 8, 8)), np.zeros((8, 8), dtype=np.int64),
                     data.named_rng(0, "aug"), patch=12)


# ---------------------------------------------------------------- splits / batches


def test_split_fraction_counts():
    ids914 = [f"i{k}" for k in range(914)]
    split = data.split_ids(ids914, seed=0)
    counts = [sum(1 for v in split.values() if v == "train"),
              sum(1 for v in split.values() if v == "val")]
    assert counts == [731, 183]
    ids10 = [f"i{k}" for k in range(10)]
    s10 = data.split_ids(ids10, seed=0)
    assert sum(1 for v in s10.values() if v == "train") == 8


def test_manifest_roundtrip(tmp_path):
    samples = small_dataset(n=4)
    manifest = data.save_dataset(tmp_path, samples, seed=7, ir_factor="2")
    back = data.read_manifest(tmp_path)
    assert back.ids == manifest.ids
    assert back.split == manifest.split
    assert back.seed == 7
    s = data.load_sample(tmp_path, samples[0].id)
    assert np.max(np.abs(s.rgb - samples[0].rgb)) <= 1.0 / 255.0 + 1e-12
    np.testing.assert_array_equal(s.mask, samples[0].mask)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("edit,field", [
    (lambda d: _without(d, "split"), "'split'"),
    (lambda d: _without(d, "ir_factor"), "'ir_factor'"),
    (lambda d: {**d, "seed": "7"}, "'seed'"),
    (lambda d: {**d, "ids": "a"}, "'ids'"),
    (lambda d: {**d, "ids": []}, "'ids'"),
    (lambda d: {**d, "rgb_dims": [48, "48"]}, "'rgb_dims'"),
    (lambda d: {**d, "ir_factor": "1/0"}, "'ir_factor'"),
    (lambda d: {**d, "split": {**d["split"], d["ids"][0]: "test"}}, "'split'"),
    (lambda d: {**d, "split": _without(d["split"], d["ids"][0])}, "no entry for id"),
    (lambda d: [d], "not a JSON object"),
    (lambda d: json.dumps(d)[:-1], "Expecting"),
    (lambda d: "[" * 100000 + "]" * 100000, "recursion"),
])
def test_read_manifest_names_file_and_field(tmp_path, edit, field):
    data.save_dataset(tmp_path, small_dataset(n=2), seed=7)
    path = tmp_path / "manifest.json"
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(data.ManifestError) as err:
        data.read_manifest(tmp_path)
    field = f"{field[1:-1]} is " if field.startswith("'") else field  # "<key> is ..."
    assert str(path) in str(err.value) and field in str(err.value)


def test_materialize_frames_are_float32():
    samples = small_dataset(n=2)
    sr_model = sr.init_sr_model(2, np.random.default_rng(0), hidden=4)
    for variant in data.VARIANTS:
        table = data.materialize(samples, variant, sr_model=sr_model)
        for inp, tgt in table.values():
            assert inp.dtype == np.float32 and tgt.dtype == np.int64, variant


def test_eval_batches_disjoint_cover():
    samples = small_dataset(n=7)
    table = data.materialize(samples, "P_RGB")
    ids = [s.id for s in samples]
    src = data.BatchSource(table, ids, batch_size=3, patch=48, seed=0, augment_data=False)
    seen = []
    for xs, ts, got in src.eval_batches():
        assert xs.shape[0] == ts.shape[0] == len(got)
        seen.extend(got)
    assert seen == ids  # disjoint, ordered, includes the partial tail


def test_train_batches_pure_function_of_iteration():
    samples = small_dataset(n=8)
    table = data.materialize(samples, "P_RGB")
    ids = [s.id for s in samples]
    src1 = data.BatchSource(table, ids, batch_size=4, patch=48, seed=9)
    src2 = data.BatchSource(table, ids, batch_size=4, patch=48, seed=9)
    for it in (0, 1, 2, 5, 11):
        x1, t1, id1 = src1.batch(it)
        x2, t2, id2 = src2.batch(it)
        assert id1 == id2
        assert np.array_equal(x1, x2) and np.array_equal(t1, t2)
    x3, _, _ = data.BatchSource(table, ids, batch_size=4, patch=48, seed=10).batch(0)
    assert not np.array_equal(x3, src1.batch(0)[0])


def test_batch_shapes_and_epoch_coverage():
    samples = small_dataset(n=8)
    table = data.materialize(samples, "pRGB_plus_PIR")
    ids = [s.id for s in samples]
    src = data.BatchSource(table, ids, batch_size=4, patch=24, seed=1)
    seen = set()
    for it in (0, 1):  # one epoch = 2 batches
        xs, ts, got = src.batch(it)
        assert xs.shape == (4, 6, 24, 24)
        assert ts.shape == (4, 24, 24)
        seen.update(got)
    assert seen == set(ids)


def test_train_batches_full_on_splits_smaller_than_half_a_batch():
    samples = small_dataset(n=3)
    table = data.materialize(samples, "P_RGB")
    ids = [s.id for s in samples]
    src = data.BatchSource(table, ids, batch_size=8, patch=24, seed=2)
    for it in (0, 1, 4):
        xs, ts, got = src.batch(it)
        assert xs.shape == (8, 3, 24, 24) and ts.shape == (8, 24, 24)
        # the epoch's order, wrapped as often as the batch needs
        assert got == got[:3] * 2 + got[:2] and sorted(got[:3]) == sorted(ids)


def test_empty_split_rejected():
    with pytest.raises(ValueError, match="empty"):
        data.BatchSource({}, [], 4, 48, 0)


def test_mixed_channel_table_rejected():
    samples = small_dataset(n=2)
    table = {
        samples[0].id: data.make_variant(samples[0], "P_RGB"),
        samples[1].id: data.make_variant(samples[1], "pRGB_plus_PIR"),
    }
    with pytest.raises(ValueError, match="channel"):
        data.BatchSource(table, [s.id for s in samples], 2, 24, 0)

