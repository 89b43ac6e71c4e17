"""Property tests: every input either decodes or raises its format's named
error (MSCM tensors, checkpoint archives and their manifests, PPM/PGM
images, dataset manifests, and run configs: their bytes, top-level values
and model and train sections)."""
import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crackfuse import cli, data, segnet, sr, train
from crackfuse.data import ImageParseError, load_image, load_mask, save_image, save_mask
from crackfuse.tensor import MAGIC, TensorFormatError, tensor_from_bytes
from crackfuse.trees import tree_flatten


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """The bytes of a tiny checkpoint as save_checkpoint writes it."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    train.save_checkpoint(path, {"w": np.arange(3.0), "opt.m.w": np.zeros((1, 2), np.float32)},
                          {"format": train.CHECKPOINT_FORMAT, "iteration": 2})
    data = path.read_bytes()
    assert train.load_checkpoint(io.BytesIO(data))[1]["iteration"] == 2
    return data


def _decodes_or_checkpoint_error(data):
    try:
        tensors, manifest = train.load_checkpoint(io.BytesIO(data))
    except train.CheckpointError:
        return
    assert isinstance(manifest, dict)
    assert all(isinstance(t, np.ndarray) for t in tensors.values())


def test_checkpoint_single_byte_edits(ckpt):
    # every byte of the archive, set to values that hit the zip format's
    # flags, compression methods, versions and sizes
    for pos in range(len(ckpt)):
        for value in (0x00, 0x01, 0x08, 0x63, 0xFF):
            data = bytearray(ckpt)
            data[pos] = value
            _decodes_or_checkpoint_error(bytes(data))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=600))
def test_checkpoint_random_bytes(data):
    _decodes_or_checkpoint_error(data)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1,
                      max_size=8),
       keep=st.floats(0.0, 1.0))
def test_checkpoint_mutated_bytes(ckpt, edits, keep):
    data = bytearray(ckpt)
    for pos, value in edits:
        data[pos % len(data)] = value
    _decodes_or_checkpoint_error(bytes(data[: round(keep * len(data))]))


def _header(code, extents):
    return MAGIC + bytes([code, len(extents)]) + b"".join(struct.pack("<Q", e) for e in extents)


# well-formed headers (any code; ranks near 0 and near numpy's 64 axes;
# extents small or up to 2**64 - 1) followed by empty or random payloads,
# beside raw random bytes
_EXTENT = st.one_of(st.integers(0, 3), st.sampled_from([2**31, 2**63 - 1, 2**63, 2**64 - 1]),
                    st.integers(0, 2**64 - 1))
_TENSOR_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda code, ext, payload: _header(code, ext) + payload,
              st.integers(0, 3),
              st.one_of(st.integers(0, 4), st.integers(62, 68)).flatmap(
                  lambda rank: st.lists(_EXTENT, min_size=rank, max_size=rank)),
              st.one_of(st.just(b""), st.binary(max_size=48))),
)


@settings(max_examples=200, deadline=None)
@given(_TENSOR_BYTES)
@example(_header(2, [0, 2**63]))            # zero elements, an extent past numpy's index range
@example(_header(2, [1] * 65) + bytes(8))  # one element on more axes than numpy allows
def test_tensor_random_bytes(data):
    try:
        arr = tensor_from_bytes(data)
    except TensorFormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)


# --------------------------------------------------------------------------
# manifest fields through restore_checkpoint

# no scan blocks (depth 0), so an archive has few entries to write and read
_CFG = segnet.ModelConfig(in_channels=3, embed_dims=(4, 8), depths=(0, 0), decoder_dim=4)
_TCFG = train.TrainConfig(total_iters=4, warmup_iters=1)
# small values only: a stored config is built before its shapes are checked
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_MODEL_CONFIG = st.one_of(
    _JSON,
    st.builds(lambda key, value: {**_CFG.to_dict(), key: value},
              st.sampled_from([f.name for f in dataclasses.fields(segnet.ModelConfig)] + ["foo"]),
              _JSON),
    st.just(_CFG.to_dict()))
_FORMAT = st.one_of(st.sampled_from([train.CHECKPOINT_FORMAT, sr.SR_FORMAT]), _JSON)
_SCALE = st.one_of(st.lists(st.integers(-1, 4), min_size=2, max_size=2),
                   st.lists(st.integers(-1, 4), max_size=3), _JSON)


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    """Where to write, and the tensors of a segmenter archive (with moments)
    and of an SR archive."""
    model = segnet.flatten_weights(segnet.init_model(_CFG, np.random.default_rng(0)))
    named = {**model, **{f"opt.{moment}.{k}": np.zeros_like(v)
                         for moment in "mv" for k, v in model.items()}}
    sr_named = tree_flatten(sr.init_sr_model(2, np.random.default_rng(0), hidden=4))
    return tmp_path_factory.mktemp("manifests"), named, sr_named


def _restores_or_checkpoint_error(read, path):
    try:
        read(path)
    except train.CheckpointError as e:
        assert str(path) in str(e)


@settings(max_examples=100, deadline=None)
@given(fmt=st.one_of(st.just(train.CHECKPOINT_FORMAT), _FORMAT),
       iteration=st.one_of(st.integers(-2, 5), _JSON), model_config=_MODEL_CONFIG,
       best_miou=_JSON, sr_fmt=st.one_of(st.just(sr.SR_FORMAT), _FORMAT), scale=_SCALE,
       initial_loss=_JSON, final_loss=_JSON)
@example(fmt=train.CHECKPOINT_FORMAT, iteration=2, model_config=_CFG.to_dict(), best_miou=0.5,
         sr_fmt=sr.SR_FORMAT, scale=[2, 1], initial_loss=float("nan"),
         final_loss=0.25)  # every reader restores this one
def test_manifest_fields_restore_or_raise_checkpoint_error(weights, fmt, iteration, model_config,
                                                           best_miou, sr_fmt, scale, initial_loss,
                                                           final_loss):
    root, named, sr_named = weights
    train.save_checkpoint(root / "model.ckpt", named, {
        "format": fmt, "iteration": iteration, "model_config": model_config,
        "train_config": _TCFG.to_dict(), "best_miou": best_miou})
    train.save_checkpoint(root / "sr.ckpt", sr_named, {
        "format": sr_fmt, "scale": scale, "initial_loss": initial_loss, "final_loss": final_loss})

    def resume(path):
        train.train(segnet.init_model(_CFG, np.random.default_rng(0)), None,
                    dataclasses.replace(_TCFG, checkpoint_dir=str(root / "ck")),
                    resume_from=path, stop_after=0)

    _restores_or_checkpoint_error(resume, root / "model.ckpt")
    _restores_or_checkpoint_error(train.load_model_checkpoint, root / "model.ckpt")
    _restores_or_checkpoint_error(sr.load_sr_checkpoint, root / "sr.ckpt")


# --------------------------------------------------------------------------
# PPM/PGM images


@pytest.fixture(scope="module")
def netpbm(tmp_path_factory):
    """Where to write, and the bytes of a small valid P6 image and P5 mask."""
    root = tmp_path_factory.mktemp("netpbm")
    rng = np.random.default_rng(0)
    save_image(root / "img.ppm", rng.uniform(size=(3, 3, 4)))
    save_mask(root / "mask.pgm", rng.integers(0, 2, (3, 4)))
    return root, [(root / name).read_bytes() for name in ("img.ppm", "mask.pgm")]


_HEADER_NUMBER = st.one_of(st.integers(-1, 5), st.just(255), st.integers(0, 2**70))


@settings(max_examples=200, deadline=None)
@given(choice=st.sampled_from(["image", "mask", "header", "noise"]),
       noise=st.binary(max_size=80),
       edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=6),
       keep=st.floats(0.0, 1.0), magic=st.sampled_from([b"P5", b"P6"]),
       header=st.tuples(_HEADER_NUMBER, _HEADER_NUMBER, _HEADER_NUMBER))
def test_image_bytes_decode_or_image_parse_error(netpbm, choice, noise, edits, keep, magic,
                                                 header):
    root, valid = netpbm
    if choice in ("image", "mask"):  # a valid file, mutated and cut
        buf = bytearray(valid[choice == "mask"])
        for pos, value in edits:
            buf[pos % len(buf)] = value
        buf = bytes(buf[: round(keep * len(buf))])
    elif choice == "header":  # width, height and maxval drawn, then random bytes
        buf = magic + b"\n%d %d\n%d\n" % header + noise
    else:
        buf = noise
    path = root / "fuzz.pnm"
    path.write_bytes(buf)
    for load in (load_image, load_mask):
        try:
            load(path)
        except ImageParseError:
            pass


# --------------------------------------------------------------------------
# dataset manifests and run configs


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A two-image dataset (one train id, one val id), its manifest document,
    and its samples."""
    root = tmp_path_factory.mktemp("dataset")
    manifest = data.save_dataset(root, data.synth_dataset(0, 2, (24, 24), "2"), seed=0)
    samples = [data.load_sample(root, i) for i in manifest.ids]
    return root, json.loads((root / "manifest.json").read_text()), manifest, samples


_MANIFEST_KEYS = ["ids", "split", "variant", "seed", "rgb_dims", "ir_factor"]


@settings(max_examples=150, deadline=None)
@given(choice=st.sampled_from(["drop", "replace", "split", "document", "bytes"]),
       key=st.sampled_from(_MANIFEST_KEYS), value=_JSON, noise=st.binary(max_size=60))
@example(choice="replace", key="seed", value=3, noise=b"")  # these two decode
@example(choice="split", key="ids", value="val", noise=b"")
def test_dataset_manifest_decodes_or_manifest_error(dataset, choice, key, value, noise):
    root, doc, _, _ = dataset
    doc = {k: v for k, v in doc.items() if choice != "drop" or k != key}
    if choice == "replace":
        doc[key] = value
    elif choice == "split":  # one id's entry drawn
        doc["split"] = {**doc["split"], doc["ids"][0]: value}
    path = root / "manifest.json"
    text = json.dumps(value if choice == "document" else doc)
    path.write_bytes(noise if choice == "bytes" else text.encode())
    try:
        manifest = data.read_manifest(root)
    except data.ManifestError as e:
        assert str(path) in str(e)
        return
    assert manifest.ids and all(manifest.split[i] in ("train", "val") for i in manifest.ids)
    assert isinstance(manifest.variant, str) and type(manifest.seed) is int


_RUN_DOC = {"data_root": "d", "variant": "P_RGB", "patch": 24,
            "model": {"embed_dims": [4, 8, 16, 32], "state_dim": 2, "decoder_dim": 4},
            "train": {"total_iters": 4, "batch_size": 2, "warmup_iters": 1, "seed": 0}}
_VALUE = st.one_of(_JSON, st.integers(-3, 10**6), st.lists(st.integers(-1, 40), max_size=5),
                   st.sampled_from(data.VARIANTS))
_TOP_KEYS = [*cli._RUN_FIELDS, "foo"]
_DOC = st.dictionaries(st.sampled_from(_TOP_KEYS), _VALUE, max_size=len(_TOP_KEYS))


# one field of a section, a whole section (key None), a top-level value
# (section None) or a whole document (both None)
_FIELDS = ([("model", f.name) for f in dataclasses.fields(segnet.ModelConfig)]
           + [("train", f.name) for f in dataclasses.fields(train.TrainConfig)]
           + [("model", None), ("train", None)]
           + [(None, key) for key in _TOP_KEYS] + [(None, None)])


def _builds_or_usage_error(doc, manifest, samples, read=cli.validate_run_config):
    """read(doc) then _make_sources: each builds batches or raises UsageError.
    Only a drawn sr_checkpoint may instead fail to load, as CheckpointError
    naming it."""
    try:
        doc = read(doc)
        cfg, tcfg, source = cli._make_sources(doc, manifest, samples)
    except cli.UsageError:
        return
    except train.CheckpointError as e:
        assert str(doc["sr_checkpoint"]) in str(e)
        return
    xs, ts, ids = source("train").batch(0)
    assert xs.shape[1] == cfg.in_channels and len(xs) == len(ts) == len(ids) <= tcfg.batch_size


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_VALUE, whole=_DOC)
@example(field=("model", "state_dim"), value=2, whole={})  # the valid doc builds
def test_run_config_values_build_or_usage_error(dataset, field, value, whole):
    _, _, manifest, samples = dataset
    section, key = field
    doc = json.loads(json.dumps(_RUN_DOC))
    if field == (None, None):
        doc = whole
    elif section is None:
        doc[key] = value
    elif key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    _builds_or_usage_error(doc, manifest, samples)


@settings(max_examples=150, deadline=None)
@given(choice=st.sampled_from(["mutated", "noise"]), noise=st.binary(max_size=80),
       edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=6),
       keep=st.floats(0.0, 1.0))
@example(choice="mutated", noise=b"", edits=[], keep=1.0)  # the valid file builds
def test_run_config_bytes_load_or_usage_error(dataset, choice, noise, edits, keep):
    root, _, manifest, samples = dataset
    buf = bytearray(json.dumps({**_RUN_DOC, "data_root": str(root)}).encode())
    for pos, value in edits:
        buf[pos % len(buf)] = value
    path = root / "run.json"
    path.write_bytes(bytes(buf[: round(keep * len(buf))]) if choice == "mutated" else noise)
    _builds_or_usage_error(path, manifest, samples, read=cli.load_run_config)
