import struct

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix import model as md
from cosmix import runconfig as rc
from cosmix.errors import CheckpointError, ConfigError, ShapeError

TINY = md.ModelConfig(channels=(2, 3), init_seed=5)

# ModelConfig().to_text() as checkpoints wrote it before they switched to
# the run-config format: unprefixed keys, Python booleans, retired fields
OLD_CONFIG_TEXT = ("channels = 32,64,64,128\nkernel_size = 3\nstride = 2\n"
                   "proj_hidden = 128\nproj_two_layer = True\nn_classes = 10\n"
                   "proj_dim = 128\ninit_seed = 0\n")


def _with_config_text(raw, text):
    """Checkpoint bytes with the config string replaced by ``text``."""
    old_len = struct.unpack("<I", raw[8:12])[0]
    new = text.encode("utf-8")
    return raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + old_len:]


class TestInit:
    def test_same_seed_bit_identical(self):
        a = md.init_params(md.ModelConfig(init_seed=3))
        b = md.init_params(md.ModelConfig(init_seed=3))
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name].values, b[name].values)

    def test_different_seed_differs(self):
        a = md.init_params(md.ModelConfig(init_seed=3))
        b = md.init_params(md.ModelConfig(init_seed=4))
        assert not np.array_equal(a["enc0.w"].values, b["enc0.w"].values)

    def test_biases_all_zero(self):
        params = md.init_params(md.ModelConfig())
        for name, t in params.items():
            if ".b" in name:
                assert np.all(t.values == 0)

    def test_reference_inference_count_near_100k(self):
        params = md.init_params(md.ModelConfig())
        n = md.inference_param_count(params)
        assert 80_000 <= n <= 150_000

    def test_projector_output_is_128_for_every_config(self):
        for cfg in (md.ModelConfig(), TINY):
            params = md.init_params(cfg)
            emb = ad.Tensor(np.random.default_rng(0).normal(size=(2, cfg.embed_dim)))
            assert md.projector_forward(emb, params).values.shape == (2, 128)

    def test_rejects_wrong_proj_dim(self):
        with pytest.raises(ConfigError, match="model_proj_dim"):
            rc.parse_config("model_proj_dim = 64\n")


class TestEncoder:
    def test_zero_input_finite(self):
        params = md.init_params(TINY)
        out = md.encoder_forward(ad.Tensor(np.zeros((1, 98, 64))), params)
        assert np.all(np.isfinite(out.values))

    @pytest.mark.parametrize("b", [1, 7])
    def test_output_shape(self, b):
        params = md.init_params(TINY)
        out = md.encoder_forward(ad.Tensor(np.zeros((b, 98, 64))), params)
        assert out.values.shape == (b, TINY.embed_dim)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        params = md.init_params(TINY)
        x = rng.normal(size=(5, 98, 64))
        perm = rng.permutation(5)
        out = md.encoder_forward(ad.Tensor(x), params).values
        out_p = md.encoder_forward(ad.Tensor(x[perm]), params).values
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        params = md.init_params(TINY)
        x = rng.normal(size=(3, 98, 64))
        a = md.encoder_forward(ad.Tensor(x), params).values
        b = md.encoder_forward(ad.Tensor(x), params).values
        np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_shape(self):
        params = md.init_params(TINY)
        with pytest.raises(ShapeError):
            md.encoder_forward(ad.Tensor(np.zeros((1, 50, 64))), params)

    def test_one_taped_op_per_block(self):
        params = md.init_params(TINY)
        with ad.Tape() as tape:
            md.encoder_forward(ad.Tensor(np.zeros((2, 98, 64))), params)
        ops = [n.op for n in tape.nodes]
        assert ops.count("conv2d") == len(TINY.channels)
        assert "channel_bias_add" not in ops and "relu" not in ops


class TestHeads:
    def test_classifier_shape_and_zero_input(self):
        params = md.init_params(TINY)
        out = md.classifier_forward(ad.Tensor(np.zeros((4, TINY.embed_dim))), params)
        assert out.values.shape == (4, 10)
        np.testing.assert_allclose(out.values, np.tile(params["cls.b"].values, (4, 1)),
                                   atol=1e-12)

    def test_gradient_reaches_encoder_through_classifier(self):
        rng = np.random.default_rng(3)
        params = md.init_params(TINY, dtype=np.float64)
        x = ad.Tensor(rng.normal(size=(2, 98, 64)))
        params.zero_grad()
        with ad.Tape():
            emb = md.encoder_forward(x, params)
            loss = ad.sum_all(md.classifier_forward(emb, params))
            ad.backward(loss)
        assert params["enc0.w"].grad is not None
        assert np.abs(params["enc0.w"].grad).max() > 0

    def test_projection_depends_on_encoder_params(self):
        rng = np.random.default_rng(4)
        params = md.init_params(TINY, dtype=np.float64)
        x = ad.Tensor(rng.normal(size=(2, 98, 64)))
        before = md.projector_forward(md.encoder_forward(x, params), params).values.copy()
        params["enc1.w"].values[0, 0, 0, 0] += 0.5
        after = md.projector_forward(md.encoder_forward(x, params), params).values
        assert not np.allclose(before, after)

    def test_zero_embedding_projector_bias_driven(self):
        params = md.init_params(TINY)
        out = md.projector_forward(ad.Tensor(np.zeros((3, TINY.embed_dim))), params)
        assert out.values.shape == (3, 128)
        np.testing.assert_array_equal(out.values[0], out.values[1])


class TestCheckpoint:
    def _ckpt(self, config=TINY):
        params = md.init_params(config)
        return md.Checkpoint(config=config, parameters=params.copy_values(),
                             epoch=7, rng_state=b"\x01\x02seed",
                             metrics_tail={"val_acc": 0.5})

    @pytest.mark.parametrize("config", [TINY, md.ModelConfig(channels=(8, 16, 4),
                                                             init_seed=9)],
                             ids=["tiny", "three-block"])
    def test_round_trip_bit_exact(self, tmp_path, config):
        path = tmp_path / "model.ckpt"
        ckpt = self._ckpt(config)
        md.save_checkpoint(path, ckpt)
        back = md.load_checkpoint(path)
        assert back.config == config
        assert back.epoch == 7
        assert back.rng_state == b"\x01\x02seed"
        assert back.metrics_tail == {"val_acc": 0.5}
        assert set(back.parameters) == set(ckpt.parameters)
        for name, values in ckpt.parameters.items():
            np.testing.assert_array_equal(back.parameters[name],
                                          np.asarray(values, dtype=np.float32))

    def test_config_text_is_run_config_format(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        text = rc.format_model_config(TINY).encode("utf-8")
        assert path.read_bytes()[8:12 + len(text)] == struct.pack("<I", len(text)) + text

    def test_old_config_text_loads(self, tmp_path):
        path = tmp_path / "old.ckpt"
        md.save_checkpoint(path, self._ckpt(md.ModelConfig()))
        path.write_bytes(_with_config_text(path.read_bytes(), OLD_CONFIG_TEXT))
        assert md.load_checkpoint(path).config == md.ModelConfig()

    @pytest.mark.parametrize("key,value", [("kernel_size", "5"), ("stride", "1"),
                                           ("n_classes", "12"), ("proj_dim", "64"),
                                           ("proj_hidden", "64"),
                                           ("proj_two_layer", "False")])
    def test_retired_key_at_other_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "old.ckpt"
        md.save_checkpoint(path, self._ckpt(md.ModelConfig()))
        text = "".join(f"{key} = {value}\n" if line.startswith(key + " ") else line + "\n"
                       for line in OLD_CONFIG_TEXT.splitlines())
        path.write_bytes(_with_config_text(path.read_bytes(), text))
        with pytest.raises(CheckpointError) as err:
            md.load_checkpoint(path)
        assert str(path) in str(err.value) and key in str(err.value)

    def test_config_text_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        raw = path.read_bytes()
        n = struct.unpack("<I", raw[8:12])[0]
        path.write_bytes(raw[:12] + b"\xff" * n + raw[12 + n:])
        with pytest.raises(CheckpointError, match="corrupt text field") as err:
            md.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_metrics_tail_not_json_names_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        raw = path.read_bytes()
        tail = b'{"val_acc": 0.5}'
        assert raw.count(tail) == 1
        path.write_bytes(raw.replace(tail, b'{"val_acc"; 0.5}'))
        with pytest.raises(CheckpointError, match="corrupt text field") as err:
            md.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_magic_present(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        assert path.read_bytes()[:4] == b"CMX1"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        raw = path.read_bytes()
        for cut in (3, 10, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                md.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            md.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, self._ckpt())
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            md.load_checkpoint(path)
