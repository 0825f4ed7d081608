import contextvars
import threading
import time
import weakref

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix.errors import ContractError, NumericError, ShapeError


def naive_conv2d(x, k, stride, padding):
    """Quadruple-loop reference convolution, float64."""
    b, c, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, o, ho, wo))
    for bi in range(b):
        for oi in range(o):
            for hi in range(ho):
                for wi in range(wo):
                    patch = xp[bi, :, hi * stride:hi * stride + kh, wi * stride:wi * stride + kw]
                    out[bi, oi, hi, wi] = (patch * k[oi]).sum()
    return out


def fd_for(build, arrays, h=1e-6):
    """Finite-difference helper over explicit leaf arrays."""
    params = ad.ParameterSet()
    for name, arr in arrays.items():
        params.add(name, arr)
    return ad.finite_difference_check(lambda: build(params), params, h=h)


class TestDense:
    def test_identity_weights(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = ad.dense(x, ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.values, x.values)

    def test_arithmetic(self):
        out = ad.dense(ad.Tensor([[1.0, 2.0]]),
                       ad.Tensor([[1.0, 0.0], [0.0, 1.0]]),
                       ad.Tensor([3.0, 3.0]))
        np.testing.assert_array_equal(out.values, [[4.0, 5.0]])

    def test_shape_error_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        arrays = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        err = fd_for(lambda p: ad.sum_all(ad.dense(p["x"], p["w"], p["b"])), arrays)
        assert err < 1e-6


def nhwc(a):
    return a.transpose(0, 2, 3, 1)


BLOCK = 4  # clips per row block in the tests below
# [H, W, C] input and output channels whose 4-clip blocks do more than
# autodiff.MIN_MADDS multiply-adds at every (stride, padding) below
POOLED_SHAPE = ((24, 24, 16), 32)


def pooled(monkeypatch, workers=1):
    monkeypatch.setattr(ad, "POOL_WORKERS", workers)
    monkeypatch.setattr(ad, "BLOCK_CLIPS", BLOCK)


def spy_share(monkeypatch):
    """Record (function name, span) for every span handed to the pool."""
    share, spans = ad._share, []

    def spy(fn, fn_spans):
        fn_spans = list(fn_spans)
        spans.extend((fn.__name__, span) for span in fn_spans)
        return share(fn, fn_spans)
    monkeypatch.setattr(ad, "_share", spy)
    return spans


def conv_and_grads(x, k, b, weights, stride=2, padding=1):
    """conv2d's output and the x, k and b gradients of sum(out * weights)."""
    xt, kt, bt = (ad.Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
    with ad.Tape():
        out = ad.conv2d(xt, kt, bt, stride=stride, padding=padding)
        ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(weights))))
    return out.values, xt.grad, kt.grad, bt.grad


def conv_case(rng, bsz, hwc, cout, stride, padding, dtype):
    h, w, cin = hwc
    x = rng.normal(size=(bsz, h, w, cin)).astype(dtype)
    k = rng.normal(size=(cout, cin, 3, 3)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    ho, wo = (h + 2 * padding - 3) // stride + 1, (w + 2 * padding - 3) // stride + 1
    return x, k, b, rng.normal(size=(bsz, ho, wo, cout)).astype(dtype)


class TestConv2d:
    def test_1x1_identity(self):
        x = np.random.default_rng(2).normal(size=(2, 4, 5, 3))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.values, np.maximum(x, 0), atol=1e-12)

    def test_all_ones_counting(self):
        out = ad.conv2d(ad.Tensor(np.ones((1, 5, 5, 1))), ad.Tensor(np.ones((1, 1, 3, 3))),
                        ad.Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.values, np.full((1, 3, 3, 1), 9.0))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (1, 1)])
    def test_matches_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 7, 6))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv2d(ad.Tensor(nhwc(x)), ad.Tensor(k), ad.Tensor(b),
                        stride=stride, padding=padding)
        expected = np.maximum(naive_conv2d(x, k, stride, padding) + b[None, :, None, None], 0)
        np.testing.assert_allclose(out.values, nhwc(expected), atol=1e-10)

    def test_output_spatial_size(self):
        out = ad.conv2d(ad.Tensor(np.zeros((1, 98, 64, 1))), ad.Tensor(np.zeros((8, 1, 3, 3))),
                        ad.Tensor(np.zeros(8)), stride=2, padding=1)
        assert out.values.shape == (1, 49, 32, 8)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 2, 1))), ad.Tensor(np.zeros((1, 1, 3, 3))),
                      ad.Tensor(np.zeros(1)))

    def test_preactivation_overflow_raises_before_relu(self):
        # x * k overflows to -inf, which the relu would clamp to 0
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="conv2d"):
            ad.conv2d(ad.Tensor(np.full((1, 3, 3, 1), 1e200)),
                      ad.Tensor(np.full((1, 1, 3, 3), -1e200)), ad.Tensor(np.zeros(1)))

    @pytest.mark.parametrize("x_shape,k_shape", [((2, 2, 5, 4), (3, 2, 3, 3)),
                                                 ((2, 1, 5, 7), (3, 1, 3, 3))],
                             ids=["c2", "c1-odd"])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (1, 1)])
    def test_gradients_match_finite_differences(self, stride, padding, x_shape, k_shape):
        rng = np.random.default_rng(4)
        x, k, b = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
        conv = naive_conv2d(x, k, stride, padding)
        # keep the relu kink far outside the finite-difference step: shift
        # the bias of any channel with a pre-activation near zero
        b += 0.1 * (np.abs(conv + b[None, :, None, None]).min(axis=(0, 2, 3)) < 1e-3)
        assert np.abs(conv + b[None, :, None, None]).min() >= 1e-3
        # a random weight per output makes the upstream gradient non-uniform,
        # so a misplaced index in the gather or the col2im scatter shows
        weights = ad.Tensor(rng.normal(size=nhwc(conv).shape))
        # the loss is linear in each coordinate between kinks, so the step
        # adds no truncation error; h=1e-5 keeps the rounding error of the
        # difference below the tolerance on the smallest gradients
        err = fd_for(lambda p: ad.sum_all(ad.mul(
            ad.conv2d(p["x"], p["k"], p["b"], stride=stride, padding=padding), weights)),
            {"x": nhwc(x).copy(), "k": k, "b": b}, h=1e-5)
        assert err < 1e-6

    # pooled row blocks give the bits of one inline whole-batch call

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (1, 1)])
    @pytest.mark.parametrize("bsz", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_pooled_blocks_match_one_inline_block(self, monkeypatch, bsz, stride, padding,
                                                  dtype):
        case = conv_case(np.random.default_rng(bsz), bsz, *POOLED_SHAPE, stride, padding,
                         dtype)
        pooled(monkeypatch)
        spans = spy_share(monkeypatch)
        blocks = conv_and_grads(*case, stride=stride, padding=padding)
        # the last block takes the remainder: 3 * BLOCK + 5 clips are 4 blocks
        n_blocks = bsz // BLOCK if bsz >= 2 * BLOCK else 0
        for name in ("forward_block", "backward_block"):
            assert [span for fn, span in spans if fn == name][-1:] == \
                ([(BLOCK * (n_blocks - 1), bsz)] if n_blocks else []), name
        pooled(monkeypatch, workers=0)
        whole = conv_and_grads(*case, stride=stride, padding=padding)
        for name, a, c in zip(("out", "x", "k", "b"), blocks, whole):
            assert a.dtype == dtype, name
            assert np.array_equal(a, c), name

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "worker", "last"])
    def test_preactivation_overflow_in_any_block_raises(self, monkeypatch, where, sign):
        # three blocks: [0, 4), [4, 8) and the remainder [8, 14); one clip's
        # products overflow to +inf, or to -inf, which the relu would clamp
        bsz = 3 * BLOCK + 2
        bad = {"first": 0, "worker": BLOCK + 1, "last": bsz - 1}[where]
        x, k, b, _ = conv_case(np.random.default_rng(9), bsz, *POOLED_SHAPE, 2, 1,
                               np.float64)
        x[bad] = 1e200
        k = np.full_like(k, sign * 1e200)
        pooled(monkeypatch)
        if where == "worker":
            def bad_block_on_worker(fn, spans):
                for lo, hi in spans:
                    if lo <= bad < hi:
                        ad._pool.submit(contextvars.copy_context().run, fn, lo,
                                        hi).result()
                    else:
                        fn(lo, hi)
            monkeypatch.setattr(ad, "_share", bad_block_on_worker)
        spans = spy_share(monkeypatch)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="non-finite forward values in op 'conv2d'"):
            ad.conv2d(ad.Tensor(x), ad.Tensor(k), ad.Tensor(b), stride=2, padding=1)
        assert [span for fn, span in spans if fn == "forward_block"] == \
            [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, bsz)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (1, 1)])
    @pytest.mark.parametrize("bsz", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_bias_and_input_gradients_match_whole_batch_formulas(self, monkeypatch, bsz,
                                                                 stride, padding, dtype):
        case = conv_case(np.random.default_rng(bsz), bsz, *POOLED_SHAPE, stride, padding,
                         dtype)
        x, k, _, weights = case
        pooled(monkeypatch)
        out, dx, _, db = conv_and_grads(*case, stride=stride, padding=padding)
        # the upstream gradient of sum(out * weights) is weights
        g4 = weights * (out > 0)
        _, ho, wo, cout = g4.shape
        h, w = x.shape[1:3]
        _, cin, kh, kw = k.shape
        # bias: one sum over the whole channels-first [B, O, Ho, Wo] map
        assert np.array_equal(db, np.ascontiguousarray(g4.transpose(0, 3, 1, 2))
                              .sum(axis=(0, 2, 3)))
        # input: every tap added into a zeroed padded map in (i, j) order,
        # then the padding cropped off
        dcols = (g4.reshape(-1, cout) @ k.transpose(0, 2, 3, 1).reshape(cout, -1)) \
            .reshape(bsz, ho, wo, kh, kw, cin)
        dxp = np.zeros((bsz, h + 2 * padding, w + 2 * padding, cin), dtype=dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += \
                    dcols[:, :, :, i, j]
        assert dx.dtype == db.dtype == dtype
        assert np.array_equal(dx, dxp[:, padding:padding + h, padding:padding + w])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz,hwc,cout", [(33, (98, 64, 1), 32), (17, (13, 8, 64), 128)],
                             ids=["by-channel", "by-column"])
    def test_weight_gradient_halves_match_whole_product(self, monkeypatch, bsz, hwc, cout,
                                                        dtype):
        # encoder blocks 0 and 3: each half is large enough to be split
        case = conv_case(np.random.default_rng(5), bsz, hwc, cout, 2, 1, dtype)
        pooled(monkeypatch, workers=0)
        whole = conv_and_grads(*case)
        pooled(monkeypatch)
        spans = spy_share(monkeypatch)
        halves = conv_and_grads(*case)
        assert len([span for fn, span in spans if fn == "weight_part"]) == 2
        for name, a, c in zip(("out", "x", "k", "b"), halves, whole):
            assert np.array_equal(a, c), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradient_one_output_channel_stays_whole(self, monkeypatch, dtype):
        # one output channel makes the weight product one row wide: its
        # halves would go to numpy's gemv, so the product stays whole
        bsz, hwc = 64, (16, 8, 64)
        case = conv_case(np.random.default_rng(10), bsz, hwc, 1, 1, 1, dtype)
        rows, width = 16 * 8, 9 * 64
        assert bsz * rows * (width // 2) >= ad.MIN_MADDS  # large enough to halve
        pooled(monkeypatch, workers=0)
        whole = conv_and_grads(*case, stride=1, padding=1)
        pooled(monkeypatch)
        spans = spy_share(monkeypatch)
        kept = conv_and_grads(*case, stride=1, padding=1)
        assert "weight_part" not in [fn for fn, _ in spans]
        for name, a, c in zip(("out", "x", "k", "b"), kept, whole):
            assert np.array_equal(a, c), name

    def test_worker_error_surfaces_in_caller(self, monkeypatch):
        pooled(monkeypatch)
        caller, share = threading.current_thread(), ad._share
        worker_started = threading.Event()

        def failing_on_worker(fn, spans):
            def block(lo, hi):
                if threading.current_thread() is caller:
                    assert worker_started.wait(10), "the pool worker took no block"
                    fn(lo, hi)
                else:
                    worker_started.set()
                    raise RuntimeError(f"block {lo}:{hi} failed on the worker")
            return share(block, spans)
        monkeypatch.setattr(ad, "_share", failing_on_worker)
        case = conv_case(np.random.default_rng(6), 3 * BLOCK, *POOLED_SHAPE, 2, 1, np.float32)
        with pytest.raises(RuntimeError, match=r"block \d+:\d+ failed on the worker"):
            ad.conv2d(*(ad.Tensor(a) for a in case[:3]), stride=2, padding=1)

    def test_no_block_runs_after_return(self, monkeypatch, tmp_path):
        from cosmix import dataset as ds
        from cosmix import features as ft
        from cosmix import model as md
        from cosmix import trainer as tr

        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        caller, share = threading.current_thread(), ad._share
        lock = threading.Lock()
        state = {"running": 0, "worker_blocks": 0}

        def tracked(fn, spans):
            worker_started = threading.Event()

            def block(lo, hi):
                with lock:
                    state["running"] += 1
                try:
                    if threading.current_thread() is caller:
                        assert worker_started.wait(10), "the pool worker took no block"
                    else:
                        worker_started.set()
                        time.sleep(0.002)  # the worker's blocks finish last
                        with lock:
                            state["worker_blocks"] += 1
                    fn(lo, hi)
                finally:
                    with lock:
                        state["running"] -= 1
            return share(block, spans)
        monkeypatch.setattr(ad, "_share", tracked)

        def returned(what):
            assert state["running"] == 0, f"a block still runs after {what} returned"

        case = conv_case(np.random.default_rng(7), 3 * ad.BLOCK_CLIPS, *POOLED_SHAPE, 2, 1,
                         np.float32)
        ad.conv2d(*(ad.Tensor(a) for a in case[:3]), stride=2, padding=1)
        returned("conv2d")
        conv_and_grads(*case)
        returned("backward")
        ft.log_fbank_batch(np.random.default_rng(8).normal(size=(3 * ad.BLOCK_CLIPS, 16000)))
        returned("log_fbank_batch")
        manifest = ds.synth_dataset(tmp_path / "corpus", n_per_class=20, noise_level=0.1,
                                    seed=7)
        # a small encoder whose conv blocks pass MIN_MADDS at 8-clip blocks
        model_cfg = md.ModelConfig(channels=(24, 8), init_seed=1)
        result = tr.train(tr.TrainConfig(batch_size=16, epochs=1, seed=3), manifest,
                          mode="cosmix", model_cfg=model_cfg, clock=lambda: 0.0)
        returned("train")
        store = tr.ClipStore(manifest)
        tr.compose_batch(store, list(range(16)), tr.TrainConfig(batch_size=16, seed=3))
        returned("compose_batch")
        tr.evaluate(store, "test", result.params)  # cold: no feature is cached yet
        returned("evaluate")
        tr.export_embeddings(store, "test", result.params, tmp_path / "emb.csv")
        returned("export_embeddings")
        assert state["worker_blocks"] > 0


class TestPointwise:
    def test_relu_values(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_pool_of_constant(self):
        out = ad.global_avg_pool(ad.Tensor(np.full((2, 4, 5, 3), 7.5)))
        np.testing.assert_array_equal(out.values, np.full((2, 3), 7.5))

    def test_relu_pool_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 4, 3))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the relu kink
        err = fd_for(lambda p: ad.sum_all(ad.global_avg_pool(ad.relu(p["x"]))), {"x": x})
        assert err < 1e-6

    def test_channel_bias_gradients(self):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(2, 3, 4, 4)), "b": rng.normal(size=3)}
        err = fd_for(lambda p: ad.sum_all(ad.channel_bias_add(p["x"], p["b"])), arrays)
        assert err < 1e-6


class TestNormalize:
    def test_three_four_five(self):
        out = ad.l2_normalize(ad.Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(ad.l2_normalize(ad.Tensor(v)).values, v, atol=1e-12)

    def test_zero_row_floored_not_nan(self):
        out = ad.l2_normalize(ad.Tensor(np.zeros((1, 3))))
        assert np.all(np.isfinite(out.values))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        err = fd_for(lambda p: ad.sum_all(ad.mul(ad.l2_normalize(p["x"]), p["c"])),
                     {"x": rng.normal(size=(3, 4)), "c": rng.normal(size=(3, 4))})
        assert err < 1e-6


class TestCosine:
    def test_equal_rows_give_one(self):
        a = np.random.default_rng(8).normal(size=(4, 6))
        out = ad.cosine_similarity(ad.Tensor(a), ad.Tensor(a.copy()))
        np.testing.assert_allclose(out.values, np.ones(4), atol=1e-12)

    def test_orthogonal_rows_give_zero(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, -3.0]])
        out = ad.cosine_similarity(ad.Tensor(a), ad.Tensor(b))
        np.testing.assert_allclose(out.values, np.zeros(2), atol=1e-12)

    def test_negated_rows_give_minus_one(self):
        a = np.random.default_rng(9).normal(size=(3, 5))
        out = ad.cosine_similarity(ad.Tensor(a), ad.Tensor(-a))
        np.testing.assert_allclose(out.values, -np.ones(3), atol=1e-12)

    def test_unit_vector_mse_identity(self):
        # ||u - v||^2 == 2 + 2 * (-cos(u, v)) for unit u, v
        rng = np.random.default_rng(10)
        u = rng.normal(size=(100, 16))
        v = rng.normal(size=(100, 16))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        neg_cos = -ad.cosine_similarity(ad.Tensor(u), ad.Tensor(v)).values
        sq = ((u - v) ** 2).sum(axis=1)
        np.testing.assert_allclose(sq, 2 + 2 * neg_cos, atol=1e-9)


class TestSoftmaxCE:
    def test_uniform_logits_ln10(self):
        rng = np.random.default_rng(11)
        target = rng.dirichlet(np.ones(10), size=4)
        out = ad.softmax_cross_entropy(ad.Tensor(np.zeros((4, 10))), ad.Tensor(target))
        np.testing.assert_allclose(out.values, np.log(10.0), atol=1e-12)

    def test_saturated_match_near_zero(self):
        logits = np.zeros((2, 10))
        logits[0, 3] = 1e6
        logits[1, 7] = 1e6
        target = np.zeros((2, 10))
        target[0, 3] = 1.0
        target[1, 7] = 1.0
        out = ad.softmax_cross_entropy(ad.Tensor(logits), ad.Tensor(target))
        assert 0 <= float(out.values) < 1e-9

    def test_rejects_off_simplex_target(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((1, 3))), ad.Tensor([[0.5, 0.2, 0.1]]))

    def test_gradient_is_softmax_minus_target(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(6, 10))
        t = rng.dirichlet(np.ones(10), size=6)
        params = ad.ParameterSet()
        zt = params.add("z", z)
        with ad.Tape():
            loss = ad.softmax_cross_entropy(zt, ad.Tensor(t))
            ad.backward(loss)
        m = z.max(axis=1, keepdims=True)
        sm = np.exp(z - m) / np.exp(z - m).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(zt.grad, (sm - t) / 6, atol=1e-12)

    def test_oracle_value(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 10))
        t = rng.dirichlet(np.ones(10), size=5)
        direct = np.mean([-(t[i] * np.log(np.exp(z[i]) / np.exp(z[i]).sum())).sum()
                          for i in range(5)])
        out = ad.softmax_cross_entropy(ad.Tensor(z), ad.Tensor(t))
        np.testing.assert_allclose(float(out.values), direct, atol=1e-10)


class TestSigmoidBCE:
    def test_zero_logit_half_target(self):
        out = ad.mean_all(ad.sigmoid_bce_rowwise(ad.Tensor(np.zeros((2, 3))),
                                                 ad.Tensor(np.full((2, 3), 0.5))))
        np.testing.assert_allclose(float(out.values), np.log(2.0), atol=1e-12)

    def test_large_logit_no_overflow(self):
        out = ad.mean_all(ad.sigmoid_bce_rowwise(ad.Tensor(np.full((1, 4), 40.0)),
                                                 ad.Tensor(np.ones((1, 4)))))
        assert 0 <= float(out.values) < 1e-9

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            ad.sigmoid_bce_rowwise(ad.Tensor(np.zeros((1, 2))), ad.Tensor([[1.5, 0.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        t = rng.uniform(0.05, 0.95, size=(3, 5))
        err = fd_for(lambda p: ad.mean_all(ad.sigmoid_bce_rowwise(p["z"], ad.Tensor(t))),
                     {"z": rng.normal(size=(3, 5))}, h=1e-5)
        assert err < 1e-6


class TestStopGradient:
    def test_forward_bit_identical(self):
        x = np.random.default_rng(15).normal(size=(3, 4))
        out = ad.stop_gradient(ad.Tensor(x))
        assert np.array_equal(out.values, x)

    def test_blocks_all_ancestors(self):
        params = ad.ParameterSet()
        x = params.add("x", np.random.default_rng(16).normal(size=(3, 3)))
        params.zero_grad()
        with ad.Tape():
            loss = ad.sum_all(ad.stop_gradient(ad.mul(x, x)))
            ad.backward(loss)
        assert x.grad is None

    def test_product_with_detached_self(self):
        # d/dx sum(x * sg(x)) == x, not 2x
        params = ad.ParameterSet()
        x = params.add("x", np.random.default_rng(17).normal(size=(4,)).reshape(1, 4))
        params.zero_grad()
        with ad.Tape():
            loss = ad.sum_all(ad.mul(x, ad.stop_gradient(x)))
            ad.backward(loss)
        np.testing.assert_allclose(x.grad, x.values, atol=1e-12)


class TestBackward:
    def test_sum_gradient_ones(self):
        params = ad.ParameterSet()
        x = params.add("x", np.arange(6.0).reshape(2, 3))
        with ad.Tape():
            ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        params = ad.ParameterSet()
        x = params.add("x", np.arange(4.0))
        with ad.Tape():
            ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.values, atol=1e-12)

    def test_shared_node_accumulates_both_paths(self):
        # y = sum(x) + sum(x) vs duplicated leaves
        params = ad.ParameterSet()
        x = params.add("x", np.arange(3.0))
        with ad.Tape():
            ad.backward(ad.add(ad.sum_all(x), ad.sum_all(x)))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_add_gives_each_parent_its_own_gradient(self):
        # add hands one upstream array to both parents; a later
        # accumulation into a.grad must not show up in b.grad
        params = ad.ParameterSet()
        a = params.add("a", np.arange(3.0))
        b = params.add("b", np.ones(3))
        w = ad.Tensor(np.array([2.0, 3.0, 4.0]))
        with ad.Tape():
            first = ad.mul(a, w)  # recorded first, so its vjp runs last
            ad.backward(ad.sum_all(ad.add(first, ad.add(a, b))))
        np.testing.assert_array_equal(b.grad, np.ones(3))
        np.testing.assert_array_equal(a.grad, 1.0 + w.values)

    def test_conv2d_first_gradients_are_not_copied(self, monkeypatch):
        # conv2d builds each of its three gradients for one parent alone,
        # so the first to reach a parent is kept as it is
        handed = {}
        accum = ad._accum

        def spy(t, g, **kwargs):
            handed.setdefault(id(t), g)
            accum(t, g, **kwargs)
        monkeypatch.setattr(ad, "_accum", spy)
        rng = np.random.default_rng(8)
        x, k, b, weights = conv_case(rng, 3, (7, 6, 3), 4, 2, 1, np.float32)
        xt, kt, bt = (ad.Tensor(v, requires_grad=True) for v in (x, k, b))
        with ad.Tape():
            out = ad.conv2d(xt, kt, bt, stride=2, padding=1)
            ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(weights))))
        for name, t in (("x", xt), ("k", kt), ("b", bt)):
            assert t.grad is handed[id(t)], name

    def test_sweep_frees_each_vjp_while_tape_lives(self):
        rng = np.random.default_rng(9)
        x, k, b, weights = conv_case(rng, 3, (7, 6, 3), 4, 2, 1, np.float32)
        xt, kt, bt = (ad.Tensor(v.copy(), requires_grad=True) for v in (x, k, b))
        with ad.Tape() as tape:
            out = ad.conv2d(xt, kt, bt, stride=2, padding=1)
            freed = weakref.ref(out._vjp)
            ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(weights))))
        assert freed() is None and out.grad is None
        _, gx, gk, gb = conv_and_grads(x, k, b, weights)
        for got, want in ((xt.grad, gx), (kt.grad, gk), (bt.grad, gb)):
            assert np.array_equal(got, want)
        assert tape.dump().splitlines()[3] == "3: conv2d shape=(3, 4, 3, 4) <- [0,1,2]"

    def test_second_sweep_of_one_graph_raises(self):
        params = ad.ParameterSet()
        x = params.add("x", np.arange(3.0))
        with ad.Tape():
            square = ad.mul(x, x)
            loss = ad.sum_all(square)
            ad.backward(loss)
            first = x.grad.copy()
            with pytest.raises(ContractError, match="graph was already swept"):
                ad.backward(loss)
            # a new loss over a swept op
            with pytest.raises(ContractError, match="'mul' was already swept"):
                ad.backward(ad.sum_all(ad.mul(square, square)))
        assert np.array_equal(x.grad, first)

    def test_leaf_scalar_loss_can_be_swept_again(self):
        params = ad.ParameterSet()
        s = params.add("s", 2.0)
        with ad.Tape():
            ad.mul(s, s)  # puts the leaf on the tape
            ad.backward(s)
            ad.backward(s)
        assert s.grad == 1.0

    def test_non_scalar_loss_rejected(self):
        with ad.Tape():
            params = ad.ParameterSet()
            x = params.add("x", np.ones(3))
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.backward(y)

    def test_untaped_tensor_never_gets_grad(self):
        c = ad.Tensor(np.ones((2, 2)))
        params = ad.ParameterSet()
        x = params.add("x", np.ones((2, 2)))
        with ad.Tape():
            ad.backward(ad.sum_all(ad.mul(x, c)))
        assert c.grad is None and c.tape_id is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_literal_raises_numeric_error(self, bad):
        with pytest.raises(NumericError, match="literal"):
            ad.Tensor(np.array([[1.0, bad]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_forward_raises_numeric_error(self):
        big = ad.Tensor(np.full((1, 1), 1e300))
        with pytest.raises(NumericError, match="mul"):
            ad.mul(big, big)  # inf

    def test_forward_deterministic(self):
        rng = np.random.default_rng(18)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        a = ad.dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).values
        bvals = ad.dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).values
        assert np.array_equal(a, bvals)

    def test_tape_dump_lists_ops(self):
        params = ad.ParameterSet()
        x = params.add("x", np.ones((2, 2)))
        with ad.Tape() as tape:
            ad.sum_all(ad.relu(x))
        text = tape.dump()
        assert "relu" in text and "sum_all" in text


class TestFiniteDifferenceHarness:
    def test_quadratic_is_exact(self):
        params = ad.ParameterSet()
        params.add("theta", np.random.default_rng(19).normal(size=(7,)))
        err = ad.finite_difference_check(
            lambda: ad.sum_all(ad.mul(params["theta"], params["theta"])), params, h=1e-5)
        assert err < 1e-9

    def test_dense_relu_ce_stack(self):
        rng = np.random.default_rng(20)
        params = ad.ParameterSet()
        params.add("w1", rng.normal(size=(6, 8)))
        params.add("b1", rng.normal(size=8))
        params.add("w2", rng.normal(size=(8, 10)))
        params.add("b2", rng.normal(size=10))
        x = ad.Tensor(rng.normal(size=(4, 6)))
        t = ad.Tensor(rng.dirichlet(np.ones(10), size=4))

        def f():
            h = ad.relu(ad.dense(x, params["w1"], params["b1"]))
            return ad.softmax_cross_entropy(ad.dense(h, params["w2"], params["b2"]), t)

        assert ad.finite_difference_check(f, params) < 1e-6

    def test_detects_corrupted_gradient(self, monkeypatch):
        monkeypatch.setenv(ad.SABOTAGE_ENV, "dense")
        rng = np.random.default_rng(21)
        params = ad.ParameterSet()
        params.add("w", rng.normal(size=(3, 2)))
        params.add("b", rng.normal(size=2))
        x = ad.Tensor(rng.normal(size=(4, 3)))
        err = ad.finite_difference_check(
            lambda: ad.sum_all(ad.mul(ad.dense(x, params["w"], params["b"]),
                                      ad.dense(x, params["w"], params["b"]))), params)
        assert err > 1e-2

    def test_rejects_nondeterministic_f(self):
        params = ad.ParameterSet()
        params.add("x", np.ones(2))
        state = {"n": 0}

        def f():
            state["n"] += 1
            return ad.sum_all(ad.scale(params["x"], state["n"]))

        with pytest.raises(ContractError):
            ad.finite_difference_check(f, params)

    def test_subsamples_large_models(self):
        rng = np.random.default_rng(22)
        params = ad.ParameterSet()
        params.add("w", rng.normal(size=(40, 30)))  # 1200 coords > cap
        err = ad.finite_difference_check(
            lambda: ad.sum_all(ad.mul(params["w"], params["w"])), params)
        assert err < 1e-6
