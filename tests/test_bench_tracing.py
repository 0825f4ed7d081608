"""The benchmark's traced run swaps cosmix functions by module attribute.

Deleting or renaming a name it patches would break
``bench/run.py --trace 1`` without failing any other test; these tests
enter and leave ``tracing.instrumented`` so that such a change fails here.
The tracer keeps one span stack for all threads, so training that moves
traced work onto a second thread also fails here.
"""
from pathlib import Path

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix import dataset as ds
from cosmix import model as md
from cosmix import trainer as tr

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (ad, md, tr)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def _attributes():
    return [dict(vars(m)) for m in MODULES]


def test_instrumented_restores_every_patched_attribute(tracing):
    before = _attributes()
    with tracing.instrumented(tracing.Tracer()):
        during = _attributes()
    after = _attributes()
    patched = {(m.__name__, name) for m, b, d in zip(MODULES, before, during)
               for name in b if d[name] is not b[name]}
    assert {("cosmix.trainer", "compose_batch"), ("cosmix.trainer", "log_fbank_cached"),
            ("cosmix.autodiff", "sub"), ("cosmix.autodiff", "channel_bias_add"),
            ("cosmix.autodiff", "rowsum")} <= patched
    for module, b, a in zip(MODULES, before, after):
        assert a.keys() == b.keys(), module.__name__
        changed = [name for name in b if a[name] is not b[name]]
        assert changed == [], (module.__name__, changed)


def test_traced_forward_records_spans(tracing):
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        params = tr.init_params(md.ModelConfig(channels=(2, 3)))
        tr.encoder_forward(np.zeros((1,) + md.FEAT_SHAPE, dtype=np.float32), params)
    names = {span.name for span in tracer.spans}
    assert {"model.encoder_forward.eval", "autodiff.conv2d.enc0.fwd",
            "autodiff.conv2d.enc1.fwd"} <= names


def test_traced_cosmix_epoch_closes_every_span_and_matches_untraced(tracing, tmp_path):
    manifest = ds.synth_dataset(tmp_path, n_per_class=20, noise_level=0.1, seed=7)

    def run():
        return tr.train(tr.TrainConfig(batch_size=16, epochs=1, seed=3), manifest,
                        mode="cosmix", model_cfg=md.ModelConfig(channels=(2, 3), init_seed=1),
                        clock=lambda: 0.0)

    plain = run()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = run()
    assert not tracer._open
    assert all(span.end is not None for span in tracer.spans)
    names = {span.name for span in tracer.spans}
    assert {"trainer.compose_batch", "features.log_fbank_batch", "trainer.total_loss",
            "model.encoder_forward.target", "autodiff.backward", "trainer.adam_step",
            "trainer.evaluate"} <= names
    assert traced.history == plain.history
    assert traced.batch_losses == plain.batch_losses
    plain_values = plain.params.copy_values()
    for name, values in traced.params.copy_values().items():
        assert np.array_equal(values, plain_values[name]), name
