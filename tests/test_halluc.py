import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from fuzz import damaged
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import unit_chain_rows, unit_outputs
from videos import as_arrays

from momhal import halluc
from momhal.fusion import (
    BETA_BRACKET,
    HAF_ID,
    STREAM_ORDER,
    Bracket,
    FusionSpec,
    effective_coefficients,
    golden_step,
)
from momhal.halluc import (
    Model,
    PredNet,
    SyntheticVideo,
    TrainConfig,
    TrainingDivergedError,
    VideoArrays,
    accuracy,
    beta_objective,
    evaluate,
    infer,
    init_model,
    load_checkpoint,
    metrics_to_csv,
    objective,
    predict_scores,
    save_checkpoint,
    train,
)
from momhal.halluc import _forward, _loss_and_grads, _losses, _pool, _sgd, _Units
from momhal.pn import EPSILON
from momhal.sketch import CountSketch, SketchStack, derive_stream_seed, sketch_new

B = 5   # the backbone width of the small models


def chain(model, z):
    """The unit chain of every unit of ``model`` on the rows of ``z``."""
    return _Units(model, 0, len(model.weight)).chain(z)


def small_cfg(**kw):
    base = dict(seed=1, pre_sketch_dim=7, sketch_dim=4,
                streams=("fv1", "det1", "sal1"), eta=4.0,
                epochs=3, batch_size=4, val_fraction=0.25)
    base.update(kw)
    return TrainConfig(**base)


def make_batch(rng, cfg, n=4, n_classes=3, b=B):
    return [
        SyntheticVideo(
            rng.normal(size=(b, 7)),
            {s: rng.normal(size=cfg.sketch_dim) for s in cfg.streams},
            int(rng.integers(0, n_classes)),
        )
        for _ in range(n)
    ]


class TestStreamForward:
    def test_zero_input_zero_bias(self):
        model = init_model(small_cfg(), 3, B)   # every bias starts at zero
        _, _, pres, outs = chain(model, np.zeros((1, model.weight.shape[2])))
        np.testing.assert_array_equal(pres, 0.0)
        np.testing.assert_array_equal(outs, 0.0)

    def test_doubling_weights_is_not_linear(self):
        rng = np.random.default_rng(2)
        model = init_model(small_cfg(), 3, B)
        model.weight[...] = rng.normal(size=model.weight.shape)
        x = rng.normal(size=(model.weight.shape[2], 7))
        a = infer(model, x)[1]
        model.weight *= 2.0
        b = infer(model, x)[1]
        for name in model.streams:
            assert not np.allclose(b[name], 2 * a[name]), name

    def test_permutation_sketch_passthrough(self):
        rng = np.random.default_rng(3)
        perm = np.array([2, 3, 1], dtype=np.uint32)
        sk = CountSketch(3, 3, perm, np.ones(3, dtype=np.int8), 0)
        model = init_model(small_cfg(pre_sketch_dim=3, sketch_dim=3), 3, B)
        model = replace(model, sketches=SketchStack([sk] * len(model.weight)))
        model.bias[...] = rng.normal(size=model.bias.shape)
        _, _, pres, outs = chain(model, rng.normal(size=(1, model.weight.shape[2])))
        for pre, out in zip(pres, outs):
            assert sorted(out[0].tolist()) == sorted(pre[0].tolist())

    def test_shape_validation(self):
        model = init_model(small_cfg(), 3, B)   # 5 -> 7 -> 4, four units
        with pytest.raises(ValueError):
            infer(model, np.zeros((6, 7)))
        for units, d, d_prime in ((4, 5, 4), (4, 7, 5), (3, 7, 4)):
            with pytest.raises(ValueError, match="count sketches"):
                replace(model, sketches=SketchStack([sketch_new(d, d_prime, 0)] * units))


class TestObjective:
    def test_alpha_zero_is_pure_class_loss(self):
        cfg = small_cfg(alpha=0.0)
        model = init_model(cfg, 3, B)
        batch = make_batch(np.random.default_rng(5), cfg)
        loss, per_mse, class_loss = objective(model, as_arrays(batch, cfg))
        assert loss == class_loss
        assert all(v > 0 for v in per_mse.values())

    def test_perfect_streams_zero_mse(self):
        cfg = small_cfg()
        model = init_model(cfg, 3, B)
        rng = np.random.default_rng(6)
        batch = make_batch(rng, cfg)
        # inject the model's own outputs as targets
        outs = unit_outputs(model, [video.backbone_features for video in batch])
        for name in model.streams:
            for video, out in zip(batch, outs[name]):
                video.ground_truth[name] = out
        _, per_mse, _ = objective(model, as_arrays(batch, cfg))
        assert all(v == pytest.approx(0.0, abs=1e-18) for v in per_mse.values())

    def test_decomposition_identity(self):
        cfg = small_cfg(alpha=1.7)
        model = init_model(cfg, 3, B)
        batch = make_batch(np.random.default_rng(7), cfg)
        loss, per_mse, class_loss = objective(model, as_arrays(batch, cfg))
        assert loss == (cfg.alpha / len(model.streams)) * sum(per_mse.values()) + class_loss

    def test_per_stream_mse_is_numpys_mean(self):
        cfg = small_cfg()
        model = init_model(cfg, 3, B)
        rng = np.random.default_rng(19)
        for n in (1, 7, 32, 191):
            scale = 10.0 ** rng.uniform(-5, 5, size=(len(cfg.streams), 1))
            sq = rng.random((len(cfg.streams), n)) * scale
            per_mse = _losses(model, sq, np.zeros((n, 3)), np.zeros(n, dtype=int))[1]
            assert list(per_mse.values()) == [float(row.mean()) for row in sq]

    def test_targets_of_other_streams_are_refused(self):
        cfg, other = small_cfg(), small_cfg(streams=("fv2", "det2", "sal2"))
        model = init_model(cfg, 3, B)
        data = as_arrays(make_batch(np.random.default_rng(9), other), other)
        message = re.escape("targets of streams ('fv2', 'det2', 'sal2'), "
                            "but the model has ('fv1', 'det1', 'sal1')")
        for call in (objective, _loss_and_grads):
            with pytest.raises(ValueError, match=message):
                call(model, data)

    def test_missing_target_error(self):
        cfg = small_cfg()
        model = init_model(cfg, 3, B)
        data = as_arrays(make_batch(np.random.default_rng(8), cfg), cfg, ("fv1", "sal1"))
        with pytest.raises(ValueError, match=re.escape("targets of streams ('fv1', 'sal1'), but")):
            objective(model, data)


def norm_rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def finite_difference_check(cfg, seed, n_classes=3):
    """Central finite differences over every parameter block."""
    rng = np.random.default_rng(seed)
    model = init_model(cfg, n_classes, B)
    batch = make_batch(rng, cfg, n=4, n_classes=n_classes)
    data = as_arrays(batch, cfg)
    _, grads = _loss_and_grads(model, data)

    def loss():
        return objective(model, data)[0]

    blocks = []
    for k in range(len(model.weight)):   # every stream unit, then the pass-through unit
        blocks.append((model.weight[k], grads.weight[k]))
        blocks.append((model.bias[k], grads.bias[k]))
    blocks.append((model.prednet.weight, grads.prednet[0]))
    blocks.append((model.prednet.bias, grads.prednet[1]))

    worst = 0.0
    for arr, grad in blocks:
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.ravel(), fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            step = 1e-5 * max(1.0, abs(orig))
            flat[i] = orig + step
            hi = loss()
            flat[i] = orig - step
            lo = loss()
            flat[i] = orig
            fd_flat[i] = (hi - lo) / (2 * step)
        worst = max(worst, norm_rel_err(fd, grad))
    return worst


class TestGradients:
    def test_finite_differences_single_label(self):
        for seed in (0, 1, 2):
            assert finite_difference_check(small_cfg(seed=seed), seed + 10) < 1e-4


class TestTrain:
    def make_dataset(self, seed=0, n=24, n_classes=3):
        cfg = small_cfg(seed=seed)
        rng = np.random.default_rng(seed + 100)
        return as_arrays(make_batch(rng, cfg, n=n, n_classes=n_classes), cfg), cfg

    def test_zero_epochs_equals_init(self):
        data, cfg = self.make_dataset()
        cfg = small_cfg(epochs=0)
        model, metrics = train(data, cfg)
        ref = init_model(cfg, 3, B)
        assert metrics == []
        np.testing.assert_array_equal(model.weight, ref.weight)
        np.testing.assert_array_equal(model.prednet.weight, ref.prednet.weight)

    def test_deterministic(self):
        data, cfg = self.make_dataset()
        m1, log1 = train(data, cfg)
        m2, log2 = train(data, cfg)
        assert log1 == log2
        np.testing.assert_array_equal(m1.weight, m2.weight)
        np.testing.assert_array_equal(m1.prednet.weight, m2.prednet.weight)

    def test_metrics_rows(self):
        data, cfg = self.make_dataset()
        _, metrics = train(data, cfg)
        assert len(metrics) == cfg.epochs
        row = metrics[0]
        for col in ("epoch", "loss", "class_loss", "val_acc", "beta_lo", "beta_hi"):
            assert col in row
        for s in cfg.streams:
            assert f"mse_{s}" in row

    def test_beta_warmup_then_search(self):
        data, cfg = self.make_dataset()
        cfg = small_cfg(epochs=13, warmup_epochs=10)
        _, metrics = train(data, cfg)
        assert metrics[9]["beta_lo"] == metrics[9]["beta_hi"] == 0.0
        w11 = metrics[10]["beta_hi"] - metrics[10]["beta_lo"]
        w12 = metrics[11]["beta_hi"] - metrics[11]["beta_lo"]
        assert w11 == pytest.approx(50.0 * 0.6180339887498949, rel=1e-9)
        assert w12 == pytest.approx(w11 * 0.6180339887498949, rel=1e-9)

    def test_divergence_detection(self):
        # the bounded SigmE outputs keep ordinary runs finite; an overflowing
        # target is what actually drives the loss to inf
        data, cfg = self.make_dataset()
        data.targets[data.streams.index("det1")] = 1e200
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            train(data, small_cfg(epochs=2, alpha=1e8))

    def test_empty_dataset(self):
        data, cfg = self.make_dataset()
        empty = VideoArrays(data.z[:0], data.targets[:, :0], data.labels[:0], data.streams)
        with pytest.raises(ValueError, match="no videos"):
            train(empty, cfg)

    def test_missing_stream_is_refused_before_any_weight(self, monkeypatch):
        data, cfg = self.make_dataset()
        monkeypatch.setattr(halluc, "init_model", None)   # refused before it is called
        lacking = replace(data, targets=data.targets[::2], streams=data.streams[::2])
        with pytest.raises(ValueError, match="no targets for stream 'det1'"):
            train(lacking, cfg)

    def test_superset_trains_the_same_bytes(self, tmp_path):
        data, cfg = self.make_dataset()
        slabs = dict(zip(data.streams, data.targets))
        rng = np.random.default_rng(3)
        slabs.update(fv2=rng.normal(size=data.targets.shape[1:]),
                     bow=rng.normal(size=data.targets.shape[1:]))
        order = ("sal1", "fv2", "det1", "bow", "fv1")   # not STREAM_ORDER
        superset = replace(data, targets=np.array([slabs[s] for s in order]), streams=order)
        runs = [train(superset, cfg), train(data, cfg)]
        for k, (model, _) in enumerate(runs):
            save_checkpoint(model, tmp_path / f"{k}.hal")
        assert runs[0][1] == runs[1][1]
        assert (tmp_path / "0.hal").read_bytes() == (tmp_path / "1.hal").read_bytes()

    def test_exact_streams_are_not_copied(self, monkeypatch):
        data, cfg = self.make_dataset()
        seen = []
        monkeypatch.setattr(halluc, "_initial_weights", lambda model, got, *idx: seen.append(got))
        train(data, replace(cfg, epochs=0))
        assert seen[0] is data

    @pytest.mark.parametrize("dims", [(5, 7, 4), (64, 128, 128)])
    def test_metrics_equal_separate_passes(self, dims):
        # The end-of-epoch pass runs over all videos and is sliced into the
        # training and validation rows; that is only sound when each row's
        # bits do not depend on how many rows the pass holds.
        b, m, d_prime = dims
        cfg = small_cfg(pre_sketch_dim=m, sketch_dim=d_prime,
                        streams=("fv1", "bow", "det1", "det2", "sal1"),
                        epochs=3, warmup_epochs=1)
        data = make_batch(np.random.default_rng(21), cfg, n=48, n_classes=4, b=b)
        model, metrics = train(as_arrays(data, cfg), cfg)
        perm = np.random.default_rng((cfg.seed, 0x5E)).permutation(len(data))
        n_val = int(round(cfg.val_fraction * len(data)))
        val = [data[i] for i in perm[:n_val]]
        training = [data[i] for i in perm[n_val:]]
        loss, per_mse, class_loss = objective(model, as_arrays(training, cfg))
        last = metrics[-1]
        assert last["loss"] == loss
        assert last["class_loss"] == class_loss
        for name in cfg.streams:
            assert last[f"mse_{name}"] == per_mse[name]
        assert last["val_acc"] == evaluate(model, val)

    @pytest.mark.parametrize("worker", [False, True], ids=["in_process", "worker"])
    def test_beta_step_reads_the_epoch_end_outputs(self, monkeypatch, worker):
        # Batches write their rows into the first slots of the buffer that an
        # epoch's end fills, so the next golden-section step must read it
        # before the first batch: it scores the k-epoch model.
        if worker and not hasattr(os, "fork"):
            pytest.skip("the worker process needs fork")
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: worker)
        cfg = small_cfg(epochs=6, warmup_epochs=0, batch_size=8, val_fraction=0.5)
        data = as_arrays(make_batch(np.random.default_rng(2), cfg, n=64, n_classes=4), cfg)
        rows = train(data, cfg)[1]
        unequal = 0
        for k in range(1, cfg.epochs):
            score = beta_objective(train(data, replace(cfg, epochs=k))[0], data)
            before, after = rows[k - 1], rows[k]
            scores = []   # at c, then at d

            def recording(beta):
                scores.append(score(beta))
                return scores[-1]

            golden_step(recording, Bracket(before["beta_lo"], before["beta_hi"] - before["beta_lo"]))
            fc, fd = scores
            assert (fc >= fd) == (after["beta_lo"] == before["beta_lo"]), f"step {k}"
            unequal += fc != fd
        assert unequal

    @pytest.mark.parametrize("worker", [False, True], ids=["in_process", "worker"])
    def test_beta_search_steps_through_golden_step(self, monkeypatch, worker):
        # The benchmark's tracer replaces the name halluc.golden_step, so
        # each search epoch must call it, in this process, on the bracket
        # that the previous epoch's metrics row reports.
        if worker and not hasattr(os, "fork"):
            pytest.skip("the worker process needs fork")
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: worker)
        calls = []

        def recorder(f, bracket):
            calls.append((bracket.lo, bracket.hi))
            return golden_step(f, bracket)

        monkeypatch.setattr(halluc, "golden_step", recorder)
        data, _ = self.make_dataset()
        rows = train(data, small_cfg(epochs=6, warmup_epochs=2))[1]
        assert calls == [BETA_BRACKET] + [(row["beta_lo"], row["beta_hi"]) for row in rows[2:5]]

    def test_split_without_training_videos(self):
        data, _ = self.make_dataset(n=8)
        with pytest.raises(ValueError, match="no training videos"):
            train(data, small_cfg(val_fraction=1.0))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("val_fraction", -0.1), ("val_fraction", 1.5),
        ("learning_rate", 0.0), ("pre_sketch_dim", 0),
        ("sketch_dim", 0), ("warmup_epochs", -1), ("seed", -1),
        ("alpha", float("nan")), ("alpha", float("inf")), ("learning_rate", float("inf")),
        ("ridge_l2", float("nan")), ("ridge_l2", -1.0), ("eta", -1.0), ("eta", 0.0),
        ("eta", float("nan")), ("eta", float("inf")), ("rho", 5.0), ("rho", 0.0),
        ("rho", float("nan")), ("seed", 2**64),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_streams_are_kept_in_stream_order(self):
        assert TrainConfig(streams=("sal1", "fv1")) == TrainConfig(streams=("fv1", "sal1"))
        assert TrainConfig(streams=["sal1", "fv1", "sal1"]).streams == ("fv1", "sal1")


class TestInference:
    def setup_model(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg(epochs=2)
        data = make_batch(rng, cfg, n=16)
        model, _ = train(as_arrays(data, cfg), cfg)
        return model, data

    def test_batch_of_one_matches_batch_of_many(self):
        model, data = self.setup_model()
        scores_many = predict_scores(model, data)
        for i, video in enumerate(data):
            scores_one, halls = infer(model, video.backbone_features)
            # BLAS picks different kernels per batch shape; agreement is
            # to rounding, while repeated same-shape calls are bit-identical
            np.testing.assert_allclose(scores_one, scores_many[i], atol=1e-12)
            np.testing.assert_array_equal(
                scores_one, infer(model, video.backbone_features)[0]
            )
            assert set(halls) == set(model.streams)

    def test_infer_never_reads_ground_truth(self):
        model, data = self.setup_model()

        class Poisoned(dict):
            def __getitem__(self, key):
                raise AssertionError("inference touched ground truth")

            def get(self, key, default=None):
                raise AssertionError("inference touched ground truth")

        poisoned = [
            SyntheticVideo(v.backbone_features, Poisoned(), v.label) for v in data
        ]
        acc = evaluate(model, poisoned)
        assert 0.0 <= acc <= 1.0
        infer(model, poisoned[0].backbone_features)

    def test_scores_follow_spec_changes(self):
        model, data = self.setup_model()
        videos = data[:5]

        def fresh_scores():
            # pooled from each unit's own outputs with coefficients computed now
            outs = unit_outputs(model, [v.backbone_features for v in videos])
            pooled = model.spec.tot_scale * sum(
                c * outs[name] for name, c in effective_coefficients(model.spec).items())
            return pooled @ model.prednet.weight.T + model.prednet.bias

        before = predict_scores(model, videos)
        changes = [{"beta": 6.0},
                   {"raw_weights": {**model.spec.raw_weights, "fv1": 0.05, "det": 0.3}}]
        for change in changes:
            model.spec = replace(model.spec, **change)
            want = fresh_scores()
            np.testing.assert_allclose(predict_scores(model, videos), want, rtol=0, atol=1e-12)
            for i, video in enumerate(videos):
                np.testing.assert_allclose(infer(model, video.backbone_features)[0], want[i],
                                           rtol=0, atol=1e-12)
            assert np.abs(want - before).max() > 1e-6   # the change moved the scores
            before = want

    def test_accuracy_equals_evaluate(self):
        model, data = self.setup_model()
        for videos in (data, data[:5], data[7:8]):
            arrays = as_arrays(videos, model.config, streams=())
            assert accuracy(model, arrays) == evaluate(model, videos)
        assert evaluate(model, []) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_infer_shape_validation(self):
        model, _ = self.setup_model()
        with pytest.raises(ValueError):
            infer(model, np.zeros((3, 7)))
        with pytest.raises(ValueError, match=re.escape(f"t >= 1, got ({B}, 0)")):
            infer(model, np.zeros((B, 0)))

    def test_infer_equals_one_video_batch(self):
        # A one-row pass is a GEMV in BLAS, so infer matches a batch of one
        # bit for bit and a longer batch only to rounding (test above).
        model, data = self.setup_model()
        for video in data:
            scores, halls = infer(model, video.backbone_features)
            assert np.array_equal(scores, predict_scores(model, [video])[0])
            want = unit_outputs(model, [video.backbone_features])
            for name in model.streams:
                assert np.array_equal(halls[name], want[name][0]), name

    def test_hallucinations_survive_the_next_call(self):
        model, data = self.setup_model()
        scores, halls = infer(model, data[0].backbone_features)
        kept = {name: h.copy() for name, h in halls.items()}
        kept_scores = scores.copy()
        infer(model, data[1].backbone_features)
        predict_scores(model, data)
        assert np.array_equal(scores, kept_scores)
        for name in kept:
            assert np.array_equal(halls[name], kept[name])


class TestStackedUnits:
    def model(self):
        cfg = TrainConfig(seed=3, epochs=0)   # all 12 streams, 64 -> 128 -> 128
        model = init_model(cfg, 4, 64)
        model.bias[...] = np.random.default_rng(4).normal(scale=0.1, size=model.bias.shape)
        model.spec = replace(model.spec, beta=2.5)
        return model

    @pytest.mark.parametrize("rows", [1, 32, 70, 256])
    def test_forward_equals_unit_by_unit_chain(self, rows):
        model = self.model()
        z = np.random.default_rng(rows).normal(size=(rows, model.weight.shape[2]))
        names = (*model.streams, HAF_ID)
        want = [unit_chain_rows(model, k, z) for k in range(len(names))]
        coeffs = effective_coefficients(model.spec)
        pooled = model.spec.tot_scale * sum(c * want[names.index(name)][1]
                                            for name, c in coeffs.items())
        scores = pooled @ model.prednet.weight.T + model.prednet.bias
        fwd_outs, fwd_scores = _forward(model, z)                   # in row blocks
        blocked = _Units(model, 0, len(model.weight)).outputs(z)   # the same, without the head
        _, _, pres, outs = chain(model, z)                          # all rows at once
        for k, (pre, out) in enumerate(want):
            assert np.array_equal(fwd_outs[k], out), names[k]
            assert np.array_equal(blocked[k], out), names[k]
            assert np.array_equal(outs[k], out), names[k]
            assert np.array_equal(pres[k], pre), names[k]
        assert np.array_equal(_pool(model.spec, fwd_outs), pooled)
        assert np.array_equal(fwd_scores, scores)

    @pytest.mark.parametrize("rows", [1, 32, 70])
    def test_every_split_equals_unit_by_unit_chain(self, rows):
        # train runs the stack as two halves in two processes; each half must
        # give its units the bits the whole stack gives them
        model = self.model()
        z = np.random.default_rng(rows).normal(size=(rows, model.weight.shape[2]))
        want = [unit_chain_rows(model, k, z) for k in range(len(model.weight))]
        for split in range(1, len(model.weight)):
            for lo, hi in ((0, split), (split, len(model.weight))):
                _, _, pres, outs = _Units(model, lo, hi).chain(z)
                for k in range(lo, hi):
                    assert np.array_equal(pres[k - lo], want[k][0]), (split, k)
                    assert np.array_equal(outs[k - lo], want[k][1]), (split, k)

    def test_units_are_views_of_what_training_writes(self, tmp_path):
        cfg = small_cfg(epochs=2)
        model, _ = train(as_arrays(make_batch(np.random.default_rng(12), cfg, n=16), cfg), cfg)

        def assert_checkpoint_holds_the_slabs():
            save_checkpoint(model, tmp_path / "model.hal")
            back = load_checkpoint(tmp_path / "model.hal")
            assert back.streams == model.streams
            assert np.array_equal(model.weight.astype(np.float32), back.weight)
            assert np.array_equal(model.bias.astype(np.float32), back.bias)

        assert_checkpoint_holds_the_slabs()
        before = model.weight.copy()
        batch = as_arrays(make_batch(np.random.default_rng(13), cfg), cfg)
        grads = _loss_and_grads(model, batch)[1]
        _sgd(model.weight, model.bias, grads.weight, grads.bias, 0.5)
        assert not np.array_equal(model.weight[0], before[0])
        assert_checkpoint_holds_the_slabs()

    def test_in_place_write_is_read(self):
        model = self.model()
        videos = make_batch(np.random.default_rng(14), model.config, n=3, b=64)
        before = predict_scores(model, videos)
        k = model.streams.index("det1")
        model.weight[k] *= 2.0
        assert not np.array_equal(predict_scores(model, videos), before)
        model.weight[k] /= 2.0
        assert np.array_equal(predict_scores(model, videos), before)

    def test_spec_must_follow_the_config(self):
        model = self.model()
        assert model.streams is model.spec.streams
        for spec in (FusionSpec(("fv1", "det1")), replace(model.spec, rho=0.5)):
            with pytest.raises(ValueError, match="a fusion spec of streams"):
                replace(model, spec=spec)

    def test_rebound_slab_is_read(self):
        model = self.model()
        x = make_batch(np.random.default_rng(15), model.config, n=1, b=64)[0].backbone_features
        before = infer(model, x)[1]["fv1"]
        model.weight = 3.0 * model.weight
        assert not np.array_equal(infer(model, x)[1]["fv1"], before)


UNIT_COUNT_AT = 65   # offset of the HAL1 v1 unit count, after the fixed header


def unit_blocks(blob, m, b):
    """(start, end) byte ranges of a HAL1 v1 file's unit blocks."""
    n_units = int(np.frombuffer(blob, "<u4", 1, UNIT_COUNT_AT)[0])
    blocks, pos = [], UNIT_COUNT_AT + 4
    for _ in range(n_units):
        at = pos + 2 + int(np.frombuffer(blob, "<u2", 1, pos)[0]) + 4 * (m * b + m)
        end = at + 4 + int(np.frombuffer(blob, "<u4", 1, at)[0])
        blocks.append((pos, end))
        pos = end
    return blocks


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        cfg = small_cfg(epochs=2)
        data = make_batch(rng, cfg, n=12)
        model, _ = train(as_arrays(data, cfg), cfg)
        path = tmp_path / "model.hal"
        save_checkpoint(model, path)
        back = load_checkpoint(path)

        assert back.n_classes == model.n_classes
        assert back.spec.tot_scale == model.spec.tot_scale
        assert back.streams == model.streams
        scores_a = predict_scores(model, data[:3])
        scores_b = predict_scores(back, data[:3])
        np.testing.assert_allclose(scores_a, scores_b, atol=1e-5)

        # weights survive the f32 roundtrip exactly on the second pass
        path2 = tmp_path / "model2.hal"
        save_checkpoint(back, path2)
        assert path2.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("which", [0, -1])   # a stream unit, the pass-through unit
    def test_repeated_unit_is_refused(self, tmp_path, which):
        cfg = small_cfg()
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(cfg, 3, B), path)
        blob = path.read_bytes()
        start, end = unit_blocks(blob, cfg.pre_sketch_dim, B)[which]
        n_units = int(np.frombuffer(blob, "<u4", 1, UNIT_COUNT_AT)[0])
        path.write_bytes(blob[:UNIT_COUNT_AT] + np.uint32(n_units + 1).tobytes()
                         + blob[UNIT_COUNT_AT + 4 : end] + blob[start:end] + blob[end:])
        name = blob[start + 2 : start + 2 + blob[start]].decode()
        with pytest.raises(ValueError,
                           match=f"HAL1: byte {end + 2}: repeated unit '{name}'"):
            load_checkpoint(path)

    def test_sketch_shape_must_match_header(self, tmp_path):
        cfg = small_cfg()   # 5 -> 7 -> 4
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(cfg, 3, B), path)
        blob = bytearray(path.read_bytes())
        sketch_at = [end - (20 + 5 * 7) for _, end in unit_blocks(blob, 7, 5)]
        for at in sketch_at:   # every CSK1 d', past its magic and d
            blob[at + 8 : at + 12] = np.uint32(5).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"HAL1: byte {sketch_at[0]}: count sketch 7 -> 5, "
                                             "but the header says 7 -> 4"):
            load_checkpoint(path)

    def test_other_pass_through_name_is_refused(self, tmp_path):
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(small_cfg(), 3, B), path)
        path.write_bytes(path.read_bytes().replace(b"haf_id = haf", b"haf_id = hag"))
        with pytest.raises(ValueError, match=r"HAL1: byte \d+: .*: line 3: haf_id = hag"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, line", [
        (rb"group.D = det1,det2", b"group.D = det1,det2,det5", 5),   # a stream with no unit
        (rb"weight.det2 = [^\n]*\n", b"", 13),
        (rb",haf\n", b"\n", 7),                                     # drops the pass-through unit
        (rb"haf_weight = [^\n]*", b"haf_weight = 0.5", 2),
        (rb"beta.S = [^\n]*", b"beta.S = 1.5", 9),
    ])
    def test_spec_other_than_the_units_give_is_refused(self, tmp_path, old, new, line):
        cfg = small_cfg(streams=("fv1", "det1", "det2", "sal1"))
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(cfg, 3, B), path)
        blob = path.read_bytes()
        at = blob.rindex(b"rho = ")   # the spec text ends the file, after its u32 length
        text = re.sub(old, new, blob[at:], count=1)
        assert text != blob[at:]
        path.write_bytes(blob[: at - 4] + np.uint32(len(text)).tobytes() + text)
        with pytest.raises(ValueError, match=rf"^HAL1: byte \d+: .*: line {line}: .* is not supported"):
            load_checkpoint(path)

    def test_largest_seed_survives_the_checkpoint(self, tmp_path):
        cfg = small_cfg(seed=2**64 - 1)
        save_checkpoint(init_model(cfg, 3, B), tmp_path / "model.hal")
        assert load_checkpoint(tmp_path / "model.hal").config.seed == 2**64 - 1

    def test_rho_survives_the_checkpoint(self, tmp_path):
        cfg = small_cfg(rho=0.3, epochs=2)
        model, _ = train(as_arrays(make_batch(np.random.default_rng(16), cfg, n=12), cfg), cfg)
        save_checkpoint(model, tmp_path / "model.hal")
        back = load_checkpoint(tmp_path / "model.hal")
        assert back.config.rho == 0.3
        assert back.spec == model.spec

    def test_tot_scale_must_match_the_spec(self, tmp_path):
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(small_cfg(), 3, B), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:56] + np.float64(2.5).tobytes() + blob[64:])
        with pytest.raises(ValueError, match=r"^HAL1: byte 56: tot_scale 2\.5, but the fusion spec"):
            load_checkpoint(path)

    def test_unit_count_past_the_end_is_refused_before_allocating(self, tmp_path):
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(small_cfg(), 3, B), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:UNIT_COUNT_AT] + np.uint32(2**32 - 1).tobytes()
                         + blob[UNIT_COUNT_AT + 4 :])
        with pytest.raises(ValueError, match="HAL1: expected at least"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hal"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_header_layout(self, tmp_path):
        """The fixed header as the README lays it out, field by field."""
        cfg = small_cfg(seed=2**40 + 3, alpha=0.5)   # 5 -> 7 -> 4, 3 streams
        model = init_model(cfg, 3, B)
        save_checkpoint(model, tmp_path / "model.hal")
        fields = [(1, "<u4"), (cfg.seed, "<u8"), (B, "<u4"), (7, "<u4"), (4, "<u4"), (3, "<u4"),
                  (cfg.eta, "<f8"), (EPSILON, "<f8"), (cfg.alpha, "<f8"),
                  (model.spec.tot_scale, "<f8"), (0, "u1"), (4, "<u4")]
        header = b"HAL1" + b"".join(np.array(v, dtype).tobytes() for v, dtype in fields)
        assert len(header) == UNIT_COUNT_AT + 4 == 69
        assert (tmp_path / "model.hal").read_bytes()[:69] == header

    def test_exact_length(self, tmp_path):
        path = tmp_path / "model.hal"
        save_checkpoint(init_model(small_cfg(), 3, B), path)
        blob = path.read_bytes()
        n = len(blob)
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match=f"HAL1: expected {n} bytes, got {n + 1}"):
            load_checkpoint(path)
        path.write_bytes(blob[:-1])
        with pytest.raises(ValueError, match=f"HAL1: expected at least {n} bytes, got {n - 1}"):
            load_checkpoint(path)


class TestCheckpointFuzz:
    @pytest.fixture(scope="class")
    def tmp_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("hal")

    @pytest.fixture(scope="class")
    def blob(self, tmp_dir):
        """A small valid HAL1 v1 file: two streams, 2 -> 3 -> 2 dims."""
        cfg = small_cfg(streams=("fv1", "sal2"), pre_sketch_dim=3, sketch_dim=2)
        path = tmp_dir / "small.hal"
        save_checkpoint(init_model(cfg, 2, 2), path)
        return path.read_bytes()

    def test_corrupted_name_names_format_and_offset(self, tmp_dir, blob):
        at = blob.index(b"fv1")
        path = tmp_dir / "bad-name.hal"
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(ValueError, match=f"HAL1: byte {at}: text is not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("at, raw, message", [
        (32, np.float64(np.inf).tobytes(), r"byte \d+: \w+ must be finite"),
        (40, np.float64(np.nan).tobytes(), "byte 40: SigmE norm guard nan, but it is fixed at 1e-12"),
        (40, np.float64(1e-4).tobytes(), "byte 40: SigmE norm guard 0.0001, but it is fixed at 1e-12"),
        (48, np.float64(np.nan).tobytes(), r"byte \d+: \w+ must be finite"),
        (48, np.float64(-np.inf).tobytes(), r"byte \d+: \w+ must be finite"),
        (64, b"\x01", "byte 64: multi_label flag 1, but only single-label models exist"),
    ], ids=["eta_inf", "epsilon_nan", "epsilon_1e-4", "alpha_nan", "alpha_-inf", "multi_label_1"])
    def test_non_finite_header_setting_names_the_format(self, tmp_dir, blob, at, raw, message):
        path = tmp_dir / "bad-setting.hal"
        path.write_bytes(blob[:at] + raw + blob[at + len(raw):])
        with pytest.raises(ValueError, match=f"^HAL1: {message}"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_names_the_format(self, tmp_dir, blob, data):
        """A damaged file is refused with a ValueError naming HAL1, or loads
        into a model on which inference raises nothing but ValueError."""
        path = tmp_dir / "damaged.hal"
        path.write_bytes(data.draw(damaged(blob)))
        try:
            model = load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith("HAL1: "), exc
            return
        try:
            infer(model, np.ones((model.weight.shape[2], 3)))
        except ValueError:
            pass


class TestInitModel:
    def test_unit_sketches_use_the_stream_seed_role(self):
        cfg = small_cfg()
        model = init_model(cfg, 3, B)
        for name, sketch in zip((*model.streams, HAF_ID), model.sketches.sketches):
            ref = sketch_new(cfg.pre_sketch_dim, cfg.sketch_dim,
                             derive_stream_seed(cfg.seed, name, "stream"))
            np.testing.assert_array_equal(sketch.h, ref.h)
            np.testing.assert_array_equal(sketch.s, ref.s)

    def test_backbone_width_is_the_features(self):
        cfg = small_cfg(epochs=1)
        model, _ = train(as_arrays(make_batch(np.random.default_rng(17), cfg, n=8, b=6), cfg), cfg)
        assert model.weight.shape[2] == 6
        with pytest.raises(ValueError, match="backbone_dim must be >= 1, got 0"):
            init_model(cfg, 3, 0)
        with pytest.raises(ValueError, match="backbone_dim must be >= 1, got 0"):
            replace(model, weight=model.weight[:, :, :0])

    def test_features_of_another_width_are_refused(self):
        cfg = small_cfg()
        model = init_model(cfg, 3, B)
        other = make_batch(np.random.default_rng(18), cfg, n=2, b=B + 1)
        message = f"features of width {B + 1}, but the model reads width {B}"
        for call in (lambda: infer(model, other[0].backbone_features),
                     lambda: evaluate(model, other), lambda: predict_scores(model, other),
                     lambda: objective(model, as_arrays(other, cfg)),
                     lambda: accuracy(model, as_arrays(other, cfg))):
            with pytest.raises(ValueError, match=message):
                call()


def assert_same_training(got, want):
    (model_a, rows_a), (model_b, rows_b) = got, want
    assert rows_a == rows_b
    for a, b in ((model_a.weight, model_b.weight), (model_a.bias, model_b.bias),
                 (model_a.prednet.weight, model_b.prednet.weight),
                 (model_a.prednet.bias, model_b.prednet.bias)):
        assert np.array_equal(a, b)
    assert model_a.spec == model_b.spec


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker process needs fork")
class TestWorker:
    """``train`` forks a worker for half of the unit stack where that pays;
    it must give the bits of the in-process run and leave no process."""

    def setup_data(self, n=24, **kw):
        cfg = small_cfg(**{"epochs": 5, "warmup_epochs": 2, **kw})
        return as_arrays(make_batch(np.random.default_rng(31), cfg, n=n, n_classes=3), cfg), cfg

    def train_both_ways(self, monkeypatch, data, cfg):
        """(split run, in-process run, forks of the split run)"""
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: n_units >= 2)
        split = train(data, cfg)
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: False)
        return split, train(data, cfg), len(forks)

    @pytest.mark.parametrize("kw", [
        {"streams": STREAM_ORDER},               # 11 units, 5 here and 6 in the worker
        {},                                      # 3 streams
        {"streams": ("det2",)},                  # one unit in each process
        {"streams": ()},                         # the pass-through unit alone, no worker
        {"batch_size": 5},                       # 18 training videos leave a batch of 3
        {"val_fraction": 0.0},
        {"warmup_epochs": 0},
    ], ids=["all_streams", "three_streams", "one_stream", "no_streams", "remainder_batch",
            "no_validation", "no_warmup"])
    def test_worker_gives_the_in_process_bits(self, monkeypatch, kw):
        data, cfg = self.setup_data(**kw)
        split, whole, forks = self.train_both_ways(monkeypatch, data, cfg)
        assert forks == (1 if cfg.streams else 0)
        assert_same_training(split, whole)
        assert split[0].weight.flags.owndata and split[0].bias.flags.owndata
        assert_no_child_process()

    def test_waits_that_sleep_give_the_same_bits(self, monkeypatch):
        # with no polling every wait sleeps in poll() until the other side writes
        monkeypatch.setattr(halluc, "_POLL_S", 0.0)
        data, cfg = self.setup_data()
        split, whole, forks = self.train_both_ways(monkeypatch, data, cfg)
        assert forks == 1
        assert_same_training(split, whole)

    def test_divergence_leaves_no_process(self, monkeypatch):
        data, _ = self.setup_data()
        data.targets[data.streams.index("det1")] = 1e200
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: True)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            train(data, small_cfg(epochs=2, alpha=1e8))
        assert_no_child_process()

    def test_killed_worker_is_reported_in_bounded_time(self, monkeypatch):
        data, cfg = self.setup_data()
        parent, step = os.getpid(), halluc._Units.step
        steps = []

        def dying_step(units):
            steps.append(None)
            if os.getpid() != parent and len(steps) == 3:   # the worker's third batch
                os.kill(os.getpid(), signal.SIGKILL)
            step(units)

        def hung(signum, frame):
            raise TimeoutError("train waits on a dead worker")

        monkeypatch.setattr(halluc._Units, "step", dying_step)
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: True)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError,
                               match=r"training worker \(pid \d+\) was killed by signal 9"):
                train(data, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_process()

    def test_second_thread_keeps_training_in_process(self, monkeypatch):
        data, cfg = self.setup_data()
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: False)
        want = train(data, cfg)
        monkeypatch.undo()

        def no_fork():
            raise AssertionError("forked with a second thread alive")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not halluc._fork_pays(len(cfg.streams) + 1)
            got = train(data, cfg)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert_same_training(got, want)

    @staticmethod
    def fork_pays_in_a_new_process(threads, patch=""):
        """``_fork_pays`` for two units in a new interpreter whose BLAS thread
        variables all read ``threads``, after running ``patch``."""
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(halluc.__file__).parents[1]),
               **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        code = f"import os\nfrom momhal import halluc\n{patch}\nprint(halluc._fork_pays(2))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return {"True\n": True, "False\n": False}[out]

    def test_blas_threads_keep_training_in_process(self):
        assert self.fork_pays_in_a_new_process("2") is False

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="the affinity mask holds fewer than two CPUs")
    def test_one_blas_thread_forks(self):
        assert self.fork_pays_in_a_new_process("1") is True

    def test_unlisted_threads_keep_training_in_process(self):
        patch = "def no_listing(path):\n    raise PermissionError(path)\nos.listdir = no_listing"
        assert self.fork_pays_in_a_new_process("1", patch) is False

    def test_shared_memory_only_with_a_worker(self, monkeypatch):
        data, cfg = self.setup_data()
        shared_array, maps = halluc._shared_array, []

        def no_map(*args):
            raise AssertionError("mapped shared memory with no worker")

        monkeypatch.setattr(halluc, "_shared_array", no_map)
        model = init_model(cfg, 3, B)
        objective(model, data)
        _loss_and_grads(model, data)
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: False)
        train(data, cfg)
        monkeypatch.setattr(halluc, "_shared_array",
                            lambda *args: maps.append(args) or shared_array(*args))
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: True)
        train(data, cfg)
        assert maps

    def test_zero_epochs_forks_no_worker(self, monkeypatch):
        data, cfg = self.setup_data(epochs=0)

        def no_fork():
            raise AssertionError("forked a worker with no epoch to split")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(halluc, "_fork_pays", lambda n_units: True)
        model, metrics = train(data, cfg)
        ref = init_model(cfg, 3, B)
        assert metrics == []
        np.testing.assert_array_equal(model.weight, ref.weight)
        np.testing.assert_array_equal(model.prednet.weight, ref.prednet.weight)


class TestMetricsCsv:
    def test_layout_and_determinism(self):
        metrics = [
            {"epoch": 1, "loss": 1.5, "class_loss": 0.5, "mse_fv1": 1.0,
             "val_acc": 0.25, "beta_lo": 0.0, "beta_hi": 0.0},
        ]
        text = metrics_to_csv(metrics, ("fv1",))
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,class_loss,mse_fv1,val_acc,beta_lo,beta_hi"
        assert lines[1] == "1,1.5,0.5,1.0,0.25,0.0,0.0"
        assert metrics_to_csv(metrics, ("fv1",)) == text
