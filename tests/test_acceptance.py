"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured statistics.
"""

import time

import numpy as np
import pytest

from momhal.fusion import INV_PHI, eq9_ratios, golden_section_max
from momhal.halluc import (
    SyntheticVideo,
    TrainConfig,
    VideoArrays,
    accuracy,
    evaluate,
    infer,
    init_model,
    objective,
    train,
)
from momhal.halluc import _loss_and_grads
from momhal.kernel import FeatureMapConfig
from momhal.moments import multi_moment
from momhal.odf import OdfConfig, encode_box, odf_descriptor
from momhal.sdf import SaliencyFrame, encode_frame, sdf_descriptor
from momhal.synthgen import SynthConfig, generate_dataset, load_dataset
from oracles import bag_of_frames, dense_multi_moment, kernel_approx_error, unbiasedness_check
from test_odf import make_box
from videos import as_arrays

# Frozen grid-oracle figures for the RBF linearization (sigma = 0.5,
# 101-point grid, interval domain); see tests/test_kernel.py.
KERNEL_ORACLE_ERR = {3: 0.019636625454477863, 5: 0.0623078042813461, 7: 0.0806056616143386}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion1Dims:
    def test_dimensional_fidelity(self):
        t0 = time.time()
        rbf = encode_box(make_box(), 3, OdfConfig())[0]
        raw = encode_box(make_box(), 3, OdfConfig(use_rbf_embedding=False))[0]
        rng = np.random.default_rng(0)
        frame_vec = encode_frame(SaliencyFrame(rng.uniform(0, 1, (24, 32))))
        desc = odf_descriptor(make_box(), 3, OdfConfig(n_prime=3))
        sdesc = sdf_descriptor([SaliencyFrame(rng.uniform(0, 1, (24, 32)))], 3)
        elapsed = time.time() - t0
        ok = (
            rbf.shape == (1214,)
            and raw.shape == (1178,)
            and frame_vec.shape == (556,)
            and desc.flat().shape == (1214 * 7,)
            and sdesc.flat().shape == (556 * 7,)
            and elapsed < 1.0
        )
        assert report(
            1, ok,
            f"box {rbf.shape[0]}/{raw.shape[0]}, frame {frame_vec.shape[0]}, "
            f"flat {desc.flat().shape[0]}/{sdesc.flat().shape[0]} ({elapsed:.2f}s)")


class TestCriterion2Sketch:
    def test_count_sketch_statistics(self):
        t0 = time.time()
        trials = 20_000
        variances = []
        ok = True
        details = []
        for d_prime in (8, 16, 32):
            rep = unbiasedness_check(64, d_prime, trials, seed=7)
            se = np.sqrt(rep.variance_bound / trials)
            ok &= rep.mean_error < 4 * se
            ok &= rep.empirical_variance <= 1.1 * rep.variance_bound
            variances.append(rep.empirical_variance)
            details.append(
                f"d'={d_prime}: err={rep.mean_error:.4f}<{4 * se:.4f}, "
                f"var ratio={rep.empirical_variance / rep.variance_bound:.3f}")
        ok &= variances[0] > variances[1] > variances[2]
        elapsed = time.time() - t0
        ok &= elapsed < 10.0
        assert report(2, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


class TestCriterion3Kernel:
    def test_linearization_error_vs_oracle(self):
        t0 = time.time()
        _, err = kernel_approx_error(FeatureMapConfig(7, 0.5), 101)
        bound = KERNEL_ORACLE_ERR[7] * 1.1
        elapsed = time.time() - t0
        ok = err <= bound and elapsed < 1.0
        assert report(3, ok, f"Z=7 rel RMS {err:.6f} <= oracle+10% {bound:.6f} ({elapsed:.2f}s)")

    def test_linearization_error_monotonicity(self):
        # Stated criterion: the error decreases monotonically for Z in
        # {3, 5, 7} at sigma = 0.5 on the unit interval.  The grid oracle
        # shows the opposite: with this bandwidth the pivot comb converges
        # to a boundary-truncated integral, so more pivots WORSEN the fit
        # (0.0196 -> 0.0623 -> 0.0806).  Monotone decrease does hold on the
        # boundary-free ring domain and for smaller bandwidths.  The
        # assertion is kept as specified; see notes/decisions.md.
        errs = {z: kernel_approx_error(FeatureMapConfig(z, 0.5), 101)[1] for z in (3, 5, 7)}
        ok = errs[3] > errs[5] > errs[7]
        report(3, ok, f"monotone decrease over Z: {errs[3]:.4f} > {errs[5]:.4f} > {errs[7]:.4f}")
        assert ok, (
            "spec defect: the grid oracle contradicts the stated monotone "
            "decrease at sigma=0.5 on the interval; analysis in notes/decisions.md"
        )


class TestCriterion4Moments:
    def test_oracle_equivalence(self):
        t0 = time.time()
        rng = np.random.default_rng(44)
        worst = 0.0
        for i in range(100):
            if i % 2:
                d = int(rng.integers(3, 33))
                total = int(rng.integers(d + 1, 51))  # N > d
            else:
                d = int(rng.integers(8, 33))
                total = int(rng.integers(2, d))  # N < d
            n_frames = int(rng.integers(1, 5))
            splits = np.sort(rng.integers(0, total + 1, size=n_frames - 1))
            counts = np.diff(np.concatenate([[0], splits, [total]]))
            frames = [rng.normal(size=(int(k), d)) for k in counts]
            bag = bag_of_frames(d, frames)
            n_prime = int(rng.integers(1, 5))
            got = multi_moment(bag, n_prime).flat()
            want = dense_multi_moment(bag.frames, n_prime)
            worst = max(worst, float(np.abs(got - want).max()))
        elapsed = time.time() - t0
        ok = worst < 1e-8 and elapsed < 5.0
        assert report(4, ok, f"100 bags, max |dev|={worst:.2e} < 1e-8 ({elapsed:.1f}s)")


class TestCriterion5Gradients:
    def test_hand_gradients_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            cfg = TrainConfig(
                seed=seed,
                alpha=float(rng.uniform(0.2, 2.0)),
                pre_sketch_dim=6, sketch_dim=4,
                streams=("fv1", "det1", "sal1"),
                eta=float(rng.uniform(2.0, 8.0)),
            )
            model = init_model(cfg, 3, 4)
            batch = [
                SyntheticVideo(rng.normal(size=(4, 7)),
                               {s: rng.normal(size=4) for s in cfg.streams},
                               int(rng.integers(0, 3)))
                for _ in range(3)
            ]
            data = as_arrays(batch, model.config)
            _, grads = _loss_and_grads(model, data)

            def loss():
                return objective(model, data)[0]

            blocks = []
            for k in range(len(model.weight)):   # every stream unit, then the pass-through unit
                blocks.append((model.weight[k], grads.weight[k]))
                blocks.append((model.bias[k], grads.bias[k]))
            blocks.append((model.prednet.weight, grads.prednet[0]))
            blocks.append((model.prednet.bias, grads.prednet[1]))
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
                denom = max(np.linalg.norm(fd), np.linalg.norm(grad), 1e-12)
                worst = max(worst, float(np.linalg.norm(fd - grad) / denom))
        elapsed = time.time() - t0
        ok = worst < 1e-4 and elapsed < 30.0
        assert report(5, ok, f"20 instances, max rel dev={worst:.2e} < 1e-4 ({elapsed:.1f}s)")


class TestCriterion6Eq9:
    def test_endpoints_and_argmax(self):
        t0 = time.time()
        r0 = eq9_ratios(np.array([1.0, 0.3, 0.7, 0.05]), beta=0.0, rho=0.1)
        ok = bool(np.all(r0 == 0.25))

        r_inf = eq9_ratios(np.array([1.0, 0.5, 0.25]), beta=200.0, rho=0.1)
        want = np.array([1 / 1.2, 0.1 / 1.2, 0.1 / 1.2])
        ok &= bool(np.abs(r_inf - want).max() < 1e-6)

        rng = np.random.default_rng(66)
        for _ in range(1000):
            w = rng.uniform(0.01, 1.0, size=int(rng.integers(2, 9)))
            w[int(rng.integers(len(w)))] = 1.5  # unique max
            w /= w.max()
            beta = float(rng.uniform(1e-3, 60.0))
            r = eq9_ratios(w, beta, rho=0.1)
            ok &= int(np.argmax(r)) == int(np.argmax(w))
        elapsed = time.time() - t0
        ok &= elapsed < 1.0
        assert report(
            6, ok,
            f"r(beta=0)=1/|T| exact, floor limit dev={np.abs(r_inf - want).max():.1e}, "
            f"argmax invariant x1000 ({elapsed:.2f}s)")


class TestCriterion7Golden:
    def test_quadratic_and_shrink_ratio(self):
        t0 = time.time()
        res = golden_section_max(lambda b: -((b - 2.0) ** 2), 0.0, 50.0, 40)
        ok = abs(res.beta_star - 2.0) < 1e-6
        ratio_dev = max(
            abs(cur / prev - INV_PHI) for prev, cur in zip(res.widths, res.widths[1:])
        )
        ok &= ratio_dev < 1e-12
        elapsed = time.time() - t0
        ok &= elapsed < 1.0
        assert report(
            7, ok,
            f"|beta*-2|={abs(res.beta_star - 2.0):.2e} < 1e-6, "
            f"shrink ratio dev={ratio_dev:.2e} < 1e-12 ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    generate_dataset(root, SynthConfig())  # 512 videos, 8 classes, seed 0
    return root


class TestCriterion8EndToEnd:
    def test_hallucination_beats_passthrough(self, default_dataset):
        t0 = time.time()
        cfg = TrainConfig(epochs=200, seed=0)
        data, _ = load_dataset(default_dataset, cfg.sketch_dim, cfg.eta)
        model_all, metrics_all = train(data, cfg)
        cfg_haf = TrainConfig(epochs=200, seed=0, streams=())
        model_haf, metrics_haf = train(data, cfg_haf)
        acc_all = metrics_all[-1]["val_acc"]
        acc_haf = metrics_haf[-1]["val_acc"]
        gap = acc_all - acc_haf

        # inference consumes no ground truth: poisoned mapping and targets + raw features
        class Poisoned(dict):
            def __getitem__(self, key):
                raise AssertionError("inference touched ground truth")

            def get(self, key, default=None):
                raise AssertionError("inference touched ground truth")

        class PoisonedTargets:
            def __getattr__(self, name):
                raise AssertionError("inference touched ground truth")

            def __getitem__(self, key):
                raise AssertionError("inference touched ground truth")

        feats = np.load(default_dataset / "features.npy")
        poisoned = [SyntheticVideo(f, Poisoned(), int(y))
                    for f, y in zip(feats[:32], data.labels[:32])]
        evaluate(model_all, poisoned)
        accuracy(model_all, VideoArrays(data.z[:32], PoisonedTargets(), data.labels[:32],
                                        model_all.streams))
        scores, halls = infer(model_all, feats[0])
        audit_ok = scores.shape == (8,) and set(halls) == set(model_all.streams)

        elapsed = time.time() - t0
        ok = gap >= 0.20 and audit_ok and elapsed < 120.0
        assert report(
            8, ok,
            f"val acc all={acc_all:.3f} vs passthrough-only={acc_haf:.3f} "
            f"(gap {gap * 100:.1f}pp >= 20pp), ground-truth audit clean ({elapsed:.0f}s)")


class TestCriterion9Determinism:
    def test_synth_train_byte_identical(self, tmp_path):
        import hashlib

        from momhal.cli import main

        t0 = time.time()
        digests = []
        for run in ("a", "b"):
            data = tmp_path / f"data_{run}"
            out = tmp_path / f"run_{run}"
            assert main(["synth", "--out", str(data), "--videos", "96",
                         "--classes", "4", "--seed", "11", "--backbone-dim", "32",
                         "--tau", "4"]) == 0
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--epochs", "12", "--seed", "11"]) == 0
            h = hashlib.sha256()
            for path in sorted(data.rglob("*")) + [out / "checkpoint.hal",
                                                   out / "metrics.csv"]:
                if path.is_file():
                    h.update(path.read_bytes())
            digests.append(h.hexdigest())
        elapsed = time.time() - t0
        ok = digests[0] == digests[1] and elapsed < 240.0
        assert report(
            9, ok,
            f"dataset+checkpoint+metrics digests match across reruns ({elapsed:.0f}s)")
