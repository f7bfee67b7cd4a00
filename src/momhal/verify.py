"""Runnable property suites with measured statistics.

Each suite prints one line per check with the measured figure and a
PASS/FAIL verdict, and returns True only if everything passed.  The
reference computations here are kept independent of the library paths they
check (dense reconstructions, finite differences, explicit loops).
"""

from __future__ import annotations

import numpy as np

from . import halluc, kernel, moments, sketch
from .pn import PnConfig

# Grid-oracle regression figures for the default bandwidth (sigma = 0.5,
# 101-point grid, interval domain), recorded once from the brute-force
# evaluation; see tests/test_kernel.py for the frozen derivation.
KERNEL_ERR_BY_Z = {3: 0.019636625454477863, 5: 0.0623078042813461, 7: 0.0806056616143386}


def _line(ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def suite_sketch(seed: int = 7) -> bool:
    ok = True
    variances = []
    for d_prime in (8, 16, 32):
        rep = sketch.unbiasedness_check(64, d_prime, 20000, seed)
        se = np.sqrt(rep.variance_bound / 20000)
        ok &= _line(
            rep.mean_error < 4 * se,
            f"sketch d'={d_prime}: mean_error={rep.mean_error:.5f} < 4se={4 * se:.5f}",
        )
        ratio = rep.empirical_variance / rep.variance_bound
        ok &= _line(ratio <= 1.1, f"sketch d'={d_prime}: variance ratio={ratio:.3f} <= 1.1")
        variances.append(rep.empirical_variance)
    ok &= _line(
        variances[0] > variances[1] > variances[2],
        f"sketch variance decreases with d': {[f'{v:.2f}' for v in variances]}",
    )
    return ok


def suite_kernel() -> bool:
    ok = True
    for z, frozen in KERNEL_ERR_BY_Z.items():
        cfg = kernel.FeatureMapConfig(z, 0.5)
        _, err = kernel.kernel_approx_error(cfg, 101)
        ok &= _line(
            err <= frozen * 1.1,
            f"kernel Z={z}: rel RMS={err:.6f} <= frozen oracle {frozen:.6f} +10%",
        )
    return ok


def suite_moments(seed: int = 3, cases: int = 20) -> bool:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(4, 24))
        j = int(rng.integers(1, 5))
        frames = [rng.normal(size=(int(rng.integers(1, 12)), d)) for _ in range(j)]
        bag = moments.FeatureBag(np.concatenate(frames), [len(f) for f in frames])
        got = moments.multi_moment(bag, 3)

        # independent dense reference
        data = np.concatenate(frames)
        mu = data.mean(axis=0)
        cols = np.concatenate([(f - mu).T / (j * f.shape[0]) for f in frames], axis=1)
        w, v = np.linalg.eigh(cols @ cols.T)
        order = np.argsort(w)[::-1]
        w, v = np.clip(w[order], 0, None), v[:, order]
        tol = max(1e-12, np.sqrt(w[0] * max(d, cols.shape[1]) * np.finfo(np.float64).eps))
        ref_vecs = np.zeros((3, d))
        for i in range(min(3, min(len(w), cols.shape[1]))):
            if np.sqrt(w[i]) > tol:
                u = v[:, i]
                k = int(np.argmax(np.abs(u)))
                ref_vecs[i] = -u if u[k] < 0 else u
        c = data - mu
        k2 = np.maximum((c**2).mean(0), 1e-12)
        ref = np.concatenate([
            mu / np.linalg.norm(mu),
            ref_vecs.ravel(),
            (c**3).mean(0) / k2**1.5,
            (c**4).mean(0) / k2**2,
            np.pad(w[:d], (0, max(0, d - len(w))))[:d] / max(w.sum(), 1e-12),
        ])
        worst = max(worst, float(np.abs(got.flat() - ref).max()))
    return _line(worst < 1e-8, f"moments vs dense reference: max abs dev={worst:.2e} < 1e-8")


def suite_gradients(seed: int = 11) -> bool:
    rng = np.random.default_rng(seed)
    cfg = halluc.TrainConfig(
        seed=seed, backbone_dim=5, pre_sketch_dim=7, sketch_dim=4,
        streams=("fv1", "det1", "sal1"), pn=PnConfig(eta=4.0),
    )
    model = halluc.init_model(cfg, 3)
    batch = [
        halluc.SyntheticVideo(
            rng.normal(size=(5, 7)),
            {s: rng.normal(size=4) for s in cfg.streams},
            int(rng.integers(0, 3)),
        )
        for _ in range(4)
    ]
    _, grads = halluc.batch_grads(batch, model)

    def loss() -> float:
        return halluc.objective(model, batch)[0]

    # one block per unit (pass-through last) and layer, each a view of the model's slabs
    params = [(model.weight[k], grads.weight[k]) for k in range(len(model.weight))]
    params += [(model.bias[k], grads.bias[k]) for k in range(len(model.bias))]
    params += [(model.prednet.weight, grads.prednet[0]), (model.prednet.bias, grads.prednet[1])]
    worst = 0.0
    for arr, grad in params:
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
    return _line(worst < 1e-4, f"gradients vs finite differences: max rel dev={worst:.2e} < 1e-4")


SUITES = {
    "sketch": suite_sketch,
    "kernel": suite_kernel,
    "moments": suite_moments,
    "gradients": suite_gradients,
}


def run_suite(name: str) -> bool:
    if name == "all":
        results = [fn() for fn in SUITES.values()]
        return all(results)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
