"""Independent reference computations for checking the program's outputs.

Nothing here imports ``momhal``.  Every quantity is recomputed from its
definition with a different algorithm than the library uses:

* descriptors: a dense d x d covariance eigendecomposition and explicit
  cumulant sums, instead of the Gram/SVD shortcuts;
* saliency features: a per-pixel loop (vectorized across frames only),
  instead of the einsum contraction;
* inference: dense sketch matrices built from the stored ``h``/``s``
  tables, the SigmE formula, and the eq-9 pooling coefficients recomputed
  from the checkpoint's fusion spec;
* files: own parsers for JSONL detections, P5 PGM, ``MMD1``, ``HAL1``
  and ``CSK1``.

Every ``check_*`` function returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

F32_TOL = 2.0**-22          # four f32 ulps, relative
ABS_FLOOR = 1e-9            # absolute floor, scaled by the block's magnitude
GAP_MIN = 1e-5              # relative eigen-gap below which vectors are not compared
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

ODF_DIM = 171 + 1001 + 6 * 7
SDF_DIM = 12 * 5 * 5 + 16 * 16


# --------------------------------------------------------------- feature maps

def gauss_map(x: np.ndarray, n_pivots: int, sigma: float = 0.5, ring: bool = False) -> np.ndarray:
    """exp(-dist(x, p)^2 / sigma^2) at equispaced pivots; (..., n_pivots)."""
    x = np.asarray(x, dtype=np.float64)[..., None]
    pivots = np.arange(n_pivots) / (n_pivots if ring else n_pivots - 1)
    dist = np.abs(x - pivots)
    if ring:
        dist = np.minimum(dist, 1.0 - dist)
    return np.exp(-(dist**2) / sigma**2)


# ----------------------------------------------------------------- detections

def read_detection_groups(path) -> dict[tuple[str, str], tuple[int, list[dict]]]:
    """{(video, detector): (tau, [raw JSON objects in file order])}."""
    groups: dict[tuple[str, str], tuple[int, list[dict]]] = {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                obj = json.loads(line)
                key = (str(obj["video"]), str(obj["detector"]))
                groups.setdefault(key, (int(obj["tau"]), []))[1].append(obj)
    return groups


def odf_box_vector(obj: dict, tau: int) -> np.ndarray:
    """[one-hot(171); ImageNet scores(1001); seven-pivot maps of conf, the
    four box coordinates and the frame position]."""
    vec = np.zeros(ODF_DIM)
    vec[int(obj["class"]) - 1] = 1.0
    if "inet" in obj:
        vec[171:1172] = np.asarray(obj["inet"], dtype=np.float64)
    else:
        for idx, val in obj["inet_sparse"]:
            vec[171 + int(idx)] += float(val)
    frame_pos = (int(obj["frame"]) - 1) / (tau - 1) if tau > 1 else 0.0
    scalars = [float(obj["conf"])] + [float(v) for v in obj["box"]] + [frame_pos]
    vec[1172:] = gauss_map(np.array(scalars), 7).ravel()
    return vec


def odf_bag(tau: int, objs: list[dict]) -> list[np.ndarray]:
    """Per-frame groups of box vectors; frames without boxes stay empty."""
    frames: list[list[np.ndarray]] = [[] for _ in range(tau)]
    for obj in objs:
        frames[int(obj["frame"]) - 1].append(odf_box_vector(obj, tau))
    return [np.array(f) if f else np.zeros((0, ODF_DIM)) for f in frames]


# ------------------------------------------------------------------- saliency

def read_pgm_values(path) -> np.ndarray:
    """P5 PGM -> values in [0, 1]; header comments allowed."""
    data = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a P5 PGM")
    width, height, maxval = (int(t) for t in tokens[1:])
    raster = data[pos + 1:]
    dtype = ">u2" if maxval > 255 else "u1"
    values = np.frombuffer(raster, dtype, width * height).reshape(height, width)
    return np.clip(values.astype(np.float64) / maxval, 0.0, 1.0)


def read_manifest(path) -> dict[tuple[str, str], list[Path]]:
    path = Path(path)
    groups: dict[tuple[str, str], list[Path]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            video, source, rel = line.split()
            groups.setdefault((video, source), []).append(path.parent / rel)
    return groups


def _pool_matrix(n_pixels: int, n_bins: int) -> np.ndarray:
    """(n_bins, n_pixels): share of bin b covered by pixel p, over the bin width."""
    width = n_pixels / n_bins
    lo = np.arange(n_bins)[:, None] * width
    p = np.arange(n_pixels)[None, :]
    overlap = np.clip(np.minimum(p + 1.0, lo + width) - np.maximum(p, lo), 0.0, None)
    return overlap / width


def sdf_frame_features(frames: list[np.ndarray]) -> np.ndarray:
    """(F, 556) per-frame features of same-shape frames, by a per-pixel loop."""
    v = np.stack(frames)                       # (F, H, W)
    n, h, w = v.shape
    gx = np.empty_like(v)
    gy = np.empty_like(v)
    gx[:, :, 1:-1] = v[:, :, 2:] - v[:, :, :-2]
    gx[:, :, 0] = v[:, :, 1] - v[:, :, 0]
    gx[:, :, -1] = v[:, :, -1] - v[:, :, -2]
    gy[:, 1:-1, :] = v[:, 2:, :] - v[:, :-2, :]
    gy[:, 0, :] = v[:, 1, :] - v[:, 0, :]
    gy[:, -1, :] = v[:, -1, :] - v[:, -2, :]
    amp = np.sqrt(gx * gx + gy * gy)
    turn = np.arctan2(gy, gx) / (2.0 * np.pi)
    turn = np.where(turn < 0.0, turn + 1.0, turn)
    turn = np.where((turn >= 1.0) | (amp == 0.0), 0.0, turn)
    ang = gauss_map(turn, 12, ring=True)       # (F, H, W, 12)
    phi_x = gauss_map(np.arange(w) / (w - 1), 5)
    phi_y = gauss_map(np.arange(h) / (h - 1), 5)

    block = np.zeros((n, 12, 25))
    for j in range(h):
        for i in range(w):
            spatial = np.outer(phi_x[i], phi_y[j]).ravel()   # index x*5 + y
            block += (amp[:, j, i, None] * ang[:, j, i, :])[:, :, None] * spatial
    block = block.reshape(n, 300)
    block /= np.maximum(np.sqrt((block**2).sum(axis=1, keepdims=True)), 1e-12)

    gist = np.einsum("bh,fhw,cw->fbc", _pool_matrix(h, 16), v, _pool_matrix(w, 16))
    gist = gist.reshape(n, 256)
    gist /= np.maximum(np.abs(gist).sum(axis=1, keepdims=True), 1e-12)
    return np.concatenate([block, gist], axis=1)


def sdf_bag(paths: list[Path]) -> list[np.ndarray]:
    """One single-row group per frame, in manifest order."""
    values = [read_pgm_values(p) for p in paths]
    rows: list[np.ndarray | None] = [None] * len(values)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, val in enumerate(values):
        by_shape.setdefault(val.shape, []).append(k)
    for idxs in by_shape.values():
        feats = sdf_frame_features([values[k] for k in idxs])
        for k, row in zip(idxs, feats):
            rows[k] = row.reshape(1, -1)
    return rows


# -------------------------------------------------------------- multi-moment

def dense_descriptor(frames: list[np.ndarray], n_prime: int, eps: float = 1e-12) -> dict:
    """Multi-moment descriptor from the dense covariance of the
    frame-weighted centred vectors and explicit cumulant sums.

    Returns the five blocks plus the eigenvalues, which decide which
    eigenvectors have a clear enough gap to be compared.
    """
    data = np.concatenate([f for f in frames if f.shape[0]], axis=0)
    n, d = data.shape
    j_total = len(frames)
    mu = data.sum(axis=0) / n
    norm = math.sqrt(float(mu @ mu))
    mean_dir = mu / norm if norm >= eps else np.zeros(d)

    weighted = np.concatenate(
        [(f - mu) / (j_total * f.shape[0]) for f in frames if f.shape[0]], axis=0)
    cov = weighted.T @ weighted
    lam, vecs = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    vecs = vecs[:, order]

    eigvecs = np.zeros((n_prime, d))
    for i in range(n_prime):
        u = vecs[:, i]
        k = int(np.argmax(np.abs(u)))
        eigvecs[i] = -u if u[k] < 0 else u

    centred = data - mu
    sums = [np.zeros(d) for _ in range(3)]
    for row in centred:
        sq = row * row
        sums[0] += sq
        sums[1] += sq * row
        sums[2] += sq * sq
    k2, k3, k4 = (s / n for s in sums)
    guard = np.maximum(k2, eps)
    spectrum = lam / max(float(lam.sum()), eps)
    return {
        "mean": mean_dir,
        "eigvecs": eigvecs,
        "skew": k3 / guard**1.5,
        "kurt": k4 / guard**2,
        "spectrum": spectrum,
        "lam": lam,
    }


def parse_mmd(data: bytes) -> tuple[int, int, np.ndarray]:
    if data[:4] != b"MMD1":
        raise ValueError("bad MMD1 magic")
    d, n_prime = struct.unpack_from("<II", data, 4)
    body = np.frombuffer(data, "<f4", d * (4 + n_prime), 12).astype(np.float64)
    return d, n_prime, body.reshape(4 + n_prime, d)


def mmd_size(d: int, n_prime: int) -> int:
    return 12 + 4 * d * (4 + n_prime)


def _close(got: np.ndarray, ref: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return bool(np.all(np.abs(got - ref) <= F32_TOL * np.abs(ref) + ABS_FLOOR * scale))


def check_mmd(data: bytes, ref: dict, n_prime: int, name: str) -> list[str]:
    """Compare an MMD1 file with the dense reference within f32 rounding.

    Eigenvectors are compared up to sign, and only where the eigenvalue
    gap to both neighbours is clear; directions below the rank noise floor
    must be exactly zero.
    """
    d = ref["mean"].shape[0]
    if len(data) != mmd_size(d, n_prime):
        return [f"{name}: {len(data)} bytes, expected {mmd_size(d, n_prime)}"]
    got_d, got_n, blocks = parse_mmd(data)
    if (got_d, got_n) != (d, n_prime):
        return [f"{name}: header ({got_d}, {got_n}) != ({d}, {n_prime})"]
    errors = []
    for label, got, want in (
        ("mean", blocks[0], ref["mean"]),
        ("skewness", blocks[1 + n_prime], ref["skew"]),
        ("kurtosis", blocks[2 + n_prime], ref["kurt"]),
        ("spectrum", blocks[3 + n_prime], ref["spectrum"]),
    ):
        if not _close(got, want):
            worst = int(np.argmax(np.abs(got - want)))
            errors.append(f"{name}: {label}[{worst}] = {got[worst]!r}, reference {want[worst]!r}")
    lam = ref["lam"]
    s_max = math.sqrt(lam[0]) if lam[0] > 0 else 0.0
    for i in range(n_prime):
        got = blocks[1 + i]
        sigma = math.sqrt(lam[i])
        if sigma < 1e-7 * s_max or s_max == 0.0:
            if np.any(got != 0.0):
                errors.append(f"{name}: eigvec {i} should be zero (rank-deficient)")
            continue
        if sigma < 1e-5 * s_max:
            continue  # too close to the rank cut-off to call either way
        gap = min(lam[i - 1] - lam[i] if i else np.inf,
                  lam[i] - lam[i + 1] if i + 1 < lam.size else np.inf)
        if gap < GAP_MIN * lam[0]:
            continue
        want = ref["eigvecs"][i]
        if not (_close(got, want) or _close(got, -want)):
            errors.append(f"{name}: eigvec {i} differs from the reference beyond f32 rounding")
    return errors


# ----------------------------------------------------------------- checkpoint

class _Reader:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, fmt: str):
        vals = struct.unpack_from("<" + fmt, self.data, self.pos)
        self.pos += struct.calcsize("<" + fmt)
        return vals

    def floats(self, *shape: int) -> np.ndarray:
        count = int(np.prod(shape))
        arr = np.frombuffer(self.data, "<f4", count, self.pos).astype(np.float64)
        self.pos += 4 * count
        return arr.reshape(shape)

    def raw(self, n: int) -> bytes:
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out


def dense_sketch(block: bytes) -> np.ndarray:
    """CSK1 block -> dense (d', d) matrix with one +-1 per column."""
    if block[:4] != b"CSK1":
        raise ValueError("bad CSK1 magic")
    d, d_prime = struct.unpack_from("<II", block, 4)
    h = np.frombuffer(block, "<u4", d, 20).astype(np.int64)
    s = np.frombuffer(block, "i1", d, 20 + 4 * d).astype(np.float64)
    if len(block) != 20 + 5 * d:
        raise ValueError("CSK1 length mismatch")
    mat = np.zeros((d_prime, d))
    for i in range(d):
        mat[h[i] - 1, i] = s[i]
    return mat


def parse_spec(text: str) -> dict:
    spec = {"groups": {}, "beta": {}, "weights": {}}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key.startswith("group."):
            spec["groups"][key[6:]] = [s for s in value.split(",") if s]
        elif key.startswith("beta."):
            spec["beta"][key[5:]] = float(value)
        elif key.startswith("weight."):
            spec["weights"][key[7:]] = float(value)
        elif key in ("rho", "haf_weight"):
            spec[key] = float(value)
        elif key == "ratio_weights":
            spec[key] = value.lower() in ("1", "true", "yes")
        else:
            spec[key] = value
    return spec


def parse_checkpoint(data: bytes) -> dict:
    r = _Reader(data)
    if r.raw(4) != b"HAL1":
        raise ValueError("bad HAL1 magic")
    (version,) = r.take("I")
    (seed,) = r.take("Q")
    b, m, d_prime, n_classes = r.take("IIII")
    eta, eps, alpha, tot_scale = r.take("dddd")
    (multi_label,) = r.take("B")
    (n_units,) = r.take("I")
    units = {}
    for _ in range(n_units):
        (name_len,) = r.take("H")
        name = r.raw(name_len).decode()
        weight = r.floats(m, b)
        bias = r.floats(m)
        (sk_len,) = r.take("I")
        units[name] = (weight, bias, dense_sketch(r.raw(sk_len)))
    head_w = r.floats(n_classes, d_prime)
    head_b = r.floats(n_classes)
    (spec_len,) = r.take("I")
    spec = parse_spec(r.raw(spec_len).decode())
    if r.pos != len(data):
        raise ValueError(f"{len(data) - r.pos} trailing checkpoint bytes")
    return {
        "version": version, "seed": seed, "eta": eta, "eps": eps, "alpha": alpha,
        "tot_scale": tot_scale, "multi_label": bool(multi_label), "units": units,
        "head": (head_w, head_b), "spec": spec, "n_classes": n_classes,
    }


def _group_weights(spec: dict, group: str, beta: float) -> dict[str, float]:
    """Eq. 9: r_i = max(w'_i^beta, rho) / sum_j max(w'_j^beta, rho), with
    w' the raw weights over their maximum; w_i = r_i / |T| unless the spec
    pools with bare ratios."""
    members = [s for s in spec["groups"][group] if s != spec.get("haf_id", "haf")]
    if not members:
        return {}
    raw = np.array([spec["weights"][s] for s in members])
    top = raw.max()
    w_prime = raw / top if top > 0 else np.ones_like(raw)
    vals = np.array([max(w ** beta, spec.get("rho", 0.1)) for w in w_prime])
    ratios = vals / vals.sum()
    if not spec.get("ratio_weights", False):
        ratios = ratios / len(members)
    return dict(zip(members, ratios))


def pooling_coefficients(spec: dict, beta: float | None = None) -> dict[str, float]:
    """Leaf coefficients of the three-level pooling (detector group,
    saliency group, top level with the fixed-weight pass-through)."""
    haf = spec.get("haf_id", "haf")

    def b(group):
        return spec["beta"][group] if beta is None else beta

    top = _group_weights(spec, "TOP", b("TOP"))
    outer = 1.0 / (len(top) + 1)
    coeffs = {}
    for sid in spec["groups"]["TOP"]:
        if sid == haf:
            coeffs[sid] = spec.get("haf_weight", 1.0) * outer
        elif sid in ("det", "sal"):
            group = "D" if sid == "det" else "S"
            inner = _group_weights(spec, group, b(group))
            div = 1.0 if spec.get("ratio_weights", False) else len(inner)
            for leaf, w in inner.items():
                coeffs[leaf] = top[sid] * outer * w / div
        else:
            coeffs[sid] = top[sid] * outer
    return coeffs


def unit_outputs(ck: dict, z: np.ndarray) -> dict[str, np.ndarray]:
    """Sketched SigmE outputs of every unit for time-pooled features z (N, b)."""
    outs = {}
    for name, (weight, bias, sketch) in ck["units"].items():
        a = z @ weight.T + bias
        norm = np.sqrt((a * a).sum(axis=1, keepdims=True))
        pre = 2.0 / (1.0 + np.exp(-ck["eta"] * a / (norm + ck["eps"]))) - 1.0
        outs[name] = pre @ sketch.T
    return outs


def pooled(ck: dict, outs: dict[str, np.ndarray], beta: float | None = None) -> np.ndarray:
    coeffs = pooling_coefficients(ck["spec"], beta)
    return ck["tot_scale"] * sum(c * outs[name] for name, c in coeffs.items())


def dense_scores(ck: dict, features: np.ndarray) -> np.ndarray:
    """Class scores for raw features (N, b, t): time mean, units, pooling, head."""
    z = np.asarray(features, dtype=np.float64).mean(axis=2)
    head_w, head_b = ck["head"]
    return pooled(ck, unit_outputs(ck, z)) @ head_w.T + head_b


def ridge_score(x: np.ndarray, y: np.ndarray, train_idx, val_idx, n_classes: int, l2: float) -> float:
    """Validation accuracy of one-vs-all ridge regression on [x, 1]."""
    a = np.hstack([x, np.ones((x.shape[0], 1))])
    onehot = np.eye(n_classes)[y]
    at = a[train_idx]
    w = np.linalg.solve(at.T @ at + l2 * np.eye(a.shape[1]), at.T @ onehot[train_idx])
    return float(np.mean(np.argmax(a[val_idx] @ w, axis=1) == y[val_idx]))


def trainer_split(n: int, seed: int, val_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The trainer's validation/training split: a permutation drawn from
    default_rng((seed, 0x5E)), validation first."""
    perm = np.random.default_rng((seed, 0x5E)).permutation(n)
    n_val = int(round(val_fraction * n)) if n > 1 else 0
    return perm[:n_val], perm[n_val:]


# ------------------------------------------------------------ training output

def check_metrics_csv(text: str, alpha: float) -> list[str]:
    """Every row must satisfy loss = alpha / |S| * sum(mse) + class_loss."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["metrics.csv has no rows"]
    errors = []
    for row in rows:
        mse = [float(v) for k, v in row.items() if k.startswith("mse_")]
        want = (alpha / len(mse)) * sum(mse) + float(row["class_loss"]) if mse else float(row["class_loss"])
        got = float(row["loss"])
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            errors.append(f"metrics.csv epoch {row['epoch']}: loss {got!r} != {want!r}")
    return errors


def final_val_acc(text: str) -> float:
    return float(list(csv.DictReader(io.StringIO(text)))[-1]["val_acc"])


def check_widths(widths: list[float]) -> list[str]:
    """Printed bracket widths (6 decimals) must shrink by 1/phi per step."""
    errors = []
    for i in range(1, len(widths)):
        if abs(widths[i] - INV_PHI * widths[i - 1]) > 2e-6:
            errors.append(f"search-beta width {i}: {widths[i]} != {INV_PHI:.6f} x {widths[i - 1]}")
    return errors if widths else ["search-beta printed no bracket widths"]


def check_scores(got: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> bool:
    """Score vectors agree within ``rel`` of the reference's largest magnitude."""
    return bool(np.abs(got - want).max() <= rel * max(float(np.abs(want).max()), 1e-300))
