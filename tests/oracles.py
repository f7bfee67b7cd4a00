"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: dense
eigendecompositions instead of the Gram shortcut, per-pixel loops instead
of einsum, explicit sums instead of vectorized cumulants, one unit and one
sketched vector at a time instead of the stacked units, pooling level by
level instead of the flattened coefficients.

The detection reader's oracle builds the dense 1001-vector of every line
and checks it as a whole, where the library keeps only the nonzero scores.

It also holds the statistics of the kernel and the count sketch that
criteria 2 and 3 measure: the relative RMS error of a feature map's scaled
inner product against the RBF kernel, and a Monte-Carlo estimate of the
sketched inner product's bias and variance.
"""

import json
from typing import NamedTuple

import numpy as np

from momhal.fusion import GROUP_DET, GROUP_SAL, GROUP_TOP, HAF_ID, eq9_ratios
from momhal.kernel import RING_UNIT, FeatureMapConfig, feature_map_batch
from momhal.moments import FeatureBag
from momhal.odf import CLASS_SPACE_SIZE, IMAGENET_SIZE, MAX_TAU, SCORE_SUM_TOL
from momhal.pn import sigme
from momhal.sketch import project, splitmix64


def bag_of_frames(dim, frames):
    """A FeatureBag of per-frame (K_j, dim) arrays, copied into one matrix."""
    frames = [np.asarray(f, dtype=np.float64).reshape(-1, dim) for f in frames]
    return FeatureBag(np.concatenate([np.empty((0, dim)), *frames]), [len(f) for f in frames])


def dense_multi_moment(frames, n_prime, eps=1e-12):
    """Brute-force multi-moment descriptor: explicit covariance
    eigendecomposition plus direct cumulant sums.  Returns the flat vector
    with the same sign convention (largest-magnitude component positive).
    """
    data = np.concatenate(frames, axis=0)
    n, d = data.shape
    j_total = len(frames)
    mu = data.sum(axis=0) / n

    mu_norm = np.sqrt(float(mu @ mu))
    mean_dir = mu / mu_norm if mu_norm >= eps else np.zeros(d)

    cols = []
    for frame in frames:
        k = frame.shape[0]
        for row in frame:
            cols.append((row - mu) / (j_total * k))
    upsilon = np.array(cols).T if cols else np.zeros((d, 0))

    cov = upsilon @ upsilon.T
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    v = v[:, order]

    # same rank rule as the library: the squared problem's noise floor is
    # ~machine-eps * top eigenvalue, i.e. ~1e-8 * s_max after the sqrt
    n_cols = upsilon.shape[1]
    s_max = np.sqrt(w[0]) if len(w) else 0.0
    tol = max(eps, s_max * np.sqrt(max(d, n_cols) * np.finfo(np.float64).eps))
    eigvecs = np.zeros((n_prime, d))
    rank_limit = min(n_prime, n_cols, d)
    for i in range(rank_limit):
        if np.sqrt(w[i]) > tol:
            u = v[:, i]
            k = int(np.argmax(np.abs(u)))
            eigvecs[i] = -u if u[k] < 0 else u

    centered = data - mu
    k2 = np.zeros(d)
    k3 = np.zeros(d)
    k4 = np.zeros(d)
    for row in centered:
        k2 += row**2
        k3 += row**3
        k4 += row**4
    k2, k3, k4 = k2 / n, k3 / n, k4 / n
    guard = np.maximum(k2, eps)
    skew = k3 / guard**1.5
    kurt = k4 / guard**2

    spectrum = np.zeros(d)
    take = min(d, len(w))
    spectrum[:take] = w[:take]
    spectrum /= max(float(spectrum.sum()), eps)

    return np.concatenate([mean_dir, eigvecs.ravel(), skew, kurt, spectrum])


def per_frame_upsilon(frames, mu):
    """Frame-weighted centered matrix built a frame at a time: a transposed,
    divided copy of each nonempty frame, joined along the columns."""
    j_total = len(frames)
    cols = [(frame - mu).T / (j_total * frame.shape[0]) for frame in frames if frame.shape[0]]
    return np.concatenate(cols, axis=1) if cols else np.zeros((mu.size, 0))


def pixel_loop_gradient_encoding(amplitude, orientation, z_ang=12, z_sp=5, sigma=0.5):
    """Per-pixel triple Kronecker product, summed with explicit loops."""
    h, w = amplitude.shape
    ang_pivots = np.arange(z_ang) / z_ang
    sp_pivots = np.arange(z_sp) / (z_sp - 1)

    def ring_map(x):
        d = np.abs(x - ang_pivots)
        d = np.minimum(d, 1.0 - d)
        return np.exp(-(d * d) / sigma**2)

    def interval_map(x):
        d = np.abs(x - sp_pivots)
        return np.exp(-(d * d) / sigma**2)

    out = np.zeros(z_ang * z_sp * z_sp)
    for r in range(h):
        for c in range(w):
            phi = ring_map(orientation[r, c])
            px = interval_map(c / (w - 1))
            py = interval_map(r / (h - 1))
            out += amplitude[r, c] * np.kron(phi, np.kron(px, py))
    return out


def unit_chain_rows(model, k, z):
    """Unit k of ``model`` (the pass-through unit is last) on the rows of z,
    one unit and, for the sketch, one row at a time: the affine map, SigmE
    and count sketch that the stacked pass must match bit for bit.  Returns
    (SigmE outputs, sketched outputs)."""
    pre = sigme(z @ model.weight[k].T + model.bias[k], model.config.eta)
    return pre, np.array([project(model.sketches.sketches[k], row) for row in pre])


def unit_outputs(model, features):
    """{unit name: (n, d') sketched outputs} of every unit of ``model`` on n
    videos' (b, t) backbone features, mean-pooled over time."""
    z = np.array(features, dtype=np.float64).mean(axis=2)
    names = (*model.streams, HAF_ID)
    return {name: unit_chain_rows(model, k, z)[1] for k, name in enumerate(names)}


def pooled(streams, spec, group):
    """Weighted mean of a group's stream vectors (eq. 9).

    Non-top groups return the convex mean sum r_i psi_i.  The top group
    adds the pass-through term with its fixed weight and divides by
    |members| + 1.
    """
    if group not in spec.groups:
        raise ValueError(f"unknown group {group!r}")
    members = spec.groups[group]
    if not members:
        raise ValueError(f"group {group!r} has no members")
    missing = [sid for sid in members if sid not in streams]
    if missing:
        raise ValueError(f"missing streams {missing} for group {group}")
    dim = None
    for sid in members:
        v = np.asarray(streams[sid], dtype=np.float64)
        if dim is None:
            dim = v.shape
        elif v.shape != dim:
            raise ValueError(f"stream {sid} has shape {v.shape}, expected {dim}")

    weighted = [sid for sid in members if sid != HAF_ID]
    acc = np.zeros(dim)
    if weighted:
        w = np.array([spec.raw_weights[sid] for sid in weighted])
        for sid, r in zip(weighted, eq9_ratios(w / w.max(), spec.beta, spec.rho)):
            acc += r * np.asarray(streams[sid], dtype=np.float64)
    if HAF_ID in members:
        acc += spec.haf_weight * np.asarray(streams[HAF_ID], dtype=np.float64)
        return acc / (len(weighted) + 1)
    return acc


def pooled_total(streams, spec):
    """Three-level pooling: detector and saliency groups first, then the top
    group over auxiliary streams, "det", "sal", and the pass-through."""
    combined = dict(streams)
    if spec.groups[GROUP_DET]:
        combined["det"] = pooled(streams, spec, GROUP_DET)
    if spec.groups[GROUP_SAL]:
        combined["sal"] = pooled(streams, spec, GROUP_SAL)
    return pooled(combined, spec, GROUP_TOP)


def _domain_grid(cfg: FeatureMapConfig, grid_size: int) -> np.ndarray:
    if cfg.domain == RING_UNIT:
        return np.arange(grid_size) / grid_size
    return np.linspace(0.0, 1.0, grid_size)


def kernel_gram(xs: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Target RBF kernel matrix G_sigma(x - x') over a set of scalars,
    using the wrap-around distance on the ring."""
    d = np.abs(xs[:, None] - xs[None, :])
    if cfg.domain == RING_UNIT:
        d = np.minimum(d, 1.0 - d)
    return np.exp(-(d * d) / (2.0 * cfg.sigma * cfg.sigma))


def kernel_approx_constant(cfg: FeatureMapConfig, grid_size: int) -> float:
    """Least-squares scale c such that c * <phi(x), phi(x')> best matches
    the RBF kernel G_sigma(x - x') over a uniform grid of pairs.

    The closed-form minimizer of sum((c*k - g)^2) is sum(k*g)/sum(k*k).
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    xs = _domain_grid(cfg, grid_size)
    feats = feature_map_batch(xs, cfg)
    k = feats @ feats.T
    denom = float((k * k).sum())
    if denom <= 0.0 or not np.isfinite(denom):
        raise ValueError("degenerate feature inner products; cannot fit scale")
    g = kernel_gram(xs, cfg)
    return float((k * g).sum() / denom)


def kernel_approx_error(cfg: FeatureMapConfig, grid_size: int) -> tuple[float, float]:
    """Fitted scale c and the relative RMS error of c * <phi, phi> against
    the RBF kernel over the grid: ||c*K - G||_F / ||G||_F."""
    c = kernel_approx_constant(cfg, grid_size)
    xs = _domain_grid(cfg, grid_size)
    feats = feature_map_batch(xs, cfg)
    k = feats @ feats.T
    g = kernel_gram(xs, cfg)
    err = float(np.sqrt(((c * k - g) ** 2).mean()) / np.sqrt((g * g).mean()))
    return c, err


class UnbiasednessReport(NamedTuple):
    mean_error: float
    empirical_variance: float
    variance_bound: float


def unbiasedness_check(d: int, d_prime: int, trials: int, seed: int) -> UnbiasednessReport:
    """Monte-Carlo check of the sketched inner-product estimator.

    Draws ``trials`` independent sketches, estimates <P psi, P psi'> for a
    fixed seeded pair (psi, psi'), and reports |mean - <psi, psi'>|, the
    empirical variance, and the analytic bound
    (1/d')(<psi, psi'>^2 + ||psi||^2 ||psi'||^2).
    """
    if d < 1 or d_prime < 1:
        raise ValueError("dimensions must be >= 1")
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d)
    psi2 = rng.normal(size=d)
    exact = float(psi @ psi2)

    # One splitmix substream per trial, identical to sketch_new(d, d', seed_k).
    z = np.array([splitmix64(int(seed_k), 2 * d) for seed_k in splitmix64(seed, trials)])
    h0 = (z[:, :d] % np.uint64(d_prime)).astype(np.int64)
    s = (z[:, d:] >> np.uint64(63)).astype(np.float64) * 2.0 - 1.0

    a = np.zeros((trials, d_prime))
    b = np.zeros((trials, d_prime))
    rows = np.repeat(np.arange(trials), d)
    np.add.at(a, (rows, h0.ravel()), (s * psi).ravel())
    np.add.at(b, (rows, h0.ravel()), (s * psi2).ravel())
    est = (a * b).sum(axis=1)

    bound = (exact * exact + float(psi @ psi) * float(psi2 @ psi2)) / d_prime
    return UnbiasednessReport(
        mean_error=abs(float(est.mean()) - exact),
        empirical_variance=float(est.var(ddof=1)),
        variance_bound=bound,
    )


def _json_value(obj, key, kinds, kind):
    value = obj[key]
    if type(value) not in kinds:
        raise ValueError(f"'{key}' must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _json_array(value, kinds, name, kind):
    if type(value) is not list or any(type(v) not in kinds for v in value):
        raise ValueError(f"{name} must be a JSON array of {kind}s")
    return value


def _no_repeated_keys(pairs):
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"repeated key {key!r}")
    return dict(pairs)


def _dense_line(line, strict):
    """(video, detector, tau, (frame, label, conf, box, dense scores)) of one
    detections line, or ValueError: the JSON types first, then tau's range,
    then the record (strict: label, confidence, box, scores as one dense
    vector; lenient: clamp, reorder, divide by the dense total, or the
    uniform vector when nothing is left), then the frame."""
    obj = json.JSONDecoder(object_pairs_hook=_no_repeated_keys).decode(line)
    if type(obj) is not dict:
        raise ValueError("expected a JSON object")
    for key in ("video", "detector", "frame", "tau", "class", "conf", "box"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    video = _json_value(obj, "video", {str}, "string")
    detector = _json_value(obj, "detector", {str}, "string")
    tau = _json_value(obj, "tau", {int}, "integer")
    frame = _json_value(obj, "frame", {int}, "integer")
    label = _json_value(obj, "class", {int}, "integer")
    conf = float(_json_value(obj, "conf", {int, float}, "number"))
    box = [float(v) for v in _json_array(obj["box"], {int, float}, "'box'", "number")]
    if ("inet" in obj) == ("inet_sparse" in obj):
        raise ValueError("record needs exactly one of 'inet' and 'inet_sparse'")
    if "inet" in obj:
        scores = np.array(_json_array(obj["inet"], {int, float}, "'inet'", "number"),
                          dtype=np.float64)
    else:
        scores = np.zeros(IMAGENET_SIZE)
        for pair in _json_array(obj["inet_sparse"], {list}, "'inet_sparse'", "array"):
            if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) not in (int, float):
                raise ValueError(f"an 'inet_sparse' entry must be an [integer, number] pair, "
                                 f"got {json.dumps(pair)}")
            if not 0 <= pair[0] < IMAGENET_SIZE:
                raise ValueError(f"inet_sparse index {pair[0]} outside [0, {IMAGENET_SIZE - 1}]")
            with np.errstate(over="ignore"):
                scores[pair[0]] = scores[pair[0]] + float(pair[1])
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > MAX_TAU:
        raise ValueError(f"tau must be <= MAX_TAU = {MAX_TAU}, got {tau}")
    if not strict:
        if len(box) != 4:
            raise ValueError("box must have 4 coordinates")
        if scores.shape != (IMAGENET_SIZE,):
            raise ValueError(f"imagenet_scores must have length {IMAGENET_SIZE}")
        if not np.isfinite(box).all():
            raise ValueError("box holds non-finite values")
        if not np.isfinite(scores).all():
            raise ValueError("imagenet_scores holds non-finite values")
        v = np.clip(np.array(box), 0.0, 1.0)
        scores = np.clip(scores, 0.0, None)
        total = float(scores.sum())
        scores = scores / total if total > 0 else np.full(IMAGENET_SIZE, 1.0 / IMAGENET_SIZE)
        frame = min(max(frame, 1), tau)
        conf = float(min(max(conf, 0.0), 1.0))
        box = [min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3])]
    elif scores.shape != (IMAGENET_SIZE,):
        raise ValueError(f"imagenet_scores must have length {IMAGENET_SIZE}")
    box = tuple(float(v) for v in box)
    if not 1 <= label <= CLASS_SPACE_SIZE:
        raise ValueError(f"class label {label} outside [1, {CLASS_SPACE_SIZE}]")
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence {conf} outside [0, 1]")
    if len(box) != 4:
        raise ValueError("box must have 4 coordinates")
    if not all(0.0 <= v <= 1.0 for v in box):
        raise ValueError(f"box coordinates {box} outside [0, 1]")
    if box[0] > box[2] or box[1] > box[3]:
        raise ValueError(f"box {box} violates top-left <= bottom-right")
    if not np.isfinite(scores).all():
        raise ValueError("imagenet_scores holds non-finite values")
    if scores.min() < 0.0:
        raise ValueError("imagenet_scores must be nonnegative")
    if abs(float(scores.sum()) - 1.0) > SCORE_SUM_TOL:
        raise ValueError("imagenet_scores must sum to 1")
    if not 1 <= frame <= tau:
        raise ValueError(f"frame index {frame} outside [1, {tau}]")
    return video, detector, tau, (frame, label, conf, box, scores)


def dense_detections(path, strict=True):
    """{(video, detector): (tau, rows)} of a detections file, one row
    (frame, label, conf, box, dense (1001,) scores) per line in line order;
    a bad line, or a tau other than its video's earlier one, is refused as
    ``path: line N: message``."""
    groups, taus = {}, {}
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                video, detector, tau, row = _dense_line(line, strict)
                prev_tau = taus.setdefault(video, tau)
                if prev_tau != tau:
                    raise ValueError(f"tau {tau} conflicts with earlier {prev_tau} "
                                     f"for video {video!r}")
                groups.setdefault((video, detector), (tau, []))[1].append(row)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return groups
