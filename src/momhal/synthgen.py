"""Deterministic synthetic dataset: backbone features plus authentic
per-stream ground-truth descriptors.

Class identity drives the det1 detections (label, box anchor, confidence,
score indices) and the sal1 blob position, so those two streams carry the
class signal; det2..det4 and sal2 are class-free noise, and the four
auxiliary streams follow a class-free latent that is also mixed into the
backbone features.  Detection and saliency targets are produced by running
the real encoders over the generated records and frames, then power
normalizing and sketching them, so hallucination targets are genuine
descriptors rather than noise.

On disk a dataset directory holds: dataset.cfg (key-value metadata),
labels.csv, features.npy of shape (videos, backbone_dim, tau),
aux_<stream>.npy raw auxiliary targets, detections.jsonl, and
saliency/ PGM frames listed by manifest.txt.

The target cache.  ``load_dataset`` keeps each stream's sketched targets,
an (n_videos, sketch_dim) f64 matrix, as cache/<stream>-<32 hex>.npy in the
dataset directory and runs the encoders only for streams it does not find
there.  The key is a blake2b digest of the bytes of every input the
stream's targets read (dataset.cfg, plus aux_<stream>.npy, or
detections.jsonl, or manifest.txt and every PGM it lists), the stream
name, sketch_dim, the SigmE slope eta, and the source of the modules that
compute a target, which holds the fixed encoder settings, so no change to
an input or to the encoder arithmetic can return stale targets.  Entries
are written atomically; an unreadable entry, or one of the wrong shape or
dtype, is rebuilt.  Writing a stream's entry deletes that stream's other
entries, so cache/ holds at most one entry per stream.
Deleting cache/ is always safe, and a directory that cannot be written
still loads, uncached.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .fusion import AUX_STREAMS, DET_STREAMS, SAL_STREAMS, STREAM_ORDER
from .halluc import TrainConfig, VideoArrays, time_pool
from .keyvalue import config_pairs, config_parsers, format_key_values, read_key_values, read_lines
from .odf import OdfConfig, check_tau, odf_descriptor, read_detections
from .pn import ETA, sigme
from .sdf import FRAME_DIM, N_DAGGER, read_pgm, read_saliency_manifest, sdf_descriptor, write_pgm
from .sketch import derive_stream_seed, project, sketch_new

LATENT_DIM = 8
SAL_WIDTH, SAL_HEIGHT = 32, 24   # saliency frame size in pixels
AUX_DIM = 96   # width of each raw auxiliary descriptor
# weights of the class, latent and noise terms of the backbone features
CLASS_SCALE, LATENT_SCALE, NOISE_SCALE = 3.0, 2.5, 1.0
CACHE_DIR = "cache"   # the target cache, inside the dataset directory
# The modules a target's arithmetic runs through; their source is part of
# every cache key, so a change to any of them can never return stale targets.
_TARGET_MODULES = ("kernel", "keyvalue", "moments", "odf", "pn", "sdf", "sketch", "synthgen")


@dataclass(frozen=True)
class SynthConfig:
    """The five values ``momhal synth`` takes, one flag each."""

    n_videos: int = 512
    n_classes: int = 8
    seed: int = 0
    backbone_dim: int = 64
    tau: int = 7

    def __post_init__(self):
        for name, low in (("n_videos", 1), ("n_classes", 2), ("seed", 0), ("backbone_dim", 1),
                          ("tau", 2)):
            if (value := getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        check_tau(self.tau)   # the records it writes must load


def _video_id(i: int) -> str:
    return f"v{i:04d}"


def _class_anchor(label: int, n_classes: int) -> tuple[float, float]:
    cols = max(2, int(np.ceil(np.sqrt(n_classes))))
    cx = 0.2 + 0.6 * (label % cols) / max(cols - 1, 1)
    cy = 0.25 + 0.5 * (label // cols) / max((n_classes - 1) // cols, 1)
    return cx, min(cy, 0.8)


def _noise_detection(rng: np.random.Generator, frame: int, tau: int, video: str, det: str) -> dict:
    p1 = rng.uniform(0.0, 0.75, size=2)
    p2 = p1 + rng.uniform(0.05, 0.25, size=2)
    idxs = rng.integers(0, 1001, size=3)
    vals = rng.uniform(0.1, 1.0, size=3)
    vals = vals / vals.sum()
    return {
        "video": video,
        "detector": det,
        "frame": frame,
        "tau": tau,
        "class": int(rng.integers(1, 172)),
        "conf": round(float(rng.uniform(0.05, 0.95)), 6),
        "box": [round(float(v), 6) for v in (p1[0], p1[1], min(p2[0], 1.0), min(p2[1], 1.0))],
        "inet_sparse": [[int(i), float(v)] for i, v in zip(idxs, vals)],
    }


def _signal_detection(
    rng: np.random.Generator,
    frame: int,
    cfg: SynthConfig,
    video: str,
    label: int,
    phase: int,
    variant: int,
) -> dict:
    """Class- and phase-determined detection; phase is the hidden +-1 sign
    of the video's class component in the backbone features.  Two variants
    per frame give the descriptor a within-frame spread that is itself
    class-determined rather than random."""
    cx, cy = _class_anchor(label, cfg.n_classes)
    if phase < 0:
        cy = 1.0 - cy
    if variant:
        cx = 1.0 - cx
    cx += float(rng.normal(0.0, 0.01))
    cy += float(rng.normal(0.0, 0.01))
    w = 0.18 + 0.04 * (label % 3)
    h = 0.14 + 0.03 * (label % 4)
    box = np.clip([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], 0.0, 1.0)
    box = [min(box[0], box[2]), min(box[1], box[3]), max(box[0], box[2]), max(box[1], box[3])]
    conf = float(np.clip(0.35 + 0.06 * label + 0.02 * rng.normal(), 0.0, 1.0))
    label_base = (10 if phase > 0 else 40) + 60 * variant
    inet_base = 100 + 5 * label + (40 if phase < 0 else 0) + 200 * variant
    jitter = rng.uniform(0.95, 1.05, size=3) * np.array([0.65, 0.25, 0.10])
    jitter = jitter / jitter.sum()
    return {
        "video": video,
        "detector": "det1",
        "frame": frame,
        "tau": cfg.tau,
        "class": label_base + label,
        "conf": round(conf, 6),
        "box": [round(float(v), 6) for v in box],
        "inet_sparse": [[inet_base + k, float(v)] for k, v in enumerate(jitter)],
    }


def _blob_anchor(label: int, phase: int, n_classes: int) -> tuple[float, float, float]:
    """Distinct saliency blob center and radius per (class, phase) pair."""
    idx = label + n_classes * (1 if phase < 0 else 0)
    cols = 4
    cx = 0.15 + 0.7 * (idx % cols) / (cols - 1)
    cy = 0.2 + 0.6 * ((idx // cols) % cols) / (cols - 1)
    return cx, cy, 2.0 + 0.3 * (idx % 5)


def _saliency_frame(
    rng: np.random.Generator,
    grid: np.ndarray,
    center: tuple[float, float],
    radius: float,
    t: int,
    label: int,
) -> np.ndarray:
    """One (H, W) frame; ``grid`` is ``np.mgrid[0:H, 0:W]``, built once per
    dataset."""
    yy, xx = grid
    h, w = yy.shape
    # class-determined temporal drift so the temporal cumulants carry the
    # class too, not just the mean
    px = center[0] * (w - 1) + 0.5 * t * np.cos(1.0 + label)
    py = center[1] * (h - 1) + 0.5 * t * np.sin(1.0 + label)
    blob = np.exp(-((xx - px) ** 2 + (yy - py) ** 2) / (2.0 * radius**2))
    vals = 0.15 + 0.72 * blob + 0.01 * rng.normal(size=(h, w))
    return np.clip(vals, 0.0, 1.0)


def generate_dataset(out_dir, cfg: SynthConfig) -> None:
    """Write a full synthetic dataset; byte-identical for identical configs.
    dataset.cfg, removed first and written atomically last, marks it complete."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.cfg").unlink(missing_ok=True)
    (out / "saliency").mkdir(exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    labels = np.tile(np.arange(cfg.n_classes), (cfg.n_videos + cfg.n_classes - 1) // cfg.n_classes)
    labels = labels[: cfg.n_videos]
    labels = labels[rng.permutation(cfg.n_videos)]
    # Hidden per-video sign of the class component.  It zeroes the class
    # means in feature space, so a linear readout of the raw features sits
    # at chance; the detection and saliency targets expose the
    # (class, phase) pair, which is what the hallucination streams learn.
    phases = rng.integers(0, 2, size=cfg.n_videos) * 2 - 1

    latent = rng.normal(size=(cfg.n_videos, LATENT_DIM))
    m_cls = rng.normal(size=(cfg.backbone_dim, cfg.n_classes))
    m_cls /= np.linalg.norm(m_cls, axis=0, keepdims=True)
    m_lat = rng.normal(size=(cfg.backbone_dim, LATENT_DIM))
    m_lat /= np.linalg.norm(m_lat, axis=0, keepdims=True)

    feats = (
        CLASS_SCALE * (phases[:, None] * m_cls[:, labels].T)[:, :, None]
        + LATENT_SCALE * (latent @ m_lat.T)[:, :, None]
        + NOISE_SCALE * rng.normal(size=(cfg.n_videos, cfg.backbone_dim, cfg.tau))
    )
    np.save(out / "features.npy", feats)

    aux_maps = {
        name: rng.normal(size=(AUX_DIM, LATENT_DIM)) / np.sqrt(LATENT_DIM)
        for name in AUX_STREAMS
    }
    for name in AUX_STREAMS:
        raw = latent @ aux_maps[name].T + 0.1 * rng.normal(size=(cfg.n_videos, AUX_DIM))
        np.save(out / f"aux_{name}.npy", raw)

    with open(out / "labels.csv", "w", encoding="utf-8") as fp:
        fp.write("video,label\n")
        for i in range(cfg.n_videos):
            fp.write(f"{_video_id(i)},{int(labels[i])}\n")

    manifest_lines: list[str] = []
    grid = np.mgrid[0:SAL_HEIGHT, 0:SAL_WIDTH]
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fp:
        for i in range(cfg.n_videos):
            video = _video_id(i)
            label = int(labels[i])
            phase = int(phases[i])
            for t in range(1, cfg.tau + 1):
                fp.write(json.dumps(_signal_detection(rng, t, cfg, video, label, phase, 0)) + "\n")
                fp.write(json.dumps(_signal_detection(rng, t, cfg, video, label, phase, 1)) + "\n")
                for det in DET_STREAMS[1:]:
                    for _ in range(int(rng.integers(1, 3))):
                        fp.write(json.dumps(_noise_detection(rng, t, cfg.tau, video, det)) + "\n")

            ax, ay, radius = _blob_anchor(label, phase, cfg.n_classes)
            sal_blobs = {
                "sal1": (ax, ay, radius),
                "sal2": (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)), 2.5),
            }
            for source in SAL_STREAMS:
                cx, cy, rad = sal_blobs[source]
                for t in range(1, cfg.tau + 1):
                    frame = _saliency_frame(rng, grid, (cx, cy), rad, t, label)
                    rel = f"saliency/{video}_{source}_f{t}.pgm"
                    write_pgm(out / rel, frame)
                    manifest_lines.append(f"{video} {source} {rel}")

    with open(out / "manifest.txt", "w", encoding="utf-8") as fp:
        fp.write("\n".join(manifest_lines) + "\n")

    write_atomic(out / "dataset.cfg", format_key_values(config_pairs(cfg)).encode("utf-8"))


def read_dataset_config(data_dir) -> SynthConfig:
    path = Path(data_dir) / "dataset.cfg"
    parsers = config_parsers(SynthConfig)
    kwargs = read_key_values(path, parsers)
    if missing := [key for key in parsers if key not in kwargs]:
        raise ValueError(f"{path}: missing key {missing[0]!r}")
    return SynthConfig(**kwargs)


def load_dataset(
    data_dir,
    sketch_dim: int,
    eta: float | None = None,
    streams: tuple[str, ...] | None = None,
) -> tuple[VideoArrays, int]:
    """Load a dataset directory as arrays for training and inference.

    Ground-truth descriptor targets are built here: the real ODF/SDF
    encoders run over the stored records and frames, raw auxiliary vectors
    are taken as-is, and everything is SigmE-normalized then sketched to
    ``sketch_dim`` with per-modality sketches seeded from the dataset seed;
    SigmE uses the slope ``eta`` (default ``pn.ETA``), and ``streams``
    (default: all) are checked and put in ``STREAM_ORDER`` as
    ``TrainConfig`` does with its own.
    Each stream's targets are kept in the target cache (module docstring)
    and rebuilt only when its key is not there.  ``streams=()`` reads no
    target input at all.
    """
    checked = TrainConfig(eta=ETA if eta is None else float(eta),
                          streams=STREAM_ORDER if streams is None else tuple(streams))
    eta, wanted = checked.eta, checked.streams
    data_dir = Path(data_dir)
    meta = read_dataset_config(data_dir)

    feats = _load_rows(data_dir / "features.npy", meta.n_videos, (meta.backbone_dim, meta.tau),
                       f"dataset.cfg has backbone_dim = {meta.backbone_dim}, tau = {meta.tau}")
    labels = _read_labels(data_dir / "labels.csv", meta.n_videos, meta.n_classes)
    targets = _stream_targets(data_dir, meta, wanted, sketch_dim, eta)
    return VideoArrays(time_pool(feats), targets, np.array(labels), wanted), meta.n_classes


def _load_rows(path: Path, n_videos: int, shape: tuple[int, ...], source: str) -> np.ndarray:
    """An ``.npy`` array of ``n_videos`` rows of ``shape``; ``source`` says
    where that shape comes from."""
    try:
        arr = np.load(path)
    except (ValueError, EOFError) as exc:   # a damaged file; a missing one raises OSError
        raise ValueError(f"{path}: {exc}") from exc
    rows = arr.shape[0] if arr.ndim else 0
    if rows != n_videos:
        raise ValueError(f"{path}: {rows} rows, but dataset.cfg has n_videos = {n_videos}")
    if arr.shape[1:] != shape:
        raise ValueError(f"{path}: rows of shape {arr.shape[1:]}, but {source}")
    return arr


def _read_labels(path: Path, n_videos: int, n_classes: int) -> list[int]:
    """The class id of each video, in video order, from ``video,label``
    lines; each video is one of v0000..v{n_videos-1} and is named once, and
    each id lies in [0, n_classes)."""
    videos = [_video_id(i) for i in range(n_videos)]
    known = set(videos)
    labels: dict[str, int] = {}

    def label(line: str) -> None:
        video, sep, value = line.partition(",")
        if not sep:
            raise ValueError("expected 'video,label'")
        if video not in known:
            raise ValueError(f"video {video!r} outside {videos[0]}..{videos[-1]}")
        if video in labels:
            raise ValueError(f"repeated video {video!r}")
        labels[video] = int(value)
        if not 0 <= labels[video] < n_classes:
            raise ValueError(f"label {labels[video]} outside [0, {n_classes - 1}]")

    with open(path, "rb") as fp:
        fp.readline()   # the header: line 1, counted below as a blank line
        read_lines(chain([b""], fp), str(path), label)
    missing = [video for video in videos if video not in labels]
    if missing:
        raise ValueError(f"{path}: no label for video {missing[0]!r}")
    return [labels[video] for video in videos]


def _source_digest() -> bytes:
    """Digest of the source of every module a target's arithmetic runs in."""
    h = hashlib.blake2b(digest_size=16)
    for module in _TARGET_MODULES:
        h.update(Path(__file__).with_name(f"{module}.py").read_bytes())
    return h.digest()


def _cache_names(
    data_dir: Path, wanted: tuple[str, ...], sketch_dim: int, eta: float,
    frame_paths: list[Path],
) -> dict[str, str]:
    """``<stream>-<32 hex>.npy`` per stream, keyed by everything its targets
    depend on; each input file is read and hashed once."""
    digests: dict[Path, bytes] = {}

    def digest(path: Path) -> bytes:
        if path not in digests:
            digests[path] = hashlib.blake2b(path.read_bytes(), digest_size=16).digest()
        return digests[path]

    common = [_source_digest(), digest(data_dir / "dataset.cfg")]
    names = {}
    for name in wanted:
        if name in AUX_STREAMS:
            inputs = [data_dir / f"aux_{name}.npy"]
        elif name in DET_STREAMS:
            inputs = [data_dir / "detections.jsonl"]
        else:
            inputs = [data_dir / "manifest.txt", *frame_paths]
        h = hashlib.blake2b(repr((name, sketch_dim, eta)).encode() + b"\0", digest_size=16)
        for part in common + [digest(path) for path in inputs]:
            h.update(part)
        names[name] = f"{name}-{h.hexdigest()}.npy"
    return names


def _read_entry(path: Path, shape: tuple[int, int]) -> np.ndarray | None:
    """A cached target matrix, or None if it is absent or unreadable or has
    the wrong shape or dtype."""
    try:
        arr = np.load(path)
    except (OSError, ValueError, EOFError):
        return None
    return arr if arr.shape == shape and arr.dtype == np.float64 else None


def _stream_targets(
    data_dir: Path, meta: SynthConfig, wanted: tuple[str, ...], sketch_dim: int,
    eta: float,
) -> np.ndarray:
    """The (n_videos, sketch_dim) target matrices of the wanted streams,
    stacked in their order, from the cache where it holds one; the others
    are encoded and cached."""
    if not wanted:
        return np.zeros((0, meta.n_videos, sketch_dim))
    sal_groups = (
        read_saliency_manifest(data_dir / "manifest.txt")
        if any(s in wanted for s in SAL_STREAMS)
        else {}
    )
    frame_paths = [path for paths in sal_groups.values() for path in paths]
    cache = data_dir / CACHE_DIR
    names = _cache_names(data_dir, wanted, sketch_dim, eta, frame_paths)
    targets = {name: _read_entry(cache / names[name], (meta.n_videos, sketch_dim))
               for name in wanted}
    if missing := [name for name, arr in targets.items() if arr is None]:
        targets.update(_encode_targets(data_dir, meta, missing, sketch_dim, eta, sal_groups))
        try:
            cache.mkdir(exist_ok=True)
            for name in missing:
                buf = io.BytesIO()
                np.save(buf, targets[name])
                write_atomic(cache / names[name], buf.getvalue())
                for old in cache.glob(f"{name}-*.npy"):   # one entry per stream
                    if old.name != names[name]:
                        old.unlink(missing_ok=True)
        except OSError:
            pass   # an unwritable data directory still loads; nothing is cached
    return np.array([targets[name] for name in wanted])


def _encode_targets(
    data_dir: Path, meta: SynthConfig, streams: list[str], sketch_dim: int,
    eta: float, sal_groups: dict[tuple[str, str], list[Path]],
) -> dict[str, np.ndarray]:
    """Run the encoders: the sketched, SigmE-normalized targets of
    ``streams``, one row per video."""
    odf_cfg = OdfConfig()
    det_path, manifest = data_dir / "detections.jsonl", data_dir / "manifest.txt"
    det_groups = read_detections(det_path) if any(s in streams for s in DET_STREAMS) else {}

    def descriptor(video: str, name: str) -> np.ndarray:
        det = name in DET_STREAMS
        groups, path = (det_groups, det_path) if det else (sal_groups, manifest)
        if (video, name) not in groups:
            raise ValueError(f"{path}: no entries for video {video!r} and "
                             f"{'detector' if det else 'source'} {name!r}")
        if det:
            tau, dets = groups[video, name]
            return odf_descriptor(dets, tau, odf_cfg).flat()
        return sdf_descriptor([read_pgm(p) for p in groups[video, name]], N_DAGGER).flat()

    targets = {}
    for name in streams:
        if name in AUX_STREAMS:
            raw_dim = AUX_DIM
            psis = _load_rows(data_dir / f"aux_{name}.npy", meta.n_videos, (AUX_DIM,),
                              f"synth writes rows of width AUX_DIM = {AUX_DIM}")
        else:
            raw_dim = (odf_cfg.dim * (4 + odf_cfg.n_prime) if name in DET_STREAMS
                       else FRAME_DIM * (4 + N_DAGGER))
            psis = (descriptor(_video_id(i), name) for i in range(meta.n_videos))
        sk = sketch_new(raw_dim, sketch_dim, derive_stream_seed(meta.seed, name, "gt"))
        targets[name] = np.array([project(sk, sigme(psi, eta)) for psi in psis])
    return targets
