"""Command-line front end.

Exit codes: 0 success, 1 runtime error, 2 empty or invalid input.
Every command taking --seed is reproducible byte-for-byte in
single-threaded mode; --threads (at least 1; default: the usable CPUs)
only runs per-video encoding jobs in parallel, largest bag first, and
changes no output byte or order.  Every text input (detections,
manifest, --tau-source, config document, dataset.cfg, labels.csv) goes
through one line reader: a byte that is not UTF-8, a malformed line, an
unknown or repeated key or video, or a bad value is refused with
``file: line N: ...`` and exit code 1.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .atomic import write_atomic
from .fusion import BETA_BRACKET, golden_section_max
from .halluc import (
    TrainConfig,
    accuracy,
    beta_objective,
    load_checkpoint,
    metrics_to_csv,
    save_checkpoint,
    train,
    usable_cpus,
)
from .keyvalue import config_pairs, config_parsers, format_key_values, read_key_values, read_lines
from .moments import descriptor_to_bytes
from .odf import EmptyDetectorError, OdfConfig, check_tau, odf_descriptor, read_detections
from .sdf import N_DAGGER, read_pgm, read_saliency_manifest, sdf_descriptor
from .synthgen import SynthConfig, generate_dataset, load_dataset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2


def _output_paths(out: Path, keys) -> dict[tuple[str, str], Path]:
    """``out/{video}__{id}.mmd`` for each (video, id) key.  Refuses an id
    that holds a path separator or a NUL byte or starts with '.', and two
    keys that would write the same file."""
    owners: dict[Path, tuple[str, str]] = {}
    for key in keys:
        for part in key:
            if any(c in part for c in "/\\\0") or part.startswith("."):
                raise ValueError(f"id {part!r} cannot name an output file: "
                                 "it holds a path separator or a NUL byte, or starts with '.'")
        path = out / f"{key[0]}__{key[1]}.mmd"
        if path in owners:
            raise ValueError(f"ids {owners[path]} and {key} both map to {path.name}")
        owners[path] = key
    return {key: path for path, key in owners.items()}


def _read_taus(path, videos) -> dict[str, int]:
    """``video tau`` lines (blank lines and ``#`` comments skipped), one per
    video, each a video of ``videos``."""
    taus = {}

    def entry(line: str) -> None:
        if line.startswith("#"):
            return
        fields = line.split()
        if len(fields) != 2:
            raise ValueError("expected 'video tau'")
        if fields[0] not in videos:
            raise ValueError(f"video {fields[0]!r} has no detection records")
        if fields[0] in taus:
            raise ValueError(f"repeated video {fields[0]!r}")
        taus[fields[0]] = check_tau(int(fields[1]))

    with open(path, "rb") as fp:
        read_lines(fp, str(path), entry)
    return taus


def _positive_int(text: str) -> int:
    """An integer of at least 1, checked before any output exists."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _run_largest_first(job, items: list, size, threads: int) -> list:
    """``job(item)`` for each item on a pool of ``threads``, largest
    ``size(item)`` first; the results come back in the order of ``items``."""
    order = sorted(range(len(items)), key=lambda i: size(items[i]), reverse=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {i: pool.submit(job, items[i]) for i in order}
        return [futures[i].result() for i in range(len(items))]


def cmd_encode_odf(args) -> int:
    groups = read_detections(args.input, strict=not args.lenient)
    if not groups:
        print("no records", file=sys.stderr)
        return EXIT_EMPTY
    if args.tau_source != "records":
        taus = _read_taus(args.tau_source, {video for video, _ in groups})
        groups = {key: (taus.get(key[0], tau), dets) for key, (tau, dets) in groups.items()}
        for (video, detector), (tau, dets) in groups.items():
            if (frame := int(dets.columns().frame.max())) > tau:
                raise ValueError(f"{args.tau_source}: video {video!r} has tau {tau}, but "
                                 f"detector {detector!r} has a record at frame {frame}")
    cfg = OdfConfig(use_rbf_embedding=not args.no_rbf, n_prime=args.n_prime)
    out = Path(args.out)
    paths = _output_paths(out, groups)
    out.mkdir(parents=True, exist_ok=True)

    def job(item):
        (video, detector), (tau, dets) = item
        return video, detector, tau, len(dets), odf_descriptor(dets, tau, cfg)

    results = _run_largest_first(job, sorted(groups.items()), lambda item: len(item[1][1]),
                                 args.threads)
    print(f"{'video':<12} {'detector':<10} {'boxes':>6} {'tau':>5} {'dim':>6} {'flat':>7}")
    for video, detector, tau, count, desc in results:
        write_atomic(paths[video, detector], descriptor_to_bytes(desc))
        print(f"{video:<12} {detector:<10} {count:>6} {tau:>5} {desc.dim:>6} {desc.flat().size:>7}")
    print(f"wrote {len(results)} descriptors to {out}")
    return EXIT_OK


def cmd_encode_sdf(args) -> int:
    groups = read_saliency_manifest(args.manifest)
    if not groups:
        print("no frames", file=sys.stderr)
        return EXIT_EMPTY
    out = Path(args.out)
    paths = _output_paths(out, groups)
    out.mkdir(parents=True, exist_ok=True)

    def job(item):
        (video, source), frame_paths = item
        desc = sdf_descriptor([read_pgm(p) for p in frame_paths], args.n_dagger)
        return video, source, len(frame_paths), desc

    results = _run_largest_first(job, sorted(groups.items()), lambda item: len(item[1]),
                                 args.threads)
    print(f"{'video':<12} {'source':<8} {'frames':>6} {'dim':>6} {'flat':>7}")
    for video, source, count, desc in results:
        write_atomic(paths[video, source], descriptor_to_bytes(desc))
        print(f"{video:<12} {source:<8} {count:>6} {desc.dim:>6} {desc.flat().size:>7}")
    print(f"wrote {len(results)} descriptors to {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(**{key: getattr(args, key) for key in config_parsers(SynthConfig)})
    generate_dataset(args.out, cfg)
    print(f"wrote {cfg.n_videos} videos / {cfg.n_classes} classes to {args.out}")
    return EXIT_OK


_CONFIG_KEYS = {"data_dir": str, "out_dir": str, **config_parsers(TrainConfig)}


def _build_train_config(args) -> tuple[TrainConfig, str, str]:
    values = read_key_values(args.config, _CONFIG_KEYS) if args.config else {}
    flags = {"data_dir": args.data or None, "out_dir": args.out or None, "epochs": args.epochs,
             "seed": args.seed, "learning_rate": args.learning_rate}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    if args.streams is not None:   # --streams "" trains the pass-through unit alone
        values["streams"] = _CONFIG_KEYS["streams"](args.streams)
    if "data_dir" not in values:
        raise ValueError("data_dir required (config key data_dir or --data)")
    data_dir, out_dir = values.pop("data_dir"), values.pop("out_dir", "run")
    return TrainConfig(**values), data_dir, out_dir


def cmd_train(args) -> int:
    cfg, data_dir, out_dir = _build_train_config(args)
    data, n_classes = load_dataset(data_dir, cfg.sketch_dim, cfg.eta, cfg.streams)
    if (top := data.labels.max()) != n_classes - 1:   # train sizes by labels
        raise ValueError(f"{Path(data_dir) / 'labels.csv'}: the largest label is {top}, but "
                         f"{Path(data_dir) / 'dataset.cfg'} has n_classes = {n_classes}")
    model, metrics = train(data, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.hal")
    write_atomic(out / "metrics.csv", metrics_to_csv(metrics, cfg.streams).encode())
    resolved = [("data_dir", data_dir), ("out_dir", out_dir), *config_pairs(cfg)]
    write_atomic(out / "config.cfg", format_key_values(resolved).encode())
    final = metrics[-1]["val_acc"] if metrics else float("nan")
    print(f"trained {cfg.epochs} epochs; final val accuracy {final:.4f}")
    print(f"checkpoint: {out / 'checkpoint.hal'}")
    return EXIT_OK


def _model_and_data(args):
    """The checkpoint at ``--model`` and the videos at ``--data``, without
    targets, which must have the model's classes."""
    model = load_checkpoint(args.model)
    data, n_classes = load_dataset(args.data, model.config.sketch_dim, streams=())
    if n_classes != model.n_classes:
        raise ValueError(f"{Path(args.data) / 'dataset.cfg'}: n_classes = {n_classes}, "
                         f"but the model has {model.n_classes} classes")
    return model, data


def cmd_eval(args) -> int:
    model, data = _model_and_data(args)
    print(f"accuracy {accuracy(model, data):.4f} over {len(data.labels)} videos")
    return EXIT_OK


def cmd_search_beta(args) -> int:
    model, data = _model_and_data(args)
    score = beta_objective(model, data)
    result = golden_section_max(score, *BETA_BRACKET, args.iters)
    for i, width in enumerate(result.widths):
        print(f"iter {i}: bracket width {width:.6f}")
    print(f"beta* = {result.beta_star:.6f}, val accuracy {result.f_star:.4f}, "
          f"bracket [{result.bracket[0]:.6f}, {result.bracket[1]:.6f}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="momhal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode-odf", help="detections JSONL -> per-(video,detector) descriptors")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-rbf", action="store_true")
    p.add_argument("--n-prime", type=_positive_int, default=OdfConfig.n_prime)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--tau-source", default="records",
                   help="'records' or a file of 'video tau' lines")
    p.add_argument("--threads", type=_positive_int, default=usable_cpus())
    p.set_defaults(func=cmd_encode_odf)

    p = sub.add_parser("encode-sdf", help="saliency manifest -> per-(video,source) descriptors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-dagger", type=_positive_int, default=N_DAGGER)
    p.add_argument("--threads", type=_positive_int, default=usable_cpus())
    p.set_defaults(func=cmd_encode_sdf)

    p = sub.add_parser("synth", help="write a deterministic synthetic dataset")
    p.add_argument("--out", required=True)
    for flag, key in (("--videos", "n_videos"), ("--classes", "n_classes"), ("--seed", "seed"),
                      ("--backbone-dim", "backbone_dim"), ("--tau", "tau")):
        p.add_argument(flag, dest=key, type=int, default=getattr(SynthConfig, key))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the hallucination model")
    p.add_argument("--config", help="key-value config document; flags override")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--out", help="run directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--streams", help="comma-separated stream subset")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search-beta", help="golden-section search over the pooling exponent")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=_positive_int, default=20)
    p.set_defaults(func=cmd_search_beta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyDetectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
