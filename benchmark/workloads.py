"""The benchmark's workloads.

``pipeline``  momhal synth -> train (all 12 streams) -> eval -> search-beta
              -> train again from the resolved config, in one process, on
              inputs that do not depend on the seed; then one client in a
              closed loop loads the checkpoint, calls halluc.infer on one
              video's backbone features at a time, and evaluates the same
              videos batched.
``encode``    momhal encode-odf and encode-sdf over a generated corpus of
              long and short clips with mixed frame sizes.

A run sets up ``SETUP_REPEATS`` times, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, then checks every
output against the independent computations in ``reference.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus
import reference as ref
from envinfo import environment
from tracer import Tracer, per_layer_metrics

import momhal.halluc as halluc  # called through the module, so traced runs see the calls
from momhal.cli import main as momhal_main
from momhal.synthgen import load_dataset

SETUP_REPEATS = 3
N_PRIME = 3

# pipeline: 256 videos of 5 frames, 4 classes, 100 epochs.  The seed is
# fixed: search-beta fails on it (see README.md) and must fail on every run.
PIPELINE_SYNTH = {"videos": 256, "classes": 4, "tau": 5, "seed": 0}
PIPELINE_EPOCHS = 100
SEARCH_ITERS = 20
SEARCH_RIDGE_L2 = 1e-3          # TrainConfig.ridge_l2
SEARCH_VAL_FRACTION = 0.25      # TrainConfig.val_fraction

INFER_CALLS = 2000              # single-video calls per round
EVALUATE_REPEATS = 10           # batched evaluate calls per round


class NoGroundTruth(dict):
    """A ground-truth mapping that raises whenever it is read."""

    def _read(self, *args, **kwargs):
        raise AssertionError("inference read the ground truth")

    __getitem__ = __iter__ = __len__ = __contains__ = get = keys = values = items = _read


def cli(argv: list) -> tuple[int, str, float]:
    """Run ``momhal`` in this process; return (exit code, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = momhal_main([str(a) for a in argv])
    return code, buf.getvalue(), time.perf_counter() - start


def cold_import(root: Path) -> None:
    """Start a fresh interpreter and import the command-line program."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import momhal.cli"], env=env, check=True, timeout=150)


def _labels(data: Path) -> np.ndarray:
    lines = (data / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([int(line.split(",")[1]) for line in lines])


class Workload:
    """Set-up, one round of timed operations, and the checks."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def setup(self, k: int) -> None:
        """Default set-up: a cold start of the command-line program."""
        cold_import(self.root)

    def round(self) -> dict:
        raise NotImplementedError

    def check(self, rounds: list[dict]) -> tuple[list[str], int]:
        """Errors, and the number of operations that failed in the known way."""
        raise NotImplementedError

    def stages(self, rounds: list[dict]) -> dict:
        """Figures of single stages, reported beside the metrics."""
        raise NotImplementedError


class Pipeline(Workload):
    def round(self) -> dict:
        data, run, again = self.work / "data", self.work / "run", self.work / "run_again"
        r = {"codes": {}, "stdout": {}, "s": {}}
        for stage, argv in (
            ("synth", ["synth", "--out", data, "--videos", PIPELINE_SYNTH["videos"],
                       "--classes", PIPELINE_SYNTH["classes"], "--tau", PIPELINE_SYNTH["tau"],
                       "--seed", PIPELINE_SYNTH["seed"]]),
            ("train", ["train", "--data", data, "--out", run, "--epochs", PIPELINE_EPOCHS,
                       "--seed", PIPELINE_SYNTH["seed"]]),
            ("eval", ["eval", "--model", run / "checkpoint.hal", "--data", data]),
            ("search_beta", ["search-beta", "--model", run / "checkpoint.hal", "--data", data,
                             "--iters", SEARCH_ITERS]),
            ("train_again", ["train", "--config", run / "config.cfg", "--out", again]),
        ):
            r["codes"][stage], r["stdout"][stage], r["s"][stage] = cli(argv)
            if r["codes"][stage]:
                break
        r["ops"] = 5 + 1 + INFER_CALLS + EVALUATE_REPEATS
        if not any(r["codes"].values()):
            r["checkpoint"] = (run / "checkpoint.hal").read_bytes()
            r["metrics_csv"] = (run / "metrics.csv").read_text(encoding="utf-8")
            r["reproduced"] = ((again / "checkpoint.hal").read_bytes() == r["checkpoint"]
                               and (again / "metrics.csv").read_text(encoding="utf-8") == r["metrics_csv"])
            self.serve(run / "checkpoint.hal", r)
        return r

    def requests(self):
        """The dataset's videos with seed-drawn noise, and the order in
        which the client sends them; fixed for the whole run."""
        if not hasattr(self, "_requests"):
            data = self.work / "data"
            rng = np.random.default_rng((self.seed, 0x1F))
            feats = np.load(data / "features.npy")
            feats = feats + 0.1 * rng.normal(size=feats.shape)
            self._requests = (feats, _labels(data), rng.permutation(feats.shape[0]))
        return self._requests

    def serve(self, checkpoint: Path, r: dict) -> None:
        """One closed-loop client: load, single-video infer calls, then
        batched evaluate over the same videos with no ground truth."""
        feats, labels, order = self.requests()
        start = time.perf_counter()
        model = halluc.load_checkpoint(checkpoint)
        lat = np.empty(INFER_CALLS)
        scores = []
        for k in range(INFER_CALLS):
            x = feats[order[k % order.size]]
            t0 = time.perf_counter()
            s, _ = halluc.infer(model, x)
            lat[k] = time.perf_counter() - t0
            scores.append(s)
        videos = [halluc.SyntheticVideo(f, NoGroundTruth(), int(y)) for f, y in zip(feats, labels)]
        evals, accs, errors = [], set(), []
        for _ in range(EVALUATE_REPEATS):
            t0 = time.perf_counter()
            try:
                accs.add(halluc.evaluate(model, videos))
            except AssertionError as exc:
                errors.append(f"evaluate: {exc}")
            evals.append(time.perf_counter() - t0)
        r["s"]["serve"] = time.perf_counter() - start
        r.update(lat=lat, scores=scores, evals=evals, accs=accs, errors=errors)

    def stages(self, rounds):
        out = {f"{k}_s": _median([r["s"][k] for r in rounds])
               for k in ("synth", "train", "eval", "search_beta")}
        lat = np.sort(np.concatenate([r["lat"] for r in rounds])) * 1e6
        out.update(infer_p50_us=float(np.median(lat)),
                   infer_p99_us=float(lat[int(np.ceil(0.99 * lat.size)) - 1]),
                   infer_calls=int(lat.size),
                   eval_videos_per_s=self.requests()[1].size / _median([t for r in rounds for t in r["evals"]]))
        return out

    def check(self, rounds):
        data = self.work / "data"
        first = rounds[0]
        errors = [f"round {k}: checkpoint.hal or metrics.csv differs from round 1"
                  for k, r in enumerate(rounds[1:], start=2)
                  if (r["checkpoint"], r["metrics_csv"]) != (first["checkpoint"], first["metrics_csv"])]
        errors += [f"round {k}: train from the resolved config.cfg is not byte-identical"
                   for k, r in enumerate(rounds, start=1) if not r["reproduced"]]
        ck = ref.parse_checkpoint(first["checkpoint"])
        errors += ref.check_metrics_csv(first["metrics_csv"], ck["alpha"])

        feats, labels = np.load(data / "features.npy"), _labels(data)
        acc = float(np.mean(np.argmax(ref.dense_scores(ck, feats), axis=1) == labels))
        outs = ref.unit_outputs(ck, feats.mean(axis=2))
        val_idx, train_idx = ref.trainer_split(labels.size, PIPELINE_SYNTH["seed"], SEARCH_VAL_FRACTION)
        mismatched = 0
        for r in rounds:
            m = re.search(r"accuracy ([0-9.]+) over", r["stdout"]["eval"])
            if m is None or m.group(1) != f"{acc:.4f}":
                errors.append(f"eval accuracy {m and m.group(1)} != dense forward {acc:.4f}")
            widths = [float(w) for w in re.findall(r"bracket width ([0-9.]+)", r["stdout"]["search_beta"])]
            errors += ref.check_widths(widths)
            m = re.search(r"beta\* = ([0-9.]+), val accuracy ([0-9.]+)", r["stdout"]["search_beta"])
            beta, reported = float(m.group(1)), m.group(2)
            want = ref.ridge_score(ref.pooled(ck, outs, beta), labels, train_idx, val_idx,
                                   ck["n_classes"], SEARCH_RIDGE_L2)
            if reported != f"{want:.4f}":
                mismatched += 1
                self.known = (f"search-beta reports val accuracy {reported} at beta* = {beta}; "
                              f"the trainer's split gives {want:.4f}")

        final = ref.final_val_acc(first["metrics_csv"])
        videos, _ = load_dataset(data, halluc.TrainConfig().sketch_dim, None, ())
        passthrough = halluc.TrainConfig(epochs=PIPELINE_EPOCHS, seed=PIPELINE_SYNTH["seed"], streams=())
        _, rows = halluc.train(videos, passthrough)
        self.gap = (final, rows[-1]["val_acc"])
        if final < rows[-1]["val_acc"] + 0.20:
            errors.append(f"final val accuracy {final:.3f} is not 20 points above "
                          f"the pass-through-only model's {rows[-1]['val_acc']:.3f}")
        return errors + self.check_serving(rounds, ck), mismatched

    def check_serving(self, rounds, ck):
        errors = []
        feats, labels, order = self.requests()
        want = ref.dense_scores(ck, feats)
        for r in rounds:
            errors += r["errors"]
            bad = [k for k, s in enumerate(r["scores"]) if not ref.check_scores(s, want[order[k % order.size]])]
            if bad:
                errors.append(f"{len(bad)} infer score vectors differ from the dense forward")
            pred = {order[k]: int(np.argmax(r["scores"][k])) for k in range(order.size)}
            acc = float(np.mean([pred[i] == labels[i] for i in range(labels.size)]))
            if r["accs"] != {acc}:
                errors.append(f"batched accuracy {sorted(r['accs'])} != accuracy of the infer scores {acc}")
        return errors


class Encode(Workload):
    def setup(self, k):
        super().setup(k)
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        self.corpus_stats = corpus.write_corpus(self.work / "corpus", self.seed)

    def round(self):
        src = self.work / "corpus"
        r = {"codes": {}, "s": {}, "ops": 2}
        for stage, argv in (
            ("encode_odf", ["encode-odf", "--input", src / "detections.jsonl", "--out",
                            self.work / "odf", "--n-prime", N_PRIME, "--threads", self.threads]),
            ("encode_sdf", ["encode-sdf", "--manifest", src / "manifest.txt", "--out",
                            self.work / "sdf", "--n-dagger", N_PRIME, "--threads", self.threads]),
        ):
            r["codes"][stage], _, r["s"][stage] = cli(argv)
        r["digest"] = _digest(self.work / "odf", self.work / "sdf")
        return r

    def stages(self, rounds):
        boxes = sum(self.corpus_stats["boxes"].values())
        frames = sum(self.corpus_stats["frames"].values())
        return {"odf_boxes_per_s": boxes / _median([r["s"]["encode_odf"] for r in rounds]),
                "sdf_frames_per_s": frames / _median([r["s"]["encode_sdf"] for r in rounds])}

    def check(self, rounds):
        errors = [f"round {k}: descriptors differ from round 1"
                  for k, r in enumerate(rounds[1:], start=2) if r["digest"] != rounds[0]["digest"]]
        src = self.work / "corpus"
        for kind, groups, dim in (
            ("odf", ref.read_detection_groups(src / "detections.jsonl"), ref.ODF_DIM),
            ("sdf", ref.read_manifest(src / "manifest.txt"), ref.SDF_DIM),
        ):
            out = self.work / kind
            want = {f"{video}__{g}.mmd" for video, g in groups}
            have = {p.name for p in out.iterdir()}
            if have != want:
                errors.append(f"{kind}: {sorted(have ^ want)[:4]} missing or unexpected")
            for key in sorted(groups):
                path = out / f"{key[0]}__{key[1]}.mmd"
                if not path.exists():
                    continue
                data = path.read_bytes()
                if len(data) != ref.mmd_size(dim, N_PRIME):
                    errors.append(f"{path.name}: {len(data)} bytes, expected {ref.mmd_size(dim, N_PRIME)}")
                    continue
                frames = ref.odf_bag(*groups[key]) if kind == "odf" else ref.sdf_bag(groups[key])
                errors += ref.check_mmd(data, ref.dense_descriptor(frames, N_PRIME), N_PRIME, path.name)
        return errors, 0


WORKLOADS = {"pipeline": Pipeline, "encode": Encode}


def _digest(*dirs: Path) -> str:
    h = hashlib.blake2b()
    for d in dirs:
        for p in sorted(d.iterdir()):
            h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()


def _median(xs) -> float:
    return float(statistics.median(xs))


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return {"s": "s", "wall_s": "s", "bytes": "B"}.get(
        last, "ratio" if last in ("calls_per_bag", "evals_per_step", "pool_busy") else "count")


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, inherited: dict) -> int:
    out_root = root / "bench_out"
    work = out_root / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](root, work, seed)
    env = environment(root, seed, inherited)
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(k)
            setups.append(time.perf_counter() - start)

        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        rounds, start = [], time.perf_counter()
        try:
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(wl.round())
                if len(rounds) == 1:
                    # Later rounds only add what the allocator kept from
                    # earlier ones, which depends on thread timing.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if any(rounds[-1]["codes"].values()):
                    break
        finally:
            if tracer:
                tracer.uninstall()

        attempted = sum(r["ops"] for r in rounds)
        errors = [f"{stage} exited {code}" for r in rounds for stage, code in r["codes"].items() if code]
        failed = len(errors)
        if not errors:
            check_errors, known = wl.check(rounds)
            errors += check_errors
            failed += known

        # The load of other tenants on a shared host comes and goes over
        # seconds; averaging over the whole measured window is steadier
        # than any single round.
        round_s = sum(sum(r["s"].values()) for r in rounds) / len(rounds)
        info = {"workload": name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
                "round_s": round_s, "setups_s": setups, "stages": wl.stages(rounds) if not errors else {},
                "known_failure": getattr(wl, "known", None), "gap": getattr(wl, "gap", None),
                "errors": errors, "env": env}
        if tracer:
            layer, coverage = per_layer_metrics(tracer, len(rounds), wl.threads)
            info["cli_coverage"], info["spans"] = coverage, len(tracer.spans)
            tracer.write(out_root / "trace" / f"{name}.jsonl")
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        else:
            metrics = {"setup_s": {"value": _median(setups), "unit": "s"},
                       "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                       "round_s": {"value": round_s, "unit": "s"}}
        result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
        info["result"] = result
        (out_root / "results").mkdir(parents=True, exist_ok=True)
        (out_root / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(info, indent=1, default=str), encoding="utf-8")
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps({k: info[k] for k in ("workload", "seed", "rounds", "stages", "known_failure",
                                               "gap", "env")}, default=str))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
