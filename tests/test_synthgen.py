import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from momhal import synthgen
from momhal.fusion import AUX_STREAMS, DET_STREAMS, SAL_STREAMS, STREAM_ORDER
from momhal.odf import MAX_TAU
from momhal.synthgen import (
    CACHE_DIR,
    SynthConfig,
    generate_dataset,
    load_dataset,
    read_dataset_config,
)

SMALL = SynthConfig(n_videos=12, n_classes=3, seed=5, backbone_dim=16, tau=4)


def tree_digest(root):
    """Stable digest of every file under a directory."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestGeneration:
    def test_byte_identical_reruns(self, tmp_path):
        generate_dataset(tmp_path / "a", SMALL)
        generate_dataset(tmp_path / "b", SMALL)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path):
        generate_dataset(tmp_path / "a", SMALL)
        other = SynthConfig(n_videos=12, n_classes=3, seed=6, backbone_dim=16, tau=4)
        generate_dataset(tmp_path / "b", other)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_layout(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        root = tmp_path / "d"
        for name in ("dataset.cfg", "labels.csv", "features.npy",
                     "detections.jsonl", "manifest.txt"):
            assert (root / name).exists()
        for aux in AUX_STREAMS:
            assert (root / f"aux_{aux}.npy").exists()
        pgms = list((root / "saliency").glob("*.pgm"))
        assert len(pgms) == SMALL.n_videos * len(SAL_STREAMS) * SMALL.tau

    def test_interrupted_run_over_a_dataset_does_not_load(self, tmp_path, monkeypatch):
        generate_dataset(tmp_path, SMALL)
        written = []

        def write_pgm(path, frame):
            if written:
                raise KeyboardInterrupt
            written.append(path)

        monkeypatch.setattr(synthgen, "write_pgm", write_pgm)
        with pytest.raises(KeyboardInterrupt):
            generate_dataset(tmp_path, SMALL)
        with pytest.raises(FileNotFoundError, match=r"dataset\.cfg"):
            load_dataset(tmp_path, sketch_dim=16, streams=())

    def test_config_roundtrip(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        meta = read_dataset_config(tmp_path / "d")
        assert meta == SMALL

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        (tmp_path / "dataset.cfg").write_text("n_videos = 4\n# tau\ntau 3\n")
        with pytest.raises(ValueError, match=r"dataset\.cfg: line 3: expected 'key = value'"):
            read_dataset_config(tmp_path)

    @pytest.mark.parametrize("key", ["seed", "tau"])
    def test_config_missing_key_is_refused(self, tmp_path, key):
        generate_dataset(tmp_path, SMALL)
        path = tmp_path / "dataset.cfg"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(s for s in lines if not s.startswith(f"{key} =")))
        with pytest.raises(ValueError, match=rf"dataset\.cfg: missing key '{key}'"):
            read_dataset_config(tmp_path)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_videos=0)
        with pytest.raises(ValueError):
            SynthConfig(n_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(tau=1)

    def test_tau_that_no_loader_takes_is_refused(self):
        assert SynthConfig(tau=MAX_TAU).tau == MAX_TAU
        with pytest.raises(ValueError, match=f"^tau must be <= MAX_TAU = {MAX_TAU}, got "):
            SynthConfig(tau=MAX_TAU + 1)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("backbone_dim", 0), ("backbone_dim", -3),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            SynthConfig(**{field: value})

    def test_every_field_survives_dataset_cfg(self, tmp_path):
        changed = dict(n_videos=3, n_classes=3, seed=4, backbone_dim=5, tau=3)
        assert changed.keys() == {f.name for f in fields(SynthConfig)}
        cfg = SynthConfig(**changed)
        assert [k for k in changed if getattr(cfg, k) == getattr(SynthConfig(), k)] == []
        generate_dataset(tmp_path, cfg)
        assert read_dataset_config(tmp_path) == cfg


class TestLoading:
    def test_shapes_and_labels(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        data, n_classes = load_dataset(tmp_path / "d", sketch_dim=24)
        assert n_classes == 3
        feats = np.load(tmp_path / "d" / "features.npy")
        assert feats.shape == (12, 16, 4)
        assert np.array_equal(data.z, feats.mean(axis=2))
        assert data.streams == STREAM_ORDER
        assert data.targets.shape == (len(STREAM_ORDER), 12, 24)
        assert np.all(np.isfinite(data.targets))
        assert data.labels.shape == (12,) and data.labels.dtype.kind == "i"
        assert sorted(set(data.labels.tolist())) == [0, 1, 2]

    def test_stream_subset(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        data, _ = load_dataset(tmp_path / "d", sketch_dim=8, streams=("fv1", "det1"))
        assert data.streams == ("fv1", "det1")
        assert data.targets.shape == (2, 12, 8)
        full, _ = load_dataset(tmp_path / "d", sketch_dim=8)
        for k, name in enumerate(data.streams):
            assert np.array_equal(data.targets[k], full.targets[STREAM_ORDER.index(name)])

    def test_deterministic_targets(self, tmp_path):
        # two directories, so both loads run the encoders
        generate_dataset(tmp_path / "d", SMALL)
        generate_dataset(tmp_path / "e", SMALL)
        a, _ = load_dataset(tmp_path / "d", sketch_dim=16)
        b, _ = load_dataset(tmp_path / "e", sketch_dim=16)
        assert a.streams == b.streams == STREAM_ORDER
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_class_signal_lives_in_det1_and_sal1(self, tmp_path):
        # targets of the signal streams separate classes; noise streams do not
        from momhal.fusion import ridge_accuracy

        cfg = SynthConfig(n_videos=60, n_classes=3, seed=2, backbone_dim=16, tau=4)
        generate_dataset(tmp_path / "d", cfg)
        data, _ = load_dataset(tmp_path / "d", sketch_dim=48)
        y = data.labels
        tr, val = np.arange(40), np.arange(40, 60)

        def acc(stream):
            gt = data.targets[data.streams.index(stream)]
            return ridge_accuracy(gt[tr], y[tr], gt[val], y[val], 3)

        assert acc("det1") > 0.9
        assert acc("det2") < 0.6
        assert acc("fv1") < 0.6


ALL_STREAMS = AUX_STREAMS + DET_STREAMS + SAL_STREAMS


def targets(data):
    return dict(zip(data.streams, data.targets))


def cache_entries(root):
    return {p.name for p in (root / CACHE_DIR).iterdir()}


def no_encoders(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an encoder ran on a cache hit")

    monkeypatch.setattr(synthgen, "odf_descriptor", refuse)
    monkeypatch.setattr(synthgen, "sdf_descriptor", refuse)


def bump_first_digit_after(path, marker: bytes):
    data = bytearray(path.read_bytes())
    pos = data.index(marker) + len(marker)
    data[pos] = ord("0") + (data[pos] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


class TestTargetCache:
    @pytest.fixture
    def data(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        return tmp_path / "d"

    def test_hit_equals_miss_on_a_fresh_copy(self, data, tmp_path, monkeypatch):
        load_dataset(data, sketch_dim=16)
        assert {name.split("-")[0] for name in cache_entries(data)} == set(ALL_STREAMS)
        shutil.copytree(data, tmp_path / "fresh", ignore=shutil.ignore_patterns(CACHE_DIR))
        missed = targets(load_dataset(tmp_path / "fresh", sketch_dim=16)[0])
        no_encoders(monkeypatch)
        hit = targets(load_dataset(data, sketch_dim=16)[0])
        assert set(hit) == set(missed) == set(ALL_STREAMS)
        for name in ALL_STREAMS:
            assert np.array_equal(hit[name], missed[name]), name

    def test_entry_names(self, data):
        load_dataset(data, sketch_dim=16, streams=("fv1", "det2"))
        names = sorted(cache_entries(data))
        assert [n.split("-")[0] for n in names] == ["det2", "fv1"]
        for name in names:
            digest = name.split("-")[1].removesuffix(".npy")
            assert len(digest) == 32 and int(digest, 16) >= 0
            assert np.load(data / CACHE_DIR / name).shape == (SMALL.n_videos, 16)

    @pytest.mark.parametrize("mutate, missed", [
        (lambda d: flip_last_byte(d / "saliency" / "v0003_sal1_f2.pgm"), set(SAL_STREAMS)),
        (lambda d: bump_first_digit_after(d / "detections.jsonl", b'"conf": 0.'), set(DET_STREAMS)),
        (lambda d: flip_last_byte(d / "aux_fv2.npy"), {"fv2"}),
    ], ids=["pgm", "detections", "aux"])
    def test_changed_input_misses_its_streams(self, data, mutate, missed):
        load_dataset(data, sketch_dim=16)
        before = cache_entries(data)
        mutate(data)
        load_dataset(data, sketch_dim=16)
        assert {name.split("-")[0] for name in cache_entries(data) - before} == missed

    @pytest.mark.parametrize("kwargs", [{"sketch_dim": 12}, {"eta": 3.0}], ids=["sketch_dim", "eta"])
    def test_changed_setting_misses(self, data, kwargs, monkeypatch):
        load_dataset(data, sketch_dim=16, streams=("fv1", "det1", "sal1"))
        before = cache_entries(data)
        loaded, _ = load_dataset(data, **{"sketch_dim": 16, **kwargs},
                                 streams=("fv1", "det1", "sal1"))
        assert len(cache_entries(data) - before) == 3
        assert loaded.targets.shape == (3, SMALL.n_videos, kwargs.get("sketch_dim", 16))

    def test_one_entry_per_stream(self, data, monkeypatch):
        streams = ("fv1", "det1", "sal1")
        load_dataset(data, sketch_dim=16, streams=streams)
        load_dataset(data, sketch_dim=12, streams=streams)
        entries = cache_entries(data)
        assert sorted(name.split("-")[0] for name in entries) == ["det1", "fv1", "sal1"]
        load_dataset(data, sketch_dim=16, streams=("fv2",))   # other streams' entries stay
        assert len(cache_entries(data)) == 4 and entries <= cache_entries(data)
        no_encoders(monkeypatch)   # the kept entries are the newest ones
        load_dataset(data, sketch_dim=12, streams=streams)

    def test_changed_encoder_source_misses(self, data, monkeypatch):
        load_dataset(data, sketch_dim=16, streams=("sal1",))
        before = cache_entries(data)
        monkeypatch.setattr(synthgen, "_source_digest", lambda: b"edited encoder source")
        load_dataset(data, sketch_dim=16, streams=("sal1",))
        assert len(cache_entries(data) - before) == 1

    @pytest.mark.parametrize("damage", [
        lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        lambda p: np.save(p, np.zeros((3, 3))),
        lambda p: np.save(p, np.zeros((SMALL.n_videos, 16), dtype=np.float32)),
    ], ids=["truncated", "wrong_shape", "wrong_dtype"])
    def test_bad_entry_is_rebuilt(self, data, damage):
        want = targets(load_dataset(data, sketch_dim=16, streams=("det1",))[0])["det1"]
        (entry,) = (data / CACHE_DIR).iterdir()
        good = entry.read_bytes()
        damage(entry)
        got = targets(load_dataset(data, sketch_dim=16, streams=("det1",))[0])["det1"]
        assert np.array_equal(got, want)
        assert entry.read_bytes() == good

    def test_failing_write_still_loads(self, data, monkeypatch):
        def fail(src, dst):
            raise OSError("read-only file system")

        monkeypatch.setattr(os, "replace", fail)
        loaded, _ = load_dataset(data, sketch_dim=16, streams=("fv1", "sal2"))
        assert loaded.streams == ("fv1", "sal2")
        assert loaded.targets.shape == (2, SMALL.n_videos, 16)
        assert not any((data / CACHE_DIR).iterdir())   # no entries, no temporary files

    def test_names_hash_inputs_in_chunks(self, data, monkeypatch):
        # an input longer than one chunk is keyed as its one-shot digest keys it
        monkeypatch.setattr(synthgen, "_HASH_CHUNK", 4096)
        det = data / "detections.jsonl"
        assert det.stat().st_size > 3 * synthgen._HASH_CHUNK

        def one_shot(path):
            return hashlib.blake2b(path.read_bytes(), digest_size=16).digest()

        h = hashlib.blake2b(repr(("det2", 16, 2.0)).encode() + b"\0", digest_size=16)
        for part in (synthgen._source_digest(), one_shot(data / "dataset.cfg"), one_shot(det)):
            h.update(part)
        assert synthgen._cache_names(data, ("det2",), 16, 2.0, []) == \
            {"det2": f"det2-{h.hexdigest()}.npy"}

    def test_no_streams_creates_no_cache(self, data):
        loaded, _ = load_dataset(data, sketch_dim=16, streams=())
        assert loaded.streams == () and loaded.targets.shape == (0, SMALL.n_videos, 16)
        assert not (data / CACHE_DIR).exists()


def drop_lines(path, *needles):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(s for s in lines if not all(n in s for n in needles)))


class TestLoadErrors:
    @pytest.fixture
    def data(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        return tmp_path / "d"

    def test_missing_detection_group(self, data):
        drop_lines(data / "detections.jsonl", '"v0002"', '"det3"')
        with pytest.raises(ValueError, match=r"detections\.jsonl: no entries for video "
                                             r"'v0002' and detector 'det3'"):
            load_dataset(data, sketch_dim=16, streams=("det3",))

    def test_missing_saliency_group(self, data):
        drop_lines(data / "manifest.txt", "v0001 sal2 ")
        with pytest.raises(ValueError, match=r"manifest\.txt: no entries for video "
                                             r"'v0001' and source 'sal2'"):
            load_dataset(data, sketch_dim=16, streams=("sal2",))

    def test_bad_label_line(self, data):
        path = data / "labels.csv"
        lines = path.read_text().splitlines()
        lines[2] = "v0001,one"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"labels\.csv: line 3: .*'one'"):
            load_dataset(data, sketch_dim=16, streams=())

    @pytest.mark.parametrize("eta", [-1.0, 0.0, float("nan")])
    def test_bad_eta_is_refused_before_any_target(self, data, eta):
        with pytest.raises(ValueError, match="^eta must be"):
            load_dataset(data, 16, eta, ("fv1",))
        assert not (data / CACHE_DIR).exists()

    def test_unknown_stream_is_refused_before_any_input(self, data, tmp_path):
        for where in (data, tmp_path / "no-such-dataset"):
            with pytest.raises(ValueError, match=re.escape("unknown streams ['foo']; valid: (")):
                load_dataset(where, 16, None, ("fv1", "foo"))
        assert not (data / CACHE_DIR).exists()

    def test_streams_come_back_in_stream_order(self, data):
        loaded, _ = load_dataset(data, 16, None, ("sal1", "det1", "fv1", "det1"))
        assert loaded.streams == ("fv1", "det1", "sal1")
        full, _ = load_dataset(data, 16)
        for k, name in enumerate(loaded.streams):
            assert np.array_equal(loaded.targets[k], full.targets[STREAM_ORDER.index(name)])

    @pytest.mark.parametrize("label", ["3", "-1"])
    def test_label_outside_the_classes(self, data, label):
        path = data / "labels.csv"
        lines = path.read_text().splitlines()
        lines[4] = f"v0003,{label}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"labels\.csv: line 5: label {label} outside \[0, 2\]"):
            load_dataset(data, sketch_dim=16, streams=())

    @pytest.mark.parametrize("line, message", [
        ("v0000,1", "repeated video 'v0000'"),
        ("v0012,1", r"video 'v0012' outside v0000\.\.v0011"),
        ("v9999,1", r"video 'v9999' outside v0000\.\.v0011"),
    ], ids=["repeated", "past_the_last", "unknown"])
    def test_label_of_a_video_not_in_the_dataset(self, data, line, message):
        path = data / "labels.csv"
        with open(path, "a") as fp:
            fp.write(line + "\n")
        with pytest.raises(ValueError, match=rf"labels\.csv: line 14: {message}$"):
            load_dataset(data, sketch_dim=16, streams=())

    def test_video_missing_from_labels(self, data):
        drop_lines(data / "labels.csv", "v0005,")
        with pytest.raises(ValueError, match=r"labels\.csv: no label for video 'v0005'"):
            load_dataset(data, sketch_dim=16, streams=())

    @pytest.mark.parametrize("name, streams", [("features.npy", ()), ("aux_off.npy", ("off",))])
    def test_row_count_mismatch(self, data, name, streams):
        np.save(data / name, np.load(data / name)[:-1])
        with pytest.raises(ValueError, match=rf"{name}: 11 rows, but dataset\.cfg has n_videos = 12"):
            load_dataset(data, sketch_dim=16, streams=streams)

    @pytest.mark.parametrize("size", [0, 5, 100])
    def test_damaged_npy_names_the_file(self, data, size):
        path = data / "features.npy"
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_dataset(data, sketch_dim=16, streams=())

    @pytest.mark.parametrize("name, streams, cut, given", [
        ("features.npy", (), np.s_[:, :-1], r"\(15, 4\), but .* backbone_dim = 16, tau = 4"),
        ("features.npy", (), np.s_[:, :, :-1], r"\(16, 3\), but .* backbone_dim = 16, tau = 4"),
        ("aux_off.npy", ("off",), np.s_[:, :50], r"\(50,\), but synth writes rows of width "
                                                 r"AUX_DIM = 96"),
    ], ids=["backbone_dim", "tau", "aux_dim"])
    def test_row_shape_mismatch(self, data, name, streams, cut, given):
        np.save(data / name, np.load(data / name)[cut])
        with pytest.raises(ValueError, match=rf"{name}: rows of shape {given}"):
            load_dataset(data, sketch_dim=16, streams=streams)


# Loads a dataset cold, then trains on a cold copy of it through the command
# line, in a new interpreter with one BLAS thread; argv: dataset, cold copy,
# run directory, "1" to narrow the affinity mask to one CPU first.  With the
# whole mask the encoders must run only in forked children.
FILL_SCRIPT = """
import hashlib, json, os, sys
from pathlib import Path
data, cold, run, one_cpu = sys.argv[1:]
if one_cpu == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from momhal import synthgen
from momhal.cli import main
parent = os.getpid()

def in_children_only(encoder):
    def wrapped(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("an encoder ran in the parent")
        return encoder(*args, **kwargs)
    return wrapped

if one_cpu != "1":
    synthgen.odf_descriptor = in_children_only(synthgen.odf_descriptor)
    synthgen.sdf_descriptor = in_children_only(synthgen.sdf_descriptor)
loaded, _ = synthgen.load_dataset(data, 16)
assert main(["train", "--data", cold, "--out", run, "--epochs", "4", "--seed", "3"]) == 0
files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
         for d in (Path(data) / "cache", Path(cold) / "cache", Path(run)) for p in d.iterdir()}
print(json.dumps({"forks": synthgen.fork_pays(2), "streams": loaded.streams,
                  "targets": hashlib.sha256(loaded.targets.tobytes()).hexdigest(), **files}))
"""


@pytest.mark.skipif(not hasattr(os, "fork")
                    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="the forked fill needs fork and two CPUs")
class TestForkedFill:
    """Where ``halluc.fork_pays`` holds, a cold load runs the encoders in
    two forked children and gives the bytes of the in-process fill."""

    def test_same_bytes_as_the_in_process_fill(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        env = {**os.environ, "PYTHONPATH": str(Path(synthgen.__file__).parents[1]),
               **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                               "1")}
        got = {}
        for side, one_cpu in (("forked", "0"), ("in_process", "1")):
            for name in ("data", "cold"):
                shutil.copytree(tmp_path / "d", tmp_path / side / name)
            out = subprocess.run([sys.executable, "-c", FILL_SCRIPT, "data", "cold", "run", one_cpu],
                                 cwd=tmp_path / side, env=env, capture_output=True, text=True,
                                 check=True).stdout
            got[side] = json.loads(out.splitlines()[-1])
        assert got["forked"].pop("forks") and not got["in_process"].pop("forks")
        assert got["forked"] == got["in_process"]
        assert {"checkpoint.hal", "metrics.csv"} < set(got["forked"])
        assert sum(name.endswith(".npy") for name in got["forked"]) == 2 * len(ALL_STREAMS)

    def test_leaves_no_child_on_an_interrupt(self, tmp_path, monkeypatch):
        generate_dataset(tmp_path / "d", SMALL)
        monkeypatch.setattr(synthgen, "fork_pays", lambda n: n >= 2)
        waitpid = os.waitpid

        def interrupted(pid, options):
            if not options:   # the first wait on a child
                monkeypatch.setattr(os, "waitpid", waitpid)
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(tmp_path / "d", sketch_dim=16)
        assert not (tmp_path / "d" / CACHE_DIR).exists()


def break_line(path, index):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = lines[index].replace('"conf": ', '"conf": "')
    path.write_text("".join(lines))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the forked fill needs fork")
@pytest.mark.parametrize("damage, message", [
    (lambda d: drop_lines(d / "detections.jsonl", '"v0002"', '"det3"'),
     r"detections\.jsonl: no entries for video 'v0002' and detector 'det3'"),
    (lambda d: drop_lines(d / "manifest.txt", "v0001 sal2 "),
     r"manifest\.txt: no entries for video 'v0001' and source 'sal2'"),
    (lambda d: np.save(d / "aux_off.npy", np.load(d / "aux_off.npy")[:-1]),
     r"aux_off\.npy: 11 rows, but dataset\.cfg has n_videos = 12"),
    (lambda d: np.save(d / "aux_off.npy", np.load(d / "aux_off.npy")[:, :50]),
     r"aux_off\.npy: rows of shape \(50,\), but synth writes rows of width AUX_DIM = 96"),
    (lambda d: (d / "aux_fv2.npy").write_bytes((d / "aux_fv2.npy").read_bytes()[:100]),
     r"aux_fv2\.npy: "),
    (lambda d: break_line(d / "detections.jsonl", 6), r"detections\.jsonl: line 7: "),
    (lambda d: (break_line(d / "detections.jsonl", 6),
                (d / "aux_fv2.npy").write_bytes((d / "aux_fv2.npy").read_bytes()[:100])),
     r"detections\.jsonl: line 7: "),
], ids=["detection_group", "saliency_group", "aux_rows", "aux_width", "damaged_aux",
        "detection_line", "detection_line_and_damaged_aux"])
def test_forked_fill_refuses_as_the_in_process_fill(tmp_path, monkeypatch, damage, message):
    """A refusal of a target input is the in-process fill's, message and
    order: a failing child makes this process encode again, and the
    detections are parsed before any stream is encoded."""
    generate_dataset(tmp_path / "d", SMALL)
    damage(tmp_path / "d")
    errors, forks, fork = {}, [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for side, pays in (("in_process", False), ("forked", True)):
        monkeypatch.setattr(synthgen, "fork_pays", lambda n, pays=pays: pays and n >= 2)
        with pytest.raises(ValueError, match=message) as exc:
            load_dataset(tmp_path / "d", sketch_dim=16)
        errors[side] = str(exc.value)
    assert len(forks) == 2
    assert errors["forked"] == errors["in_process"]
    assert not (tmp_path / "d" / CACHE_DIR).exists()
