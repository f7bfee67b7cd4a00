import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from momhal import cli, halluc, synthgen
from momhal.atomic import write_atomic
from momhal.cli import main
from momhal.fusion import effective_coefficients, ridge_accuracy
from momhal.halluc import TrainConfig, init_model, load_checkpoint
from momhal.keyvalue import config_parsers
from momhal.moments import descriptor_from_bytes
from momhal.odf import MAX_TAU, OdfConfig
from momhal.sdf import N_DAGGER, write_pgm
from momhal.synthgen import SynthConfig, load_dataset
from oracles import unit_outputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def detection_line(video="v1", frame=1, tau=3, **kw):
    obj = {
        "video": video, "detector": "det1", "frame": frame, "tau": tau,
        "class": 7, "conf": 0.9, "box": [0.1, 0.1, 0.5, 0.5],
        "inet_sparse": [[3, 1.0]],
    }
    obj.update(kw)
    return json.dumps(obj)


@pytest.fixture
def detections_file(tmp_path):
    path = tmp_path / "dets.jsonl"
    lines = [detection_line(frame=f) for f in (1, 2, 3)]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEncodeOdf:
    def test_descriptor_lengths(self, tmp_path, detections_file, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "encode-odf", "--input", str(detections_file),
                              "--out", str(out), "--threads", "1")
        assert code == 0
        blob = (out / "v1__det1.mmd").read_bytes()
        desc = descriptor_from_bytes(blob)
        assert desc.flat().size == 1214 * 7
        assert "v1" in stdout

    def test_no_rbf_length(self, tmp_path, detections_file, capsys):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "encode-odf", "--input", str(detections_file),
                         "--out", str(out), "--no-rbf", "--threads", "1")
        assert code == 0
        desc = descriptor_from_bytes((out / "v1__det1.mmd").read_bytes())
        assert desc.flat().size == 1178 * 7

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run(capsys, "encode-odf", "--input", str(empty),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "no records" in err

    @pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
    def test_ids_that_are_not_strings_are_refused_before_any_output(self, tmp_path, capsys,
                                                                    lenient):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(detection_line() + "\n" + detection_line(video=7, detector=None) + "\n")
        code, out, err = run(capsys, "encode-odf", "--input", str(bad),
                             "--out", str(tmp_path / "o"), *lenient)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 2: 'video' must be a JSON string, got 7\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
    def test_tau_past_the_bound_is_refused_before_any_output(self, tmp_path, capsys, lenient):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(detection_line(tau=10**15) + "\n")
        code, out, err = run(capsys, "encode-odf", "--input", str(bad),
                             "--out", str(tmp_path / "o"), *lenient)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 1: tau must be <= MAX_TAU = {MAX_TAU}, got {10**15}\n"
        assert not (tmp_path / "o").exists()

    def test_malformed_line_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(detection_line() + "\n" + detection_line(conf=3.0) + "\n")
        code, _, err = run(capsys, "encode-odf", "--input", str(bad),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert "line 2" in err

    def test_lenient_mode_accepts(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(detection_line(conf=3.0) + "\n")
        code, _, _ = run(capsys, "encode-odf", "--input", str(bad),
                         "--out", str(tmp_path / "o"), "--lenient", "--threads", "1")
        assert code == 0

    def test_tau_override_file(self, tmp_path, detections_file, capsys):
        taus = tmp_path / "taus.txt"
        taus.write_text("v1 9\n")
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "encode-odf", "--input", str(detections_file),
                              "--out", str(out), "--tau-source", str(taus),
                              "--threads", "1")
        assert code == 0
        assert " 9 " in stdout.replace("\t", " ")

    @pytest.mark.parametrize("text, message", [
        ("v1 9\nv1\n", "line 2: expected 'video tau'"),
        ("# video tau\nv1 0\n", "line 2: tau must be >= 1"),
        (f"v1 {MAX_TAU + 1}\n", f"line 1: tau must be <= MAX_TAU = {MAX_TAU}, got {MAX_TAU + 1}"),
        ("v1 9\nv1 3\n", "line 2: repeated video 'v1'"),
        ("v1 3\nv9 4\nv1x 2\n", "line 2: video 'v9' has no detection records"),
    ], ids=["malformed_line", "tau_below_one", "tau_above_max", "repeated_video",
            "video_without_records"])
    def test_bad_tau_file_names_file_and_line(self, tmp_path, detections_file, capsys,
                                              text, message):
        taus, out = tmp_path / "taus.txt", tmp_path / "out"
        taus.write_text(text)
        code, _, err = run(capsys, "encode-odf", "--input", str(detections_file),
                           "--out", str(out), "--tau-source", str(taus))
        assert code == 1
        assert f"{taus}: {message}" in err
        assert not out.exists()

    def test_record_past_the_tau_file_names_video_detector_and_file(self, tmp_path,
                                                                   detections_file, capsys):
        taus, out = tmp_path / "taus.txt", tmp_path / "out"
        taus.write_text("v1 2\n")
        code, stdout, err = run(capsys, "encode-odf", "--input", str(detections_file),
                                "--out", str(out), "--tau-source", str(taus))
        assert (code, stdout) == (1, "")
        assert err == (f"error: {taus}: video 'v1' has tau 2, but detector 'det1' has a "
                       "record at frame 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, text", [("frame", "Infinity"), ("class", "1e999"),
                                             ("inet_sparse", "[[1e999, 1.0]]")])
    def test_infinite_integer_field_exits_1(self, tmp_path, capsys, field, text):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(detection_line(**{field: 12345}).replace("12345", text) + "\n")
        code, _, err = run(capsys, "encode-odf", "--input", str(bad), "--out", str(tmp_path / "o"))
        message = (f"{field!r} must be a JSON integer, got Infinity" if field != "inet_sparse" else
                   "an 'inet_sparse' entry must be an [integer, number] pair, got [Infinity, 1.0]")
        assert code == 1
        assert err == f"error: {bad}: line 1: {message}\n"


class TestEncodeSdf:
    @pytest.fixture
    def manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for t in range(3):
            rel = f"frames/f{t}.pgm"
            (tmp_path / "frames").mkdir(exist_ok=True)
            write_pgm(tmp_path / rel, rng.uniform(0, 1, size=(12, 16)))
            lines.append(f"vid sal1 {rel}")
        man = tmp_path / "manifest.txt"
        man.write_text("\n".join(lines) + "\n")
        return man

    def test_descriptor_length(self, tmp_path, manifest, capsys):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "encode-sdf", "--manifest", str(manifest),
                         "--out", str(out), "--threads", "1")
        assert code == 0
        desc = descriptor_from_bytes((out / "vid__sal1.mmd").read_bytes())
        assert desc.flat().size == 556 * 7

    def test_constant_frames_zero_gradient_block(self, tmp_path, capsys):
        (tmp_path / "frames").mkdir()
        write_pgm(tmp_path / "frames/c.pgm", np.full((8, 8), 0.5))
        man = tmp_path / "m.txt"
        man.write_text("vid sal1 frames/c.pgm\n")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "encode-sdf", "--manifest", str(man),
                         "--out", str(out), "--threads", "1")
        assert code == 0
        desc = descriptor_from_bytes((out / "vid__sal1.mmd").read_bytes())
        np.testing.assert_array_equal(desc.mean_dir[:300], 0.0)

    def test_corrupt_pgm_exits_1(self, tmp_path, capsys):
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames/bad.pgm").write_bytes(b"P5\n4")
        man = tmp_path / "m.txt"
        man.write_text("vid sal1 frames/bad.pgm\n")
        code, _, err = run(capsys, "encode-sdf", "--manifest", str(man),
                           "--out", str(tmp_path / "o"), "--threads", "1")
        assert code == 1
        assert "bad.pgm" in err

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        man.write_text("# nothing\n")
        code, _, _ = run(capsys, "encode-sdf", "--manifest", str(man),
                         "--out", str(tmp_path / "o"))
        assert code == 2


class TestThreads:
    """The thread count and the largest-first schedule change no byte."""

    @staticmethod
    def outputs(capsys, argv, out):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for p in out.iterdir():
            p.unlink()
        return stdout, files

    @pytest.mark.parametrize("lenient", [False, True])
    def test_encode_odf(self, tmp_path, capsys, lenient):
        rng = np.random.default_rng(0)
        lines = []
        for video, det, tau, n in (("v1", "d1", 3, 2), ("v2", "d1", 20, 90), ("v2", "d2", 5, 14),
                                   ("v3", "d1", 9, 40), ("v4", "d2", 2, 40)):
            for _ in range(n):
                frame = int(rng.integers(1, tau + (3 if lenient else 1)))
                conf = float(rng.uniform(0, 1.4 if lenient else 1))
                lines.append(detection_line(video=video, detector=det, frame=frame, tau=tau,
                                            conf=conf, **{"class": int(rng.integers(1, 172))}))
        dets = tmp_path / "dets.jsonl"
        dets.write_text("\n".join(lines) + "\n")
        argv = ["encode-odf", "--input", str(dets), *(["--lenient"] if lenient else [])]
        one = self.outputs(capsys, [*argv, "--threads", "1"], tmp_path / "out")
        two = self.outputs(capsys, [*argv, "--threads", "2"], tmp_path / "out")
        assert len(one[1]) == 5 and one == two

    def test_encode_sdf(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        (tmp_path / "frames").mkdir()
        lines = []
        for video, n, shapes in (("v1", 2, [(12, 16)]), ("v2", 60, [(24, 32), (10, 14)]),
                                 ("v3", 7, [(30, 20)]), ("v4", 60, [(8, 8)])):
            for t in range(n):
                rel = f"frames/{video}_{t}.pgm"
                write_pgm(tmp_path / rel, rng.uniform(0, 1, shapes[t % len(shapes)]),
                          maxval=65535 if video == "v3" else 255)
                lines.append(f"{video} sal1 {rel}")
        man = tmp_path / "manifest.txt"
        man.write_text("\n".join(lines) + "\n")
        argv = ["encode-sdf", "--manifest", str(man)]
        one = self.outputs(capsys, [*argv, "--threads", "1"], tmp_path / "out")
        two = self.outputs(capsys, [*argv, "--threads", "2"], tmp_path / "out")
        assert len(one[1]) == 4 and one == two


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
    def test_default_is_the_usable_cpus(self):
        """Under a one-CPU affinity mask both encoders default to one thread,
        the count that training's fork decision sees."""
        code = ("import os\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from momhal import cli, halluc\n"
                "parse = cli.build_parser().parse_args\n"
                "print(halluc.usable_cpus(), [parse([command, flag, 'in', '--out', 'out']).threads"
                " for command, flag in (('encode-odf', '--input'), ('encode-sdf', '--manifest'))])")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "1 [1, 1]\n"

    @pytest.mark.parametrize("command, flag", [("encode-odf", "--input"),
                                               ("encode-sdf", "--manifest")])
    def test_fewer_than_one_thread_is_refused_before_any_output(self, tmp_path, capsys,
                                                                command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, str(tmp_path / "in"), "--out", str(out), "--threads", "0"])
        assert exit_info.value.code == 2
        assert "--threads: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, option", [("encode-odf", "--input", "--n-prime"),
                                                       ("encode-sdf", "--manifest", "--n-dagger")])
    def test_fewer_than_one_moment_vector_is_refused_before_any_output(self, tmp_path, capsys,
                                                                      command, flag, option):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, str(tmp_path / "in"), "--out", str(out), option, "0"])
        assert exit_info.value.code == 2
        assert f"{option}: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestOutputNames:
    def test_video_id_with_path_separator_is_refused(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(detection_line(video="../x") + "\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "encode-odf", "--input", str(dets), "--out", str(out),
                           "--threads", "1")
        assert code == 1
        assert "'../x'" in err
        assert not out.exists()
        assert not list(tmp_path.glob("*.mmd"))

    def test_colliding_detection_ids_are_refused(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(detection_line(video="a__b", detector="c") + "\n"
                        + detection_line(video="a", detector="b__c") + "\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "encode-odf", "--input", str(dets), "--out", str(out),
                           "--threads", "1")
        assert code == 1
        assert "'a__b'" in err and "'b__c'" in err
        assert not out.exists()

    def test_colliding_saliency_ids_are_refused(self, tmp_path, capsys):
        write_pgm(tmp_path / "f.pgm", np.full((8, 8), 0.5))
        man = tmp_path / "m.txt"
        man.write_text("a__b c f.pgm\na b__c f.pgm\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "encode-sdf", "--manifest", str(man), "--out", str(out),
                           "--threads", "1")
        assert code == 1
        assert "'a__b'" in err and "'b__c'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("encode-odf", "--input"),
                                               ("encode-sdf", "--manifest")])
    def test_id_with_a_nul_byte_is_refused_before_any_output(self, tmp_path, capsys,
                                                             command, flag):
        write_pgm(tmp_path / "f.pgm", np.full((8, 8), 0.5))
        (tmp_path / "dets.jsonl").write_text(detection_line(video="a") + "\n"
                                             + detection_line(video="b\0c") + "\n")
        (tmp_path / "m.txt").write_text("a sal1 f.pgm\nb\0c sal1 f.pgm\n")
        source = tmp_path / ("dets.jsonl" if command == "encode-odf" else "m.txt")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, flag, str(source), "--out", str(out),
                                "--threads", "1")
        assert (code, stdout) == (1, "")
        assert err.startswith("error: id 'b\\x00c' cannot name an output file: ")
        assert not out.exists()


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestSynthTrainEval:
    def test_synth_determinism(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run(capsys, "synth", "--out", str(tmp_path / name),
                             "--videos", "8", "--classes", "2", "--seed", "3",
                             "--backbone-dim", "8", "--tau", "3")
            assert code == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_backbone_dim_is_refused_before_any_output(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        code, _, err = run(capsys, "synth", "--out", str(out), "--backbone-dim", value)
        assert code == 1
        assert f"error: backbone_dim must be >= 1, got {value}" in err
        assert not out.exists()

    def test_tau_past_the_bound_is_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, _, err = run(capsys, "synth", "--out", str(out), "--tau", str(MAX_TAU + 1))
        assert code == 1
        assert err == f"error: tau must be <= MAX_TAU = {MAX_TAU}, got {MAX_TAU + 1}\n"
        assert not out.exists()

    def test_fewer_than_one_search_iteration_is_refused_when_parsed(self, tmp_path, capsys,
                                                                   monkeypatch):
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("loaded"))
        with pytest.raises(SystemExit) as exit_info:
            main(["search-beta", "--model", str(tmp_path / "m.hal"), "--data", str(tmp_path),
                  "--iters", "0"])
        assert exit_info.value.code == 2
        assert "--iters: must be at least 1, got 0" in capsys.readouterr().err

    def test_train_eval_search(self, tmp_path, capsys):
        data = tmp_path / "data"
        code, _, _ = run(capsys, "synth", "--out", str(data), "--videos", "16",
                         "--classes", "2", "--seed", "1", "--backbone-dim", "8",
                         "--tau", "3")
        assert code == 0

        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data_dir = {data}\n"
            f"out_dir = {tmp_path / 'run'}\n"
            "epochs = 3\n"
            "seed = 2\n"
            "pre_sketch_dim = 12\n"
            "sketch_dim = 8\n"
            "batch_size = 4\n"
        )
        code, stdout, err = run(capsys, "train", "--config", str(cfgfile))
        assert code == 0, err
        run_dir = tmp_path / "run"
        assert (run_dir / "checkpoint.hal").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "config.cfg").exists()
        assert "val accuracy" in stdout
        header = (run_dir / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,loss,class_loss,mse_fv1")
        assert header.endswith("val_acc,beta_lo,beta_hi")
        # the HAL1 header's backbone width (u32 at byte 16) is the dataset's
        assert np.frombuffer((run_dir / "checkpoint.hal").read_bytes(), "<u4", 1, 16)[0] == 8
        keys = [line.partition(" = ")[0] for line in
                (run_dir / "config.cfg").read_text().splitlines()]
        assert keys == ["data_dir", "out_dir", *(f.name for f in fields(TrainConfig))]

        code, stdout, _ = run(capsys, "eval", "--model", str(run_dir / "checkpoint.hal"),
                              "--data", str(data))
        assert code == 0
        assert "accuracy" in stdout

        code, stdout, _ = run(capsys, "search-beta", "--model",
                              str(run_dir / "checkpoint.hal"), "--data", str(data),
                              "--iters", "5")
        assert code == 0
        assert "beta*" in stdout

    def test_search_beta_scores_like_the_trainer(self, tmp_path, capsys):
        data, run_dir = tmp_path / "data", tmp_path / "run"
        run(capsys, "synth", "--out", str(data), "--videos", "24", "--classes", "3",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(run_dir),
                           "--epochs", "12", "--seed", "2")
        assert code == 0, err
        code, stdout, _ = run(capsys, "search-beta", "--model", str(run_dir / "checkpoint.hal"),
                              "--data", str(data), "--iters", "8")
        assert code == 0
        m = re.search(r"beta\* = ([0-9.]+), val accuracy ([0-9.]+)", stdout)

        # the trainer's split and its pooled, tot_scale-weighted head input
        model = load_checkpoint(run_dir / "checkpoint.hal")
        loaded, _ = load_dataset(data, model.config.sketch_dim, None, ())
        n = len(loaded.labels)
        perm = np.random.default_rng((2, 0x5E)).permutation(n)
        val, tr = perm[: round(0.25 * n)], perm[round(0.25 * n):]
        spec = replace(model.spec, beta=float(m.group(1)))
        outs = unit_outputs(model, list(np.load(data / "features.npy")))
        pooled = model.spec.tot_scale * sum(c * outs[name]
                                            for name, c in effective_coefficients(spec).items())
        y = loaded.labels
        want = ridge_accuracy(pooled[tr], y[tr], pooled[val], y[val], model.n_classes, 1e-3)
        assert m.group(2) == f"{want:.4f}"

    def test_flag_overrides_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "synth", "--out", str(data), "--videos", "8", "--classes", "2",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data_dir = {data}\nout_dir = {tmp_path / 'r1'}\n"
            "epochs = 5\nseed = 2\n"
            "pre_sketch_dim = 8\nsketch_dim = 8\nbatch_size = 4\n"
        )
        code, _, _ = run(capsys, "train", "--config", str(cfgfile),
                         "--epochs", "1", "--out", str(tmp_path / "r2"))
        assert code == 0
        csv = (tmp_path / "r2" / "metrics.csv").read_text()
        assert len(csv.strip().splitlines()) == 2  # header + 1 epoch
        resolved = (tmp_path / "r2" / "config.cfg").read_text()
        assert "epochs = 1" in resolved

    def test_empty_streams_flag_trains_the_pass_through_unit_alone(self, tmp_path, capsys):
        data, run_dir = tmp_path / "data", tmp_path / "run"
        run(capsys, "synth", "--out", str(data), "--videos", "8", "--classes", "2",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(run_dir),
                           "--epochs", "1", "--streams", "")
        assert code == 0, err
        assert "streams = \n" in (run_dir / "config.cfg").read_text()
        model = load_checkpoint(run_dir / "checkpoint.hal")
        assert model.streams == () and model.weight.shape[0] == 1
        assert "mse_" not in (run_dir / "metrics.csv").read_text().splitlines()[0]

    def test_missing_data_dir_errors(self, capsys):
        code, _, err = run(capsys, "train")
        assert code == 1
        assert "data_dir" in err

    def test_rerun_from_resolved_config_reproduces(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "synth", "--out", str(data), "--videos", "8", "--classes", "2",
            "--seed", "4", "--backbone-dim", "8", "--tau", "3")
        code, _, _ = run(capsys, "train", "--data", str(data),
                         "--out", str(tmp_path / "r1"), "--epochs", "2", "--seed", "4")
        assert code == 0
        resolved = tmp_path / "r1" / "config.cfg"
        text = resolved.read_text().replace(str(tmp_path / "r1"), str(tmp_path / "r2"))
        resolved.write_text(text)
        code, _, _ = run(capsys, "train", "--config", str(resolved))
        assert code == 0
        assert (tmp_path / "r1" / "checkpoint.hal").read_bytes() == \
            (tmp_path / "r2" / "checkpoint.hal").read_bytes()
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
            (tmp_path / "r2" / "metrics.csv").read_bytes()


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker process needs fork")
    def test_train_writes_the_same_files_with_and_without_the_worker(self, tmp_path, capsys,
                                                                    monkeypatch):
        data = tmp_path / "data"
        run(capsys, "synth", "--out", str(data), "--videos", "24", "--classes", "3",
            "--seed", "6", "--backbone-dim", "8", "--tau", "3")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data_dir = {data}\nepochs = 5\nwarmup_epochs = 2\n"
                           "pre_sketch_dim = 12\nsketch_dim = 8\nbatch_size = 5\n")
        files = {}
        for name, pays in (("worker", True), ("in_process", False)):
            monkeypatch.setattr(halluc, "_fork_pays", lambda n_units, pays=pays: pays)
            code, _, err = run(capsys, "train", "--config", str(cfgfile),
                               "--out", str(tmp_path / name))
            assert code == 0, err
            files[name] = [(tmp_path / name / f).read_bytes()
                           for f in ("checkpoint.hal", "metrics.csv")]
        assert files["worker"] == files["in_process"]


class TestOsErrors:
    """An OSError other than a missing file is reported, not raised."""

    def test_model_that_is_a_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--model", str(tmp_path), "--data", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err

    def test_data_that_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "labels"
        path.write_text("v0000,0\n")
        code, _, err = run(capsys, "train", "--data", str(path), "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error: ") and "Not a directory" in err and str(path) in err
        assert not (tmp_path / "run").exists()


class TestConfigDocuments:
    @pytest.fixture
    def data(self, tmp_path, capsys):
        run(capsys, "synth", "--out", str(tmp_path / "data"), "--videos", "8",
            "--classes", "2", "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        return tmp_path / "data"

    @pytest.mark.parametrize("line", [
        "learning_rat = 9", "batch_size = 0", "streams = fv1,bogus", "eta = -1",
        "ridge_l2 = nan", "alpha = nan", "val_fraction = nan", "rho = 5", "seed = -1",
        "multi_label = false", "backbone_dim = 8", "tie_sketches = False", "init_scale = 0.2",
        "pn_eta = 20.0", "pn_epsilon = 1e-12", "epochs = 5", f"seed = {2**64}",
    ], ids=["unknown_key", "batch_size_0", "unknown_stream", "eta_negative", "ridge_l2_nan",
            "alpha_nan", "val_fraction_nan", "rho_5", "seed_negative", "removed_multi_label",
            "removed_backbone_dim", "removed_tie_sketches", "removed_init_scale",
            "removed_pn_eta", "removed_pn_epsilon", "repeated_key", "seed_2_64"])
    def test_train_config_is_refused(self, tmp_path, data, capsys, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data_dir = {data}\nepochs = 1\n{line}\n")
        code, _, err = run(capsys, "train", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert f"{cfgfile}: line 3: " in err
        assert not (tmp_path / "run").exists()

    def test_seed_flag_past_64_bits_is_refused_before_any_output(self, tmp_path, data, capsys):
        code, out, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                             "--epochs", "1", "--seed", str(2**64 + 1))
        assert (code, out, err) == (1, "", f"error: seed must be < 2**64, got {2**64 + 1}\n")
        assert not (tmp_path / "run").exists()

    def test_train_refuses_labels_short_of_the_classes_before_any_output(self, tmp_path,
                                                                         capsys):
        data, run_dir = tmp_path / "six", tmp_path / "run"
        assert run(capsys, "synth", "--out", str(data), "--videos", "6", "--classes", "8",
                   "--backbone-dim", "8", "--tau", "3")[0] == 0
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(run_dir),
                                "--epochs", "1")
        assert (code, stdout) == (1, "")
        assert err == (f"error: {data / 'labels.csv'}: the largest label is 5, but "
                       f"{data / 'dataset.cfg'} has n_classes = 8\n")
        assert not run_dir.exists()

    def test_model_is_refused_on_data_of_another_backbone_width(self, tmp_path, data, capsys):
        run_dir, wide = tmp_path / "run", tmp_path / "wide"
        assert run(capsys, "train", "--data", str(data), "--out", str(run_dir),
                   "--epochs", "1")[0] == 0
        run(capsys, "synth", "--out", str(wide), "--videos", "8", "--classes", "2",
            "--seed", "1", "--backbone-dim", "16", "--tau", "3")
        for command in ("eval", "search-beta"):
            code, out, err = run(capsys, command, "--model", str(run_dir / "checkpoint.hal"),
                                 "--data", str(wide))
            assert (code, out) == (1, "")
            assert err == "error: features of width 16, but the model reads width 8\n"

    @pytest.mark.parametrize("command", ["eval", "search-beta"])
    def test_model_is_refused_on_data_of_other_classes(self, tmp_path, data, capsys, command):
        run_dir, other = tmp_path / "run", tmp_path / "other"
        assert run(capsys, "train", "--data", str(data), "--out", str(run_dir),
                   "--epochs", "1")[0] == 0
        run(capsys, "synth", "--out", str(other), "--videos", "8", "--classes", "4",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        code, out, err = run(capsys, command, "--model", str(run_dir / "checkpoint.hal"),
                             "--data", str(other))
        assert (code, out) == (1, "")
        assert err == (f"error: {other / 'dataset.cfg'}: n_classes = 4, "
                       "but the model has 2 classes\n")

    def test_every_train_config_field_survives_config_cfg(self, tmp_path, capsys, monkeypatch):
        changed = dict(alpha=0.5, learning_rate=0.01, epochs=3, seed=9,
                       pre_sketch_dim=12, sketch_dim=6, streams=("fv2", "det3", "sal1"),
                       batch_size=5, val_fraction=0.3, rho=0.3, eta=3.0,
                       warmup_epochs=4, ridge_l2=0.01)
        assert changed.keys() == {f.name for f in fields(TrainConfig)}
        cfg = TrainConfig(**changed)
        assert [k for k in changed if getattr(cfg, k) == getattr(TrainConfig(), k)] == []
        # the first run's config.cfg is read back by the second; neither trains
        seen = []
        monkeypatch.setattr(cli, "load_dataset",
                            lambda *args: (SimpleNamespace(labels=np.array([1])), 2))
        monkeypatch.setattr(cli, "train", lambda data, c: (seen.append(c), (init_model(c, 2, 8), []))[1])
        first = tmp_path / "first.cfg"
        first.write_text("".join(f"{k} = {v}\n" for k, v in {
            **changed, "streams": "fv2,det3,sal1",
            "data_dir": tmp_path / "data", "out_dir": tmp_path / "r1"}.items()))
        assert run(capsys, "train", "--config", str(first))[0] == 0
        resolved = tmp_path / "r1" / "config.cfg"
        resolved.write_text(resolved.read_text().replace(str(tmp_path / "r1"), str(tmp_path / "r2")))
        assert run(capsys, "train", "--config", str(resolved))[0] == 0
        assert seen == [cfg, cfg]

    def test_every_config_field_has_a_parser(self):
        assert list(config_parsers(TrainConfig)) == [f.name for f in fields(TrainConfig)]
        assert list(config_parsers(SynthConfig)) == [f.name for f in fields(SynthConfig)]

    @pytest.mark.parametrize("old, new", [("seed = 1", "sed = 1"),
                                          ("n_videos = 8", "n_videos = 16.7"),
                                          ("n_videos = 8", "n_videos = 0"),
                                          ("n_classes = 2", "n_classes = 1"),
                                          ("tau = 3", "tau = 1")],
                             ids=["unknown_key", "fractional_int", "no_videos", "one_class",
                                  "tau_1"])
    def test_dataset_config_is_refused(self, tmp_path, data, capsys, old, new):
        path = data / "dataset.cfg"
        lines = path.read_text().splitlines()
        lineno = lines.index(old) + 1
        path.write_text("\n".join(new if s == old else s for s in lines) + "\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                           "--epochs", "1")
        assert code == 1
        assert f"{path}: line {lineno}: " in err

    @pytest.mark.parametrize("lines, message", [
        (["sal_width = 32", "sal_height = 24", "aux_dim = 96", "class_scale = 3.0",
          "latent_scale = 2.5", "noise_scale = 1.0"], "unknown key 'sal_width'"),
        (["aux_dim = 96"], "unknown key 'aux_dim'"),
        (["noise_scale = 1.0"], "unknown key 'noise_scale'"),
        (["seed = 1"], "repeated key 'seed'"),
    ], ids=["eleven_keys", "removed_aux_dim", "removed_noise_scale", "repeated_key"])
    def test_line_past_the_five_keys_is_refused(self, tmp_path, data, capsys, lines, message):
        path = data / "dataset.cfg"
        with open(path, "a") as fp:
            fp.write("".join(line + "\n" for line in lines))
        code, out, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                             "--epochs", "1")
        assert (code, out, err) == (1, "", f"error: {path}: line 6: {message}\n")
        assert not (tmp_path / "run").exists()

    def test_every_synth_flag_is_a_dataset_cfg_field(self, tmp_path, capsys):
        """A generator setting is a flag and a field, or a constant; every
        synth and encoder default is its config's."""
        parser = cli.build_parser()
        defaults = vars(parser.parse_args(["synth", "--out", "x"]))
        del defaults["command"], defaults["func"], defaults["out"]
        assert defaults == asdict(SynthConfig())
        odf_args = parser.parse_args(["encode-odf", "--input", "i", "--out", "o"])
        sdf_args = parser.parse_args(["encode-sdf", "--manifest", "m", "--out", "o"])
        assert (odf_args.n_prime, sdf_args.n_dagger) == (OdfConfig().n_prime, N_DAGGER)
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flag_of = {a.dest: a.option_strings[0] for a in sub.choices["synth"]._actions}
        values = {"n_videos": 3, "n_classes": 3, "seed": 4, "backbone_dim": 5, "tau": 3}
        assert [flag_of[k] for k in values] == ["--videos", "--classes", "--seed",
                                                "--backbone-dim", "--tau"]
        assert [k for k in values if values[k] == defaults[k]] == []
        argv = [arg for k, v in values.items() for arg in (flag_of[k], str(v))]
        assert run(capsys, "synth", "--out", str(tmp_path), *argv)[0] == 0
        written = (tmp_path / "dataset.cfg").read_text()
        assert written == "".join(f"{k} = {v}\n" for k, v in values.items())


class TestTargetCache:
    def test_second_train_runs_no_encoder(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        run(capsys, "synth", "--out", str(data), "--videos", "8", "--classes", "2",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "r1"),
                           "--epochs", "2", "--seed", "1")
        assert code == 0, err

        def refuse(*args, **kwargs):
            raise AssertionError("an encoder ran on a cache hit")

        monkeypatch.setattr(synthgen, "odf_descriptor", refuse)
        monkeypatch.setattr(synthgen, "sdf_descriptor", refuse)
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "r2"),
                           "--epochs", "2", "--seed", "1")
        assert code == 0, err
        for name in ("checkpoint.hal", "metrics.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_missing_detection_group_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(capsys, "synth", "--out", str(data), "--videos", "8", "--classes", "2",
            "--seed", "1", "--backbone-dim", "8", "--tau", "3")
        path = data / "detections.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(s for s in lines if not ('"v0000"' in s and '"det3"' in s)))
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                           "--epochs", "1")
        assert code == 1
        assert err == f"error: {path}: no entries for video 'v0000' and detector 'det3'\n"
        assert not (tmp_path / "run").exists()


class TestAtomicWrites:
    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old contents")
        write_atomic(target, b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old contents")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(target, b"new")
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_readme_cli_block_names_the_parser_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    documented = set(re.findall(r"^momhal ([\w-]+)", block, re.M))
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)


def test_readme_names_the_training_config_keys_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"^Training config keys(.*?) These are", readme, re.S | re.M).group(1)
    assert re.findall(r"`([a-z]\w*)`", listed) == list(cli._CONFIG_KEYS)
