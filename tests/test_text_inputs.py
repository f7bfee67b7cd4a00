"""The six text inputs share one line reader: a bad byte or a bad value is
refused as ``file: line N: ...``, and a damaged file either parses or is
refused that way."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzz import damaged
from momhal.cli import _build_train_config, _read_taus, build_parser, main
from momhal.odf import read_detections
from momhal.sdf import read_saliency_manifest
from momhal.synthgen import SynthConfig, generate_dataset, load_dataset, read_dataset_config

TINY = SynthConfig(n_videos=4, n_classes=2, seed=3, backbone_dim=4, tau=2)


def detection(video="v1", detector="det1", frame=1, tau=3):
    return json.dumps({"video": video, "detector": detector, "frame": frame, "tau": tau,
                       "class": 7, "conf": 0.9, "box": [0.1, 0.1, 0.5, 0.5],
                       "inet_sparse": [[3, 0.25], [900, 0.75]]})


JSONL = "".join(detection(frame=f) + "\n" for f in (1, 3)) + detection(detector="det2") + "\n"
MANIFEST = "# video source frame\nv1 sal1 f/a.pgm\nv1 sal1 f/b.pgm\n\nv2 sal2 f/c.pgm\n"
TAUS = "# video tau\nv1 5\n\nv2 3\n"
TRAIN_CFG = ("epochs = 2\nbatch_size = 4\nstreams = fv1,det1\n# a comment\neta = 3.5\n"
             "ridge_l2 = 0.01\nval_fraction = 0.25\n")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    generate_dataset(root, TINY)
    return root


def with_bad_byte(text: str, lineno: int) -> bytes:
    """``text`` with a 0xff byte after the first character of line ``lineno``."""
    lines = text.encode().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:1] + b"\xff" + lines[lineno - 1][1:]
    return b"\n".join(lines)


class TestBadByte:
    """A byte that is not UTF-8 is refused with the file and its line, exit 1."""

    def check(self, capsys, argv, path, lineno):
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {lineno}: "), err
        assert "0xff" in err

    @pytest.mark.parametrize("name", ["detections", "manifest", "tau-source", "train-config",
                                      "dataset.cfg", "labels.csv"])
    def test_each_input_names_its_file_and_line(self, tmp_path, capsys, data, name):
        run = tmp_path / "run"
        if name == "detections":
            path = tmp_path / "d.jsonl"
            path.write_bytes(with_bad_byte(JSONL, 2))
            self.check(capsys, ["encode-odf", "--input", path, "--out", run], path, 2)
        elif name == "manifest":
            path = tmp_path / "m.txt"
            path.write_bytes(with_bad_byte(MANIFEST, 3))
            self.check(capsys, ["encode-sdf", "--manifest", path, "--out", run], path, 3)
        elif name == "tau-source":
            dets, path = tmp_path / "d.jsonl", tmp_path / "taus.txt"
            dets.write_text(JSONL)
            path.write_bytes(with_bad_byte(TAUS, 4))
            self.check(capsys, ["encode-odf", "--input", dets, "--out", run,
                                "--tau-source", path], path, 4)
        elif name == "train-config":
            path = tmp_path / "run.cfg"
            path.write_bytes(with_bad_byte(f"data_dir = {data}\n{TRAIN_CFG}", 3))
            self.check(capsys, ["train", "--config", path, "--out", run], path, 3)
        else:
            copy = tmp_path / "data"
            copy.mkdir()
            for src in data.iterdir():
                if src.is_file():
                    (copy / src.name).write_bytes(src.read_bytes())
            path = copy / name
            path.write_bytes(with_bad_byte(path.read_text(), 2))
            self.check(capsys, ["train", "--data", copy, "--out", run, "--streams", ""], path, 2)
        assert not run.exists()


def assert_names_file_and_line(exc: ValueError, path, blob: bytes, whole_file=()):
    """``exc`` starts with ``path`` and names a line of ``blob``; an error
    that begins with one of ``whole_file`` after the path is about the file
    as a whole (a missing key or video) and names no line."""
    message = str(exc)
    assert message.startswith(f"{path}: "), message
    rest = message[len(f"{path}: "):]
    if rest.startswith(tuple(whole_file)):
        return
    lineno = re.match(r"line (\d+): ", rest)
    assert lineno, message
    assert 1 <= int(lineno.group(1)) <= blob.count(b"\n") + 1, message


class TestDamagedFiles:
    """Each reader, given a damaged copy of a valid file, parses it or raises
    a ValueError that starts with the file's path and names one of its lines."""

    @pytest.fixture(scope="class")
    def tmp_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("damaged")

    @settings(max_examples=150, deadline=None)
    @given(blob=damaged(JSONL.encode()), strict=st.booleans())
    def test_detections(self, tmp_dir, blob, strict):
        path = tmp_dir / "d.jsonl"
        path.write_bytes(blob)
        try:
            read_detections(path, strict=strict)
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob)

    @settings(max_examples=100, deadline=None)
    @given(blob=damaged(MANIFEST.encode()))
    def test_manifest(self, tmp_dir, blob):
        path = tmp_dir / "m.txt"
        path.write_bytes(blob)
        try:
            read_saliency_manifest(path)
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob)

    @settings(max_examples=100, deadline=None)
    @given(blob=damaged(TAUS.encode()))
    def test_tau_source(self, tmp_dir, blob):
        path = tmp_dir / "taus.txt"
        path.write_bytes(blob)
        try:
            _read_taus(str(path), {"v1", "v2"})
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob)

    @settings(max_examples=150, deadline=None)
    @given(blob=damaged(TRAIN_CFG.encode()))
    def test_train_config(self, tmp_dir, data, blob):
        path = tmp_dir / "run.cfg"
        path.write_bytes(blob)
        args = build_parser().parse_args(["train", "--config", str(path), "--data", str(data)])
        try:
            _build_train_config(args)
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob)

    @settings(max_examples=150, deadline=None)
    @given(draw=st.data())
    def test_dataset_config(self, tmp_dir, data, draw):
        blob = draw.draw(damaged((data / "dataset.cfg").read_bytes()))
        path = tmp_dir / "dataset.cfg"
        path.write_bytes(blob)
        try:
            read_dataset_config(tmp_dir)
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob, whole_file=["missing key "])

    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_labels(self, data, draw):
        path = data / "labels.csv"
        valid = path.read_bytes()
        blob = draw.draw(damaged(valid))
        try:
            path.write_bytes(blob)
            load_dataset(data, sketch_dim=4, streams=())
        except ValueError as exc:
            assert_names_file_and_line(exc, path, blob, whole_file=["no label for video "])
        finally:
            path.write_bytes(valid)
