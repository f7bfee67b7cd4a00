"""Spans around the public functions of each ``momhal`` module, recorded
from the benchmark's side.

Most modules import names directly (``from .synthgen import
load_dataset``), so a wrapper replaces the name in every ``momhal``
module that holds the same function object.  Private functions are not
wrapped: their time shows as the self time of the nearest public caller.

A span records its name, start, end, parent and thread.  A span opened on
a worker thread with nothing open on that thread takes as parent the
innermost span open on the main thread, which is the CLI command that
owns the pool.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Public functions per module; ``cli`` commands are spanned as cli.<command>.
PUBLIC = {
    "kernel": ("feature_map", "feature_map_batch"),
    "pn": ("sigme", "sigme_grad", "maxexp"),
    "sketch": ("project", "project_rows", "project_transpose_rows", "sketch_new",
               "derive_stream_seed", "sketch_to_bytes", "sketch_from_bytes"),
    "moments": ("multi_moment", "assemble_upsilon", "descriptor_to_bytes"),
    "odf": ("read_detections", "parse_detection_line", "encode_box", "detection_bag",
            "odf_descriptor"),
    "sdf": ("read_pgm", "read_saliency_manifest", "gradients", "encode_gradient_field",
            "gist", "encode_frame", "sdf_descriptor"),
    "fusion": ("effective_coefficients", "golden_step", "golden_section_max", "ridge_fit",
               "ridge_predict", "ridge_accuracy", "spec_to_text", "spec_from_text"),
    "halluc": ("train", "objective", "evaluate", "predict_scores", "infer", "init_model",
               "metrics_to_csv", "save_checkpoint", "load_checkpoint"),
    "synthgen": ("generate_dataset", "load_dataset", "read_dataset_config"),
    "cli": ("cmd_encode_odf", "cmd_encode_sdf", "cmd_synth", "cmd_train", "cmd_eval",
            "cmd_search_beta"),
}


def _span_name(module: str, func: str) -> str:
    return f"cli.{func[4:]}" if module == "cli" else f"{module}.{func}"


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _bag_key(bag) -> str:
    """Identity of a bag's content: per-frame row counts and first rows."""
    digest = hashlib.blake2b(digest_size=16)
    for frame in bag.frames:
        digest.update(frame.shape[0].to_bytes(4, "little"))
        if frame.shape[0]:
            digest.update(frame[0].tobytes())
    return digest.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, name, start, end, thread, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []
        self.bags: set[str] = set()
        self.golden_evals = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            extra = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), extra))
            return result

        return wrapper

    def _attrs(self, name: str):
        """Per-span attributes (row counts, bytes) for the functions whose
        per-layer metrics need more than time and calls."""
        if name == "moments.multi_moment":
            def attrs(args, kwargs, result):
                bag = args[0]
                self.bags.add(_bag_key(bag))
                return {"rows": bag.total, "path": "gram" if bag.total < bag.dim else "svd"}
            return attrs
        if name == "moments.descriptor_to_bytes":
            return lambda a, k, r: {"bytes": len(r)}
        if name == "odf.read_detections":
            return lambda a, k, r: {"records": sum(len(recs) for _, recs in r.values())}
        if name == "sdf.read_pgm":
            return lambda a, k, r: {"bytes": os.path.getsize(a[0])}
        if name == "pn.sigme":
            return lambda a, k, r: {"rows": int(r.size // r.shape[-1]) if r.ndim else 1}
        if name == "halluc.save_checkpoint":
            return lambda a, k, r: {"bytes": os.path.getsize(a[1])}
        if name == "synthgen.generate_dataset":
            return lambda a, k, r: {"bytes": _dir_bytes(a[0])}
        return None

    def _wrap_golden_step(self, wrapped):
        """Count objective evaluations per golden-section step."""
        def golden_step(f, bracket):
            counted = _Counted(f)
            result = wrapped(counted, bracket)
            self.golden_evals += counted.calls
            return result
        return golden_step

    def install(self) -> None:
        modules = {name: m for name, m in sys.modules.items()
                   if name == "momhal" or name.startswith("momhal.")}
        for layer, funcs in PUBLIC.items():
            home = modules[f"momhal.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                name = _span_name(layer, func)
                wrapper = self._wrap(name, original, self._attrs(name))
                if name == "fusion.golden_step":
                    wrapper = self._wrap_golden_step(wrapper)
                for mod in modules.values():
                    if getattr(mod, func, None) is original:
                        self._patched.append((mod, func, original))
                        setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for sid, parent, name, start, end, thread, extra in self.spans:
                fp.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "thread": thread, **extra}) + "\n")

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def per_layer_metrics(tracer: Tracer, rounds: int, threads: int) -> tuple[dict, dict]:
    """Per-layer metrics (per round) and, for each CLI command, the share
    of its wall time that child spans cover."""
    selfs = tracer.self_times()
    calls = defaultdict(int)
    secs = defaultdict(float)
    sums = defaultdict(float)
    wall = defaultdict(float)
    for sid, _, name, start, end, _, extra in tracer.spans:
        key = name
        if name == "moments.multi_moment":
            key = f"{name}.{extra['path']}"
            sums[f"{key}.rows"] += extra["rows"]
        calls[key] += 1
        secs[key] += selfs[sid]
        wall[key] += end - start
        for attr in ("bytes", "records", "rows"):
            if attr in extra and name != "moments.multi_moment":
                sums[f"{name}.{attr}"] += extra[attr]

    def per_round(x):
        return x / rounds

    m = {}
    for name in ("kernel.feature_map", "kernel.feature_map_batch", "odf.encode_box",
                 "odf.odf_descriptor", "sdf.read_pgm", "sdf.encode_gradient_field", "sdf.gist",
                 "sdf.sdf_descriptor", "moments.multi_moment.gram", "moments.multi_moment.svd",
                 "pn.sigme", "pn.sigme_grad", "sketch.project_rows",
                 "sketch.project_transpose_rows", "sketch.project",
                 "fusion.effective_coefficients", "fusion.ridge_accuracy", "halluc.objective",
                 "halluc.evaluate", "halluc.infer", "synthgen.load_dataset"):
        m[f"{name}.calls"] = per_round(calls[name])
        m[f"{name}.s"] = per_round(secs[name])
    for name in ("odf.read_detections", "halluc.train", "halluc.save_checkpoint",
                 "halluc.load_checkpoint", "synthgen.generate_dataset", "cli.encode_odf",
                 "cli.encode_sdf"):
        m[f"{name}.s"] = per_round(secs[name])
    m["odf.read_detections.records"] = per_round(sums["odf.read_detections.records"])
    m["sdf.read_pgm.bytes"] = per_round(sums["sdf.read_pgm.bytes"])
    m["moments.multi_moment.gram.rows"] = per_round(sums["moments.multi_moment.gram.rows"])
    m["moments.multi_moment.svd.rows"] = per_round(sums["moments.multi_moment.svd.rows"])
    mm_calls = calls["moments.multi_moment.gram"] + calls["moments.multi_moment.svd"]
    m["moments.multi_moment.calls_per_bag"] = (
        per_round(mm_calls) / len(tracer.bags) if tracer.bags else 0.0)
    m["moments.descriptor_to_bytes.bytes"] = per_round(sums["moments.descriptor_to_bytes.bytes"])
    m["pn.sigme.rows"] = per_round(sums["pn.sigme.rows"])
    m["fusion.golden_step.calls"] = per_round(calls["fusion.golden_step"])
    m["fusion.golden_step.evals_per_step"] = (
        tracer.golden_evals / calls["fusion.golden_step"]
        if calls["fusion.golden_step"] else 0.0)
    m["halluc.save_checkpoint.bytes"] = per_round(sums["halluc.save_checkpoint.bytes"])
    m["synthgen.generate_dataset.bytes"] = per_round(sums["synthgen.generate_dataset.bytes"])
    names = {s[0]: s[2] for s in tracer.spans}
    for cmd, desc in (("cli.encode_odf", "odf.odf_descriptor"), ("cli.encode_sdf", "sdf.sdf_descriptor")):
        busy = sum(end - start for _, parent, name, start, end, _, _ in tracer.spans
                   if name == desc and names.get(parent) == cmd)
        m[f"{cmd}.pool_busy"] = busy / (wall[cmd] * threads) if wall[cmd] else 0.0

    for cmd in ("synth", "train", "eval", "search_beta", "encode_odf", "encode_sdf"):
        m[f"cli.{cmd}.wall_s"] = per_round(wall[f"cli.{cmd}"])
    coverage = {name: 1.0 - secs[name] / wall[name]
                for name in wall if name.startswith("cli.") and wall[name] > 0}
    return m, coverage

