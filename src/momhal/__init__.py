"""Statistical stream descriptors and a self-supervised hallucination trainer.

Submodules:
  kernel   - Gaussian feature maps over fixed pivots
  pn       - power normalization (SigmE, MaxExp)
  sketch   - count sketches
  moments  - multi-moment bag descriptors
  odf      - object detection features
  sdf      - saliency detection features
  fusion   - stream reweighting, pooling, golden-section search
  halluc   - the stacked stream units, objective, training, inference
  synthgen - deterministic synthetic datasets and the target cache
  atomic   - atomic file writes
  keyvalue - the one line reader of every text input; the key = value format
  cli      - command-line interface
"""

from .kernel import FeatureMapConfig, feature_map
from .moments import FeatureBag, MultiMomentDescriptor, assemble_upsilon, multi_moment
from .odf import DetectionRecord, OdfConfig, encode_box, odf_descriptor
from .pn import maxexp, sigme, sigme_grad
from .sdf import SaliencyFrame, encode_frame, gradients, sdf_descriptor
from .sketch import CountSketch, project, sketch_new
from .fusion import FusionSpec, golden_section_max
from .halluc import Model, SyntheticVideo, TrainConfig, infer, objective, train

__all__ = [
    "FeatureMapConfig", "feature_map",
    "sigme", "sigme_grad", "maxexp",
    "CountSketch", "sketch_new", "project",
    "FeatureBag", "MultiMomentDescriptor", "assemble_upsilon", "multi_moment",
    "DetectionRecord", "OdfConfig", "encode_box", "odf_descriptor",
    "SaliencyFrame", "gradients", "encode_frame", "sdf_descriptor",
    "FusionSpec", "golden_section_max",
    "TrainConfig", "SyntheticVideo", "Model", "objective", "train", "infer",
]

__version__ = "0.1.0"
