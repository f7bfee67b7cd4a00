"""Statistical stream descriptors and a self-supervised hallucination trainer.

The package re-exports nothing: import from the module.  The encoders
(kernel, moments, odf, sdf) and the model (pn, sketch, fusion, halluc)
import nothing from each other; both use atomic and keyvalue, and only
synthgen and cli join them, so serving a checkpoint loads no encoder.

  kernel   - Gaussian feature maps over fixed pivots
  moments  - multi-moment bag descriptors
  odf      - object detection features
  sdf      - saliency detection features
  pn       - power normalization (SigmE, MaxExp)
  sketch   - count sketches
  fusion   - the stream names, reweighting, pooling, golden-section search
  halluc   - the stacked stream units, objective, training, inference
  atomic   - atomic file writes
  keyvalue - the one line reader of every text input; the key = value format
  synthgen - deterministic synthetic datasets and the target cache
  cli      - command-line interface
"""

__version__ = "0.1.0"
