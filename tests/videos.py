"""``SyntheticVideo`` lists as the ``VideoArrays`` that ``train``,
``objective`` and ``accuracy`` take.  Tests build small datasets video by
video; the package itself converts no list."""

import numpy as np

from momhal.halluc import VideoArrays, time_pool


def as_arrays(videos, cfg, streams=None) -> VideoArrays:
    """The arrays of ``videos``, with the targets of ``streams`` (default
    ``cfg.streams``) as (len(videos), cfg.sketch_dim) slabs."""
    streams = cfg.streams if streams is None else tuple(streams)
    targets = np.array([[v.ground_truth[s] for v in videos] for s in streams], dtype=np.float64)
    return VideoArrays(time_pool([v.backbone_features for v in videos]),
                       targets.reshape(len(streams), len(videos), cfg.sketch_dim),
                       np.array([int(v.label) for v in videos]), streams)
