"""Local intrinsic dimension estimates from net-forest branching."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import NetForest

__all__ = ["DimEstimate", "estimate_dim"]


@dataclass(frozen=True)
class DimEstimate:
    max_out_degree: int
    estimate: float
    t: float


def estimate_dim(forest: NetForest) -> DimEstimate:
    """log2 of the maximum child count over all nodes.

    Rel lists are diagnostics and do not count toward the out-degree. A
    forest of isolated leaves has estimate zero.
    """
    if not forest.n_nodes:
        raise ValueError("empty forest")
    x = max(int(np.diff(forest.child_ptr).max()), 1)
    return DimEstimate(max_out_degree=x, estimate=math.log2(x), t=forest.t)
