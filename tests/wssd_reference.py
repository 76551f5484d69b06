"""The per-tuple WSSD extension that one kd-tree query per cell level replaced.

Test-only reference: each extended tuple walks its first node up to an
ancestor whose rel list is wide enough, or, when the walk reaches a root,
takes the roots within 7 * forest.t; it then gathers the cells below those
sources with `descend_to_level` and keeps those whose rep is within the
search reach. `gen_wssd` must give the same tiers, rows in the same order,
and the same stats.
"""

import functools
import math
from itertools import combinations

import numpy as np

from scalenets.forest import COVER_COEF, REL_COEF, TAU, descend_to_level
from scalenets.geometry import row_distances
from scalenets.wspd import gen_wspd
from scalenets.wssd import DELTA_MEB, _approx_meb_batch

_LEVEL_FLOOR = -250


def _level_floor(value):
    if value <= float(TAU) ** _LEVEL_FLOOR:
        return _LEVEL_FLOOR
    return max(_LEVEL_FLOOR, math.floor(math.log(value, TAU) + 1e-12))


def reference_tiers(forest, cloud, epsilon, k):
    """(tiers, stats) of the rel-list walk, for the arguments of `gen_wssd`."""
    t = forest.t / 2.0
    pts = cloud.points
    rep_of = forest.rep
    parent, level = forest.parent.tolist(), forest.level.tolist()
    stats = {"skipped": 0, "capped": 0, "fallback_all_roots": 0}

    tiers = {1: gen_wspd(forest, cloud, epsilon / 2.0).pairs}

    neighbours = forest.roots_within_7t(cloud)
    cells_at = functools.cache(functools.partial(descend_to_level, forest))
    # the rel radius 14*tau^level must absorb two covering hops plus the
    # search reach, hence the 14 - 2*2.2 = 9.6 margin
    rel_margin = REL_COEF - 2.0 * COVER_COEF

    for j in range(1, k):
        tier = tiers[j]
        stack = pts[rep_of[tier]]
        maxcovs = forest.cover[tier].max(axis=1)
        widest = np.max([row_distances(stack[:, a], stack[:, b])
                         for a, b in combinations(range(j + 1), 2)], axis=0)
        live = np.flatnonzero(~(widest / 2.0 * (1 - 1e-9) / (1.0 + DELTA_MEB) - maxcovs > t))
        centers, radii = _approx_meb_batch(stack[live], DELTA_MEB)
        extend = ~(radii / (1.0 + DELTA_MEB) - maxcovs[live] > t)
        stats["skipped"] += len(tier) - int(np.count_nonzero(extend))
        owners: list[int] = []
        cells: list[int] = []
        grown = live[extend]
        for i, anchor, center, r, maxcov in zip(
            grown.tolist(), tier[grown, 0].tolist(), centers[extend],
            radii[extend].tolist(), maxcovs[grown].tolist(),
        ):
            r_floor = r / ((1.0 + DELTA_MEB) * (1.0 + epsilon))
            lam = _level_floor(epsilon * r_floor / (4.0 * 2.0 * COVER_COEF))
            cell_pad = COVER_COEF * float(TAU) ** lam
            r_search = 3.0 * (r + maxcov) + cell_pad
            need = 4.0 * r + 3.0 * maxcov + cell_pad

            while parent[anchor] >= 0 and need > rel_margin * float(TAU) ** level[anchor]:
                anchor = parent[anchor]
            if parent[anchor] >= 0:
                sources = forest.rel_of(anchor)
            else:
                # The walk ended at the root of the tuple's first node. Its
                # roots within 7 * forest.t hold every source: non-root covers
                # are at most forest.t/11, and no tuple holding a non-leaf root
                # passes the skip test (its WSPD pair is >= 4*forest.t/eps apart),
                # so 2*forest.t + 4r + 3*maxcov + cell_pad <= (2 + 4.2*(0.5 +
                # 1/11) + 3/11 + 0.04) * forest.t, about 4.8 * forest.t.
                stats["capped"] += 1
                sources = neighbours[anchor]

            cands = np.array([c for w in sources for c in cells_at(w, lam)], dtype=np.intp)
            d = np.linalg.norm(pts[rep_of[cands]] - center, axis=1)
            hit = cands[d <= r_search * (1 + 1e-12)].tolist()
            owners += [i] * len(hit)
            cells += hit
        tiers[j + 1] = np.column_stack(
            (tier[np.array(owners, dtype=np.intp)], np.array(cells, dtype=np.intp))
        )
    return tiers, stats
