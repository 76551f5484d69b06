"""Scale-restricted well-separated pair decompositions.

Every pair of points within t is covered by a node pair whose point-set
diameters are small next to the distance between them. Only node pairs that
can reach within t are emitted (representatives at most t plus the two
covering radii apart); pairs beyond t are not the structure's business,
which is what keeps it small.
"""

import math

import numpy as np

from scalenets import build_forest, gen_wspd, generate, verify_wspd
from scalenets.geometry import pairwise_distances

cloud = generate("affine", n=300, d=6, flat_dim=2, seed=5)
d = pairwise_distances(cloud)
t = float(np.quantile(d[d > 0], 0.2))
forest = build_forest(cloud, t, nn="exact")

for eps in (0.3, 0.5, 0.8):
    wspd = gen_wspd(forest, cloud, eps)
    report = verify_wspd(cloud, forest, wspd, eps, t)
    pairs_within_t = int((d <= t).sum() - cloud.n) // 2
    print(f"eps={eps}: {len(wspd.pairs):6d} node pairs cover {pairs_within_t} point pairs; "
          f"violations: {len(report.separation_violations)} separation, "
          f"{len(report.coverage_violations)} coverage")
# pairs are one sorted (m, 2) array of node ids, u <= v in every row
u, v = wspd.pairs[0]
print(f"first pair: nodes {u} and {v} at levels "
      f"{forest.level[u]} and {forest.level[v]}")

# size scales linearly in n once density is held fixed
print("\nsize trend at constant density:")
sizes, ns = [], (250, 500, 1000, 2000)
t = None
for n in ns:
    extent = math.sqrt(n / ns[0])
    cloud = generate("affine", n=n, d=6, flat_dim=2, seed=5, extent=extent)
    if t is None:
        dm = pairwise_distances(cloud)
        np.fill_diagonal(dm, np.inf)
        t = 2.0 * float(np.median(dm.min(axis=1)))
    forest = build_forest(cloud, t, nn="exact")
    sizes.append(len(gen_wspd(forest, cloud, 0.5).pairs))
    print(f"  n={n:5d}: {sizes[-1]:6d} pairs")
slope = float(np.polyfit(np.log(ns), np.log(sizes), 1)[0])
print(f"log-log slope: {slope:.3f}")
