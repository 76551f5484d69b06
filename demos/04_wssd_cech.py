"""Simplicial decompositions and approximate Cech slices.

The tuple decomposition covers every small-enough simplex; coarsening its
tuples at a per-scale level yields approximation complexes that sandwich the
exact Cech complex: exact simplices survive the vertex coarsening, and
nothing appears whose representatives would not fit in a modestly inflated
ball.
"""

import numpy as np

from scalenets import (
    build_cech_pipeline,
    build_forest,
    gen_wssd,
    generate,
    verify_sandwich,
    verify_wssd,
)
from scalenets.geometry import pairwise_distances

cloud = generate("uniform", n=25, d=3, seed=9)
d = pairwise_distances(cloud)
t = float(np.quantile(d[d > 0], 0.25))
print(f"n={cloud.n}, t={t:.3f}")

forest = build_forest(cloud, 2 * t, nn="exact")  # decompositions live on a 2t forest
wssd = gen_wssd(forest, cloud, 0.5, 2)
# tier j is one (tuples, j+1) array of forest node ids
print("tuple tiers:", {j: v.shape for j, v in wssd.tiers.items()})
print("first tier-2 tuple:", wssd.tiers[2][0].tolist())
print("generation stats:", wssd.stats)
report = verify_wssd(cloud, forest, wssd, 0.5, 2, t)
print(f"coverage violations: {len(report.coverage_violations)}, "
      f"separation violations: {len(report.separation_violations)}")

print("\napproximate Cech slices (eps=0.5):")
grid = np.geomspace(0.2 * t, t, 6)
_, _, output = build_cech_pipeline(cloud, 0.5, 2, t, grid=grid, nn="exact")
for sl in output.slices:
    dims = {}
    for s in sl.simplices:
        dims[len(s) - 1] = dims.get(len(s) - 1, 0) + 1
    print(f"  alpha={sl.alpha:.3f} h={sl.h}: "
          f"{len(set(sl.vertex_map.values()))} vertices, simplices by dim {dims}")

sandwich = verify_sandwich(cloud, output, 0.5, 2)
print(f"\nsandwich check: {len(sandwich.lower_violations)} lower, "
      f"{len(sandwich.upper_violations)} upper violations")
