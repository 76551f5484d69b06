"""Net-forest construction at a scale cap.

The forest's roots form a (t,t)-net; each tree refines its cluster through
nested nets with factor-11 scale jumps. The invariant checker validates the
covering/packing radii of every node, and nets at any represented level can
be read off directly.
"""

import numpy as np

from scalenets import build_forest, check_forest, extract_net, generate
from scalenets.forest import COVER_COEF, TAU
from scalenets.geometry import pairwise_distances

cloud = generate("clustered", n=400, d=3, seed=3, clusters=8)
d = pairwise_distances(cloud)
t = float(np.quantile(d[d > 0], 0.2))
print(f"n={cloud.n}, scale cap t={t:.3f}")

forest = build_forest(cloud, t, nn="exact")
print(f"roots: {len(forest.roots)} (one per cluster of the (t,t)-net)")
print(f"nodes: {forest.n_nodes}, root level: {forest.root_level}")

violations = check_forest(forest, cloud)
print(f"invariant violations: {len(violations)}")

levels = np.unique(forest.level).tolist()
print("\nnets read off the forest (level: size, covering radius bound):")
for lev in levels[-4:]:
    if lev > forest.root_level:
        continue
    reps = extract_net(forest, lev)
    print(f"  level {lev:3d}: {len(reps):4d} points, cover <= {COVER_COEF * TAU**lev:.4f}")

# rel lists are CSR slices: node v's list is rel_ids[rel_ptr[v]:rel_ptr[v + 1]]
sizes = np.sort(np.diff(forest.rel_ptr))
print(f"\nrel list sizes: min={sizes[0]} median={sizes[len(sizes)//2]} max={sizes[-1]}")
