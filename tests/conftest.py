import zlib

import numpy as np
import pytest

from scalenets.geometry import PointCloud, generate, pairwise_distances


def quantile_scale(cloud: PointCloud, q: float) -> float:
    d = pairwise_distances(cloud)
    return float(np.quantile(d[d > 0], q))


def median_nn(cloud: PointCloud) -> float:
    d = pairwise_distances(cloud)
    np.fill_diagonal(d, np.inf)
    return float(np.median(d.min(axis=1)))


def root_of(forest, v: int) -> int:
    """The root of node v's tree: the last root id at or below v (ids are a preorder)."""
    return int(forest.roots[np.searchsorted(forest.roots, v, side="right") - 1])


# (name, cloud, t) triples exercising every generator at structural scale;
# one entry uses a deliberately awkward t so level rounding paths get hit
def structural_corpora(n: int = 150) -> list[tuple[str, PointCloud, float]]:
    out = []
    for name, kind, kwargs, q in [
        ("uniform", "uniform", dict(n=n, d=3), 0.25),
        ("clustered", "clustered", dict(n=n, d=4, clusters=6), 0.2),
        ("affine2", "affine", dict(n=n, d=6, flat_dim=2), 0.25),
        ("sphere", "sphere", dict(n=n, d=3, noise=0.05), 0.3),
        ("curve", "curve", dict(n=n, d=3, spacing=0.04), 0.2),
    ]:
        # crc32, not hash(): str hashes are salted per process
        cloud = generate(kind, seed=zlib.crc32(name.encode()), **kwargs)
        out.append((name, cloud, quantile_scale(cloud, q)))
    # awkward scale: just above a power boundary of the level formula
    cloud = generate("uniform", n=n, d=3, seed=77)
    out.append(("awkward-t", cloud, 2.2 * 11.0**-1 * 1.01))
    return out


# (name, cloud, t) forests of 3 to 5 levels, unlike the corpora above, whose
# forests have a root level and a leaf level only
DEEP_CLOUDS = [
    ("line", PointCloud(np.geomspace(1e-3, 10, 40)[:, None]), 20.0),
    ("uniform-one-root", generate("uniform", n=150, d=2, seed=4), 2.0),
    ("clustered-one-root", generate("clustered", n=150, d=3, seed=4, clusters=5), 30.0),
]


@pytest.fixture(scope="session")
def corpora():
    return structural_corpora()
