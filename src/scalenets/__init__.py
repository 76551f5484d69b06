"""Scale-restricted metric data structures over Euclidean point clouds."""

from .geometry import (
    Ball,
    ExactNearNeighbours,
    PointCloud,
    brute_near_neighbours,
    brute_restricted_doubling,
    distance,
    exact_meb,
    generate,
    read_points,
    restricted_dim,
    write_points,
)
from .lsh import LshIndex, LshParams, QueryReport, collision_probability, derive_params
from .forest import (
    NetForest,
    augment_rel,
    build_cluster_tree,
    build_forest,
    build_net,
    build_root_rel,
    check_forest,
    extract_net,
    read_forest,
    root_level,
    vcell,
    write_forest,
)
from .wspd import Wspd, gen_wspd, verify_wspd, read_wspd, write_wspd
from .wssd import Wssd, approx_meb, gen_wssd, verify_wssd, read_wssd, write_wssd
from .cech import (
    FiltrationOutput,
    FiltrationSlice,
    build_filtration,
    build_cech_pipeline,
    choose_h,
    default_grid,
    read_filtration,
    verify_sandwich,
    write_filtration,
)
from .dimension import DimEstimate, estimate_dim

__version__ = "0.1.0"
