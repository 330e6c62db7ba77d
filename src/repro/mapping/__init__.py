"""Reference mapping operations (Table 1): the ground truth for the MPU."""

from .ball_query import ball_query_bruteforce, ball_query_indices, ball_query_maps
from .fps import farthest_point_sampling, fps_bruteforce, random_sampling
from .kernel_map import (
    kernel_map,
    kernel_map_bruteforce,
    kernel_map_hash,
    kernel_map_mergesort,
)
from .knn import knn_bruteforce, knn_indices, knn_maps
from .maps import MapTable

__all__ = [
    "MapTable",
    "ball_query_bruteforce",
    "ball_query_indices",
    "ball_query_maps",
    "farthest_point_sampling",
    "fps_bruteforce",
    "random_sampling",
    "kernel_map",
    "kernel_map_bruteforce",
    "kernel_map_hash",
    "kernel_map_mergesort",
    "knn_bruteforce",
    "knn_indices",
    "knn_maps",
]
