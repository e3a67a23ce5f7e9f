"""Indexes: the k-path index, selectivity statistics, reachability."""

from repro.indexes.compressed import CompressedBackend, compression_ratio
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex
from repro.indexes.reachability import LabelReachabilityIndex
from repro.indexes.statistics import ExactStatistics, Statistics, UniformStatistics

__all__ = [
    "CompressedBackend",
    "EquiDepthHistogram",
    "ExactStatistics",
    "LabelReachabilityIndex",
    "PathIndex",
    "Statistics",
    "UniformStatistics",
    "compression_ratio",
]
