"""Indexes: the k-path index and selectivity statistics."""

from repro.indexes.compressed import CompressedBackend, compression_ratio
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics, Statistics, UniformStatistics

__all__ = [
    "CompressedBackend",
    "EquiDepthHistogram",
    "ExactStatistics",
    "PathIndex",
    "Statistics",
    "UniformStatistics",
    "compression_ratio",
]
