"""Index layer: the TQ-tree family and the baseline point quadtree."""

from .builder import (
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    segment_dataset,
)
from .block import NodeBlock
from .frame import TreeFrame, ZStack
from .entries import SubBounds, entry_keys, validate_spec_for_variant
from .quadtree import PointQuadtree
from .stats import IndexStats, storage_report
from .tqtree import TQTree

__all__ = [
    "TQTree",
    "PointQuadtree",
    "NodeBlock",
    "TreeFrame",
    "ZStack",
    "SubBounds",
    "entry_keys",
    "validate_spec_for_variant",
    "IndexStats",
    "storage_report",
    "build_tq_zorder",
    "build_tq_basic",
    "build_segmented",
    "build_full",
    "segment_dataset",
]
