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
from .entries import IndexEntry, SubBounds, make_entries, validate_spec_for_variant
from .quadtree import PointQuadtree
from .stats import IndexStats, storage_report
from .tqtree import QNode, TQTree
from .zindex import ZOrderedList, disc_region_test, embr_region_test

__all__ = [
    "TQTree",
    "QNode",
    "PointQuadtree",
    "ZOrderedList",
    "IndexEntry",
    "NodeBlock",
    "TreeFrame",
    "ZStack",
    "SubBounds",
    "make_entries",
    "validate_spec_for_variant",
    "IndexStats",
    "storage_report",
    "build_tq_zorder",
    "build_tq_basic",
    "build_segmented",
    "build_full",
    "segment_dataset",
    "embr_region_test",
    "disc_region_test",
]
