"""Freeze web pages into reproducible archives, apply pluggable
simplification transforms, evaluate original and variant pages with a
deterministic load simulator, score structural/functional fidelity, and emit
comparative delta/CDF reports."""

__version__ = "0.1.0"

from .archive import (
    ArchivedExchange,
    ArchivedPage,
    Corpus,
    import_har,
    load_page,
    normalize_url,
    store_page,
)
from .loadsim import (
    DEVICE_PROFILES,
    NETWORK_PROFILES,
    DeviceProfile,
    NetworkProfile,
    PageMetrics,
    simulate_load,
    speed_index,
)
from .pagemodel import ResourceGraph, parse_page
from .replay import ReplayServer, ShapingConfig, serve
from .similarity import SimilarityScores, score_graphs, structural_similarity
from .stats import DeltaRecord, DistributionSummary, compute_deltas, ecdf, summarize
from .transform import (
    TransformSpec,
    VariantPage,
    apply_transform,
    list_transforms,
    register_transform,
)

__all__ = [
    "ArchivedExchange",
    "ArchivedPage",
    "Corpus",
    "DeltaRecord",
    "DeviceProfile",
    "DistributionSummary",
    "DEVICE_PROFILES",
    "NETWORK_PROFILES",
    "NetworkProfile",
    "PageMetrics",
    "ReplayServer",
    "ResourceGraph",
    "ShapingConfig",
    "SimilarityScores",
    "TransformSpec",
    "VariantPage",
    "apply_transform",
    "compute_deltas",
    "ecdf",
    "import_har",
    "list_transforms",
    "load_page",
    "normalize_url",
    "parse_page",
    "register_transform",
    "score_graphs",
    "serve",
    "simulate_load",
    "speed_index",
    "store_page",
    "structural_similarity",
    "summarize",
]
