"""Structural and functional similarity of a variant page to its original.

Scoring is DOM-derived and deterministic: text token overlap, image URL
overlap, tag histogram cosine, and static preservation of interactive
elements with resolvable handler names. There is no rendering and no script
execution.

Scores compare two parsed graphs (pagemodel.ResourceGraph) and nothing
else: a caller holding pages parses them with pagemodel.parse_page first.
The names a variant's scripts define are its graph's defined_names.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .pagemodel import KIND_IMAGE, ResourceGraph

DEFAULT_WEIGHTS = (0.5, 0.3, 0.2)  # text, image, element; they sum to 1


@dataclass
class SimilarityScores:
    structural: float
    text_sim: float
    image_sim: float
    element_sim: float
    functional: float | None = None

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.text_sim, self.image_sim, self.element_sim)


def _image_urls(graph: ResourceGraph) -> set[str]:
    return {res.url for res in graph.resources if res.kind == KIND_IMAGE}


def multiset_jaccard(a: Counter, b: Counter) -> float:
    """Sum of per-token minima over per-token maxima; 1.0 when both empty."""
    union = sum((a | b).values())
    if union == 0:
        return 1.0
    return sum((a & b).values()) / union


def set_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def histogram_cosine(a: dict[str, int], b: dict[str, int]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    dot = sum(count * b.get(tag, 0) for tag, count in a.items())
    norm_a = math.sqrt(sum(count * count for count in a.values()))
    norm_b = math.sqrt(sum(count * count for count in b.values()))
    return min(1.0, dot / (norm_a * norm_b))  # clamp rounding dust


def structural_similarity(original: ResourceGraph, variant: ResourceGraph) -> SimilarityScores:
    """DEFAULT_WEIGHTS-weighted text/image/element completeness of the
    variant, each component in [0, 1]."""
    w_text, w_image, w_element = DEFAULT_WEIGHTS
    text_sim = multiset_jaccard(original.text_tokens, variant.text_tokens)
    image_sim = set_jaccard(_image_urls(original), _image_urls(variant))
    element_sim = histogram_cosine(original.tag_histogram, variant.tag_histogram)
    return SimilarityScores(
        structural=w_text * text_sim + w_image * image_sim + w_element * element_sim,
        text_sim=text_sim,
        image_sim=image_sim,
        element_sim=element_sim,
    )


def functional_similarity_graphs(original_graph: ResourceGraph, variant_graph: ResourceGraph) -> float:
    """Fraction of the original's interactive elements preserved by the
    variant: the identity key must still exist and every handler name must
    still be defined at top level in some retained script. 1.0 when the
    original has no interactive elements."""
    originals = original_graph.interactive_elements
    if not originals:
        return 1.0
    variant_keys = {el.identity_key for el in variant_graph.interactive_elements}
    defined = variant_graph.defined_names
    preserved = sum(el.identity_key in variant_keys and el.handler_fn_names <= defined for el in originals)
    return preserved / len(originals)


def score_graphs(original_graph: ResourceGraph, variant_graph: ResourceGraph) -> SimilarityScores:
    """Structural and functional scores of a variant from both parsed graphs."""
    scores = structural_similarity(original_graph, variant_graph)
    scores.functional = functional_similarity_graphs(original_graph, variant_graph)
    return scores

