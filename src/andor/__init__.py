"""Sparse AND-OR interaction decomposition of masked model outputs.

Extracts AND (joint-presence) and OR (any-presence) interaction effects from
the 2**n masked outputs of a black-box scalar function, sparsifies them by
L1 minimization over the decomposition's degrees of freedom, and measures
interaction complexity and cross-population generalization.
"""

from .extraction import (InteractionSet, Sparsified, all_and, even_split, filter_salient,
                         salience_threshold, sparsify)
from .lattice import mobius_and, mobius_or, zeta_subsets
from .metrics import (average_order, jaccard, mean_distribution, order_profile,
                      per_order_jaccard)
from .models import (GroundTruthGame, MaskingScheme, TinyNet, ValueTable,
                     inject_overfit, realize_table, sample_sparse_game)

__version__ = "0.1.0"

__all__ = [
    "InteractionSet", "Sparsified", "all_and", "even_split", "filter_salient",
    "salience_threshold", "sparsify",
    "mobius_and", "mobius_or", "zeta_subsets",
    "average_order", "jaccard", "mean_distribution", "order_profile",
    "per_order_jaccard",
    "GroundTruthGame", "MaskingScheme", "TinyNet", "ValueTable",
    "inject_overfit", "realize_table", "sample_sparse_game",
    "__version__",
]
