"""Feature rankings that the tests compare the solver's selection against."""

import numpy as np

from ufcm.metrics import FeatureRanking


def max_variance_ranking(data) -> FeatureRanking:
    """Rank features by sample variance, descending."""
    scores = data.values.var(axis=1, ddof=1)
    order = np.argsort(-scores, kind="stable")
    return FeatureRanking(scores=scores, order=order)
