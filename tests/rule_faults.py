"""Faulty Gauss rule constructors, for tests of how non-finite rules are refused."""

import math

import numpy as np


def nan_weight(rule):
    """A rule constructor whose first weight is NaN."""
    def build(*args):
        xs, ws = rule(*args)
        return xs, np.where(np.arange(len(ws)) == 0, math.nan, ws)
    return build
