"""A norm wrapper that counts evaluations on quadrature nodes.

Quadrature rules hold their nodes in read-only arrays, so a ``values`` call
on a read-only array is an evaluation of F on a rule; every other attribute
is the wrapped norm's own.
"""

import numpy as np


class CountingNorm:
    def __init__(self, inner):
        self.inner = inner
        self.rule_calls = []   # node count of every evaluation on a rule

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def values(self, xi):
        if isinstance(xi, np.ndarray) and not xi.flags.writeable:
            self.rule_calls.append(len(xi))
        return self.inner.values(xi)
