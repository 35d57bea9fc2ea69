"""Counting norm evaluations.

``CountingNorm`` wraps a norm and counts evaluations on quadrature nodes:
quadrature rules hold their nodes in read-only arrays, so a ``values`` call
on a read-only array is an evaluation of F on a rule; every other attribute
is the wrapped norm's own.

``count_values_calls`` counts the ``MinkowskiNorm.values`` calls of every
norm.
"""

import numpy as np

from blgeom.norms import MinkowskiNorm


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


def count_values_calls(monkeypatch) -> list:
    """Patch ``MinkowskiNorm.values`` to record the point count of every call."""
    calls = []
    values = MinkowskiNorm.values

    def counted(self, xi):
        calls.append(len(np.atleast_2d(xi)))
        return values(self, xi)

    monkeypatch.setattr(MinkowskiNorm, "values", counted)
    return calls
