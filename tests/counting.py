"""Counting norm evaluations.

``CountingNorm`` wraps a norm and counts evaluations on quadrature nodes:
quadrature rules hold their nodes in read-only arrays, so a ``values`` or
``_values`` call on a read-only array is an evaluation of F on a rule; every
other attribute is the wrapped norm's own.

``count_values_calls`` counts the ``MinkowskiNorm.values`` calls of every
norm; ``count_hulls`` records the Qhull options of every ``ConvexHull`` built;
``count_solves`` records the norm of every Binet-Legendre record made, and
``count_rules`` the key of every quadrature rule built, whichever path made it.
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

    def _values(self, pts):
        if not pts.flags.writeable:
            self.rule_calls.append(len(pts))
        return self.inner._values(pts)


def count_values_calls(monkeypatch) -> list:
    """Patch ``MinkowskiNorm.values`` to record the point count of every call."""
    calls = []
    values = MinkowskiNorm.values

    def counted(self, xi):
        calls.append(len(np.atleast_2d(xi)))
        return values(self, xi)

    monkeypatch.setattr(MinkowskiNorm, "values", counted)
    return calls


def count_hulls(monkeypatch) -> list:
    """Patch ``scipy.spatial.ConvexHull`` to record the ``qhull_options`` of every hull."""
    import scipy.spatial

    calls = []
    hull = scipy.spatial.ConvexHull

    def counted(points, qhull_options=None):
        calls.append(qhull_options)
        return hull(points, qhull_options=qhull_options)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
    return calls


def count_solves(monkeypatch) -> list:
    """Patch the moment pass ``_bl_record`` (the copy in ``metric``, which
    ``bl_metric`` calls, and the one in ``manifold``, which a group of bases
    calls) to record the norm of every record made."""
    from blgeom import manifold, metric

    calls = []
    record = metric._bl_record

    def counted(norm, level, quad, f):
        calls.append(norm)
        return record(norm, level, quad, f)

    for module in (metric, manifold):
        monkeypatch.setattr(module, "_bl_record", counted)
    return calls


def count_rules(monkeypatch) -> list:
    """Patch the rule builder ``_rule`` (the copy in ``quadrature``, which
    ``auto_quadrature`` calls, and the one in ``manifold``) to record
    (key, node count) of every rule built."""
    from blgeom import manifold, quadrature

    calls = []
    rule = quadrature._rule

    def counted(*key):
        quad = rule(*key)
        calls.append((key, len(quad)))
        return quad

    for module in (quadrature, manifold):
        monkeypatch.setattr(module, "_rule", counted)
    return calls
