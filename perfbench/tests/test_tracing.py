import numpy as np

import blgeom.cli
import blgeom.invariants
import blgeom.manifold
from blgeom.norms import LinearImage, MinkowskiNorm, WeightedSum, LpNorm
from tracing import Tracer


def test_install_rebinds_imported_copies_and_uninstall_restores():
    originals = (blgeom.cli.bl_field, blgeom.manifold.bl_metric,
                 blgeom.invariants.auto_quadrature, MinkowskiNorm.values)
    tracer = Tracer()
    tracer.install()
    try:
        assert blgeom.cli.bl_field is blgeom.manifold.bl_field is not originals[0]
        assert blgeom.manifold.bl_metric is blgeom.metric.bl_metric is not originals[1]
        assert blgeom.invariants.auto_quadrature is not originals[2]
        assert MinkowskiNorm.values is not originals[3]
    finally:
        tracer.uninstall()
    assert (blgeom.cli.bl_field, blgeom.manifold.bl_metric,
            blgeom.invariants.auto_quadrature, MinkowskiNorm.values) == originals


def test_only_the_outermost_values_call_of_a_nested_norm_counts():
    norm = LinearImage(2.0 * np.eye(2), WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)))
    tracer = Tracer()
    tracer.install()
    try:
        norm.values(np.ones((7, 2)))
        norm.values(np.ones(2))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(passes=1)
    assert layers["norms.values_calls"] == (2, "count")
    assert layers["norms.values_points"] == (8, "count")
