"""Quadrature grids: cached rules and the broadcast panel construction."""

import numpy as np
import pytest

from natgrad.quadrature import _reference_rule, composite_legendre, unit_interval_grid


def test_cached_grids_are_shared_and_read_only():
    first, again = unit_interval_grid(512, 1e-12), unit_interval_grid(512, 1e-12)
    assert all(a is b for a, b in zip(first, again))
    for arr in (*first, *_reference_rule(8)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_composite_rule_equals_panel_loop():
    x, w = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(-1.5, 4.0, 5)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(half * w)
    got = composite_legendre(-1.5, 4.0, n_panels=4, nodes_per_panel=6)
    np.testing.assert_array_equal(got[0], np.concatenate(nodes))
    np.testing.assert_array_equal(got[1], np.concatenate(weights))
