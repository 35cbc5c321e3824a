"""SVG heatmap bytes, pinned on fixed density fields."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from floodloop.heatmap import emit_heatmap

# name -> (field, palette, sha256 of the SVG text); digests written by the
# per-cell `_color` emitter, before colours were memoised by value
FIELDS = {
    "poisson-counts": (
        np.random.default_rng(3).poisson(2.0, size=(64, 64)).astype(float),
        "density",
        "888432c8826c64833e61d32df7783038c262736cfd147c1b898990885da1e21d",
    ),
    "constant": (
        np.full((4, 5), 3.0),
        "density",
        "34741a2378720afb06ff98c7580cb158ad0aded545ca5138e8af8da988aa76af",
    ),
    "fractional-water": (
        np.linspace(-1.5, 2.5, 63).reshape(7, 9),
        "water",
        "12ebdd5647ac65e285b2cf0c76a58980d8d03cbbe81f58446e25ec3e447ddb14",
    ),
    "unknown-palette": (
        np.arange(12.0).reshape(3, 4) ** 2,
        "no-such-palette",
        "e76953524e21703a503772e5fcd62c6470cbe751b381f31447299367ba2272e3",
    ),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_heatmap_bytes_pinned(name):
    values, palette, digest = FIELDS[name]
    assert hashlib.sha256(emit_heatmap(values, palette).encode()).hexdigest() == digest
