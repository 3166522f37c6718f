"""Hot-kernel backend selection.

The nearest-codeword search dominates the Monte-Carlo decoding chains, so it
is available as a compiled Cython extension with a numpy fallback.  The
compiled kernel is used when present unless CFKIT_PURE_PYTHON=1 is set.
Both backends implement the same deterministic tie-breaking, so results are
identical either way.  The batched search over a block of queries,
nearest_codeword_points, is numpy only and bitwise equal to one
single-query call per row.
"""

import os

from . import _pyquant

_FORCE_PYTHON = os.environ.get("CFKIT_PURE_PYTHON", "") == "1"

try:
    if _FORCE_PYTHON:
        raise ImportError
    from ._quant import nearest_codeword_point as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = _pyquant.nearest_codeword_point
    BACKEND = "python"

nearest_codeword_point = _impl
nearest_codeword_point_py = _pyquant.nearest_codeword_point
nearest_codeword_points = _pyquant.nearest_codeword_points


def backend_name() -> str:
    return BACKEND
