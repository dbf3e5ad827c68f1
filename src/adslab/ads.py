"""Architecture-driven shift score.

Pure function of an architecture and a calibrated parameter set:

    score = sum over hidden layers l = 1..L of
            (w^(l-1))^(alpha + 1/2) * (w^(l))^beta * |l^b * exp(-c*l)|

with w^(0) the input dimension. The output head never enters the sum.
Raw scores are comparable only under the same parameter set; downstream
statistics are rank-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calib import CalibrationParams
from .nncore import ArchitectureSpec


@dataclass
class AdsScore:
    value: float
    per_layer_terms: tuple[float, ...]
    params_id: str


def layer_term(w_in: int, w_out: int, l: int, params: CalibrationParams) -> float:
    depth_factor = abs(l ** params.b * math.exp(-params.c * l))
    return w_in ** (params.alpha + 0.5) * w_out ** params.beta * depth_factor


def compute_ads(spec: ArchitectureSpec, params: CalibrationParams) -> AdsScore:
    terms = tuple(
        layer_term(spec.widths[l - 1], spec.widths[l], l, params)
        for l in range(1, spec.depth + 1)
    )
    return AdsScore(value=sum(terms), per_layer_terms=terms, params_id=params.params_id)
