"""Circular sensitivity summaries over an epsilon-contour.

For every contour direction the induced posterior Hellinger distance is
divided by the prior distance epsilon. Ratios near 0 mean the data wash
the perturbation out; a ratio of 1 means posteriors move exactly as much
as priors; ratios above 1 (super-sensitivity) are reported as computed,
never truncated.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .calibration import SATURATION_H, calibrated_ratio
from .contour import CardinalModuli, PolarGrid, scaling_factors
from .errors import DomainError, ReweightingError
from .families import ParamPoint, PriorSpec
from .reweight import _NO_FINITE_MASS, PosteriorInput, _posterior_distances

REFERENCE_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 11))


@dataclass(frozen=True)
class SensitivityEntry:
    """One contour direction: angle, prior point, posterior distance, ratio."""

    phi: float
    point: ParamPoint
    h_post: float
    ratio: float


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity of a posterior to prior perturbations of size epsilon.

    ``worst_index`` is the position in ``entries`` of the worst direction,
    the first one attaining the maximum ratio.
    """

    epsilon: float
    base: PriorSpec
    entries: tuple[SensitivityEntry, ...]
    worst_case: float
    worst_angle: float
    worst_index: int
    mean: float
    median: float
    min: float
    calibrated_worst: tuple[float, float]
    cardinal: CardinalModuli | None = None
    failed_angles: tuple[float, ...] = field(default=())

    @property
    def n_angles(self) -> int:
        return len(self.entries) + len(self.failed_angles)

    @property
    def super_sensitive(self) -> bool:
        return self.worst_case > 1.0


def assemble_result(
    base: PriorSpec,
    epsilon: float,
    raw: list[tuple[float, ParamPoint, float]],
    cardinal: CardinalModuli | None = None,
    failed_angles: tuple[float, ...] = (),
) -> SensitivityResult:
    """Build a :class:`SensitivityResult` from per-angle posterior distances.

    ``raw`` holds ``(phi, contour point, posterior Hellinger distance)``
    triples in increasing-angle order. Failed angles are excluded from all
    summaries and carried through for reporting. The worst angle is the
    first one attaining the maximum ratio.
    """
    if not raw:
        raise DomainError("cannot summarize an empty sensitivity grid")
    entries = tuple(
        SensitivityEntry(phi=phi, point=point, h_post=h, ratio=h / epsilon)
        for phi, point, h in raw
    )
    ratios = [e.ratio for e in entries]
    worst_index = max(range(len(ratios)), key=lambda i: (ratios[i], -i))
    worst = entries[worst_index]
    return SensitivityResult(
        epsilon=epsilon,
        base=base,
        entries=entries,
        worst_case=worst.ratio,
        worst_angle=worst.phi,
        worst_index=worst_index,
        mean=statistics.fmean(ratios),
        median=statistics.median(ratios),
        min=min(ratios),
        calibrated_worst=calibrated_ratio(worst.h_post, epsilon),
        cardinal=cardinal,
        failed_angles=tuple(failed_angles),
    )


def circular_sensitivity(inp: PosteriorInput, grid: PolarGrid) -> SensitivityResult:
    """Per-direction posterior/prior distance ratios over a contour grid.

    The grid must have been computed around the posterior's own base
    prior. Posterior distances come from prior-ratio reweighting, all
    directions in one batched sweep; grids obtained with ``allow_partial``
    keep their failed angles excluded from the summary statistics.
    """
    if grid.base != inp.base_prior:
        raise DomainError(
            f"contour grid base {grid.base} does not match posterior base {inp.base_prior}"
        )
    raw = []
    if grid.points:
        phis = [gp.phi for gp in grid.points]
        try:
            h = _posterior_distances(
                inp,
                [gp.point.gamma1 for gp in grid.points],
                [gp.point.gamma2 for gp in grid.points],
            )
        except ReweightingError as exc:
            # the base prior check does not depend on the direction
            raise ReweightingError(f"angle {phis[0]:.6f}: {exc}") from exc
        no_mass = np.flatnonzero(np.isnan(h))
        if no_mass.size:
            raise ReweightingError(f"angle {phis[no_mass[0]]:.6f}: {_NO_FINITE_MASS}")
        raw = [(gp.phi, gp.point, hp) for gp, hp in zip(grid.points, h.tolist())]
    return assemble_result(
        grid.base, grid.epsilon, raw, cardinal=grid.cardinal, failed_angles=grid.failed_angles
    )


def summarize(result: SensitivityResult) -> str:
    """Human-readable report with the calibrated interpretation."""
    base = result.base
    pct = result.worst_case * 100.0
    exact, approx = result.calibrated_worst
    lines = [
        (
            f"Circular sensitivity of the posterior at base "
            f"{base.family.value}({base.point.gamma1:g}, {base.point.gamma2:g}), "
            f"epsilon = {result.epsilon:g}, {result.n_angles} directions"
        ),
        (
            f"  worst case {result.worst_case:.4f} at angle {result.worst_angle:.4f} rad; "
            f"mean {result.mean:.4f}, median {result.median:.4f}, min {result.min:.4f}"
        ),
        (
            f"  benchmark reading: a prior mean shift on the unit-variance normal scale "
            f"induces a posterior shift of about {pct:.1f}% of its size "
            f"(exact calibrated ratio {exact * 100.0:.1f}%, distance ratio {approx * 100.0:.1f}%)"
        ),
    ]
    if result.failed_angles:
        lines.append(
            f"  warning: {len(result.failed_angles)} direction(s) had no contour solution "
            "and are excluded from the summaries"
        )
    if result.super_sensitive:
        lines.append(
            "  flag: super-sensitivity, the posterior moves farther than the prior "
            "(worst case exceeds 1)"
        )
    if abs(result.worst_case - 1.0) <= 1e-3:
        lines.append(
            "  flag: boundary regime, posterior perturbations track prior perturbations "
            "one for one (worst case within 0.001 of 1)"
        )
    if result.entries[result.worst_index].h_post >= SATURATION_H:
        lines.append("  flag: calibration saturated, worst-case distance is numerically 1")
    return "\n".join(lines)


def export_plot_data(result: SensitivityResult) -> tuple[list[dict], list[dict]]:
    """Plot-ready tables for the polar and rolled-out sensitivity views.

    The polar table maps each ratio onto the hyperparameter plane with the
    same axis scalings the contour used, one trace row per angle plus
    reference circles at ratios 0.1 through 1.0. The rolled-out table has
    one row per angle with the worst direction flagged and constant
    reference lines at 0.5 and 1.0.
    """
    if result.cardinal is None:
        raise DomainError("result carries no cardinal moduli; polar export is undefined")
    g1 = result.base.point.gamma1
    g2 = result.base.point.gamma2
    phis = [e.phi for e in result.entries]
    cxs, cys = scaling_factors(phis, result.cardinal)
    # cos, c_x, sin, c_y per angle, computed once for all eleven series
    axes = [
        (math.cos(phi), cx, math.sin(phi), cy)
        for phi, cx, cy in zip(phis, cxs.tolist(), cys.tolist())
    ]

    def trace(series: str, rhos) -> list[dict]:
        return [
            {
                "series": series,
                "phi": phi,
                "ratio": rho,
                "x": g1 + rho * c * cx,
                "y": g2 + rho * s * cy,
            }
            for phi, rho, (c, cx, s, cy) in zip(phis, rhos, axes)
        ]

    polar = trace("sensitivity", [e.ratio for e in result.entries])
    for level in REFERENCE_LEVELS:
        polar += trace(f"ref_{level:.1f}", [level] * len(phis))

    rolled = [
        {
            "phi": e.phi,
            "ratio": e.ratio,
            "is_worst": int(i == result.worst_index),
            "ref_half": 0.5,
            "ref_one": 1.0,
        }
        for i, e in enumerate(result.entries)
    ]
    return polar, rolled


def result_to_json_dict(result: SensitivityResult) -> dict:
    """JSON-ready dictionary with a fixed key layout."""
    return {
        "epsilon": result.epsilon,
        "n_angles": result.n_angles,
        "base": {
            "family": result.base.family.value,
            "gamma1": result.base.point.gamma1,
            "gamma2": result.base.point.gamma2,
        },
        "worst_case": result.worst_case,
        "worst_angle": result.worst_angle,
        "mean": result.mean,
        "median": result.median,
        "min": result.min,
        "super_sensitive": result.super_sensitive,
        "failed_angles": list(result.failed_angles),
        "entries": [
            {
                "phi": e.phi,
                "gamma1": e.point.gamma1,
                "gamma2": e.point.gamma2,
                "h_post": e.h_post,
                "ratio": e.ratio,
            }
            for e in result.entries
        ],
    }
