"""Circular sensitivity results over an epsilon-contour, built by either engine
(``reweight.circular_sensitivity``, ``rw1.exact_sensitivity``) with :func:`assemble_result`.

For every contour direction the induced posterior Hellinger distance is
divided by the prior distance epsilon. Ratios near 0 mean the data wash
the perturbation out; a ratio of 1 means posteriors move exactly as much
as priors; ratios above 1 (super-sensitivity) are reported as computed,
never truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import SATURATION_H, calibrated_ratio
from .contour import POINT_DTYPE, CardinalModuli, PolarGrid, scaling_factors
from .errors import DomainError
from .params import PriorSpec

REFERENCE_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 11))

# One contour direction per row of a result: angle, prior point, posterior distance, ratio
ENTRY_DTYPE = np.dtype([("phi", "f8"), ("point", POINT_DTYPE), ("h_post", "f8"), ("ratio", "f8")])
# the plot tables of export_plot_data
POLAR_DTYPE = np.dtype(
    [("series", "U11"), ("phi", "f8"), ("ratio", "f8"), ("x", "f8"), ("y", "f8")]
)
ROLLED_DTYPE = np.dtype(
    [("phi", "f8"), ("ratio", "f8"), ("is_worst", "i8"), ("ref_half", "f8"), ("ref_one", "f8")]
)


@dataclass(frozen=True, eq=False)
class SensitivityResult:
    """Sensitivity of a posterior to prior perturbations of size epsilon.

    ``entries`` is a record array with one row per solved direction, in
    increasing-angle order: the angle ``phi``, the contour ``point`` (fields
    ``gamma1`` and ``gamma2``), the posterior distance ``h_post`` and
    ``ratio = h_post / epsilon``. Columns read as arrays
    (``entries.ratio``), rows as records (``entries[0].ratio``).
    ``worst_index`` is the row of the worst direction, the first one
    attaining the maximum ratio.
    """

    epsilon: float
    base: PriorSpec
    entries: np.recarray
    worst_case: float
    worst_angle: float
    worst_index: int
    mean: float
    median: float
    min: float
    calibrated_worst: tuple[float, float]
    cardinal: CardinalModuli
    failed_angles: tuple[float, ...] = ()

    @property
    def n_angles(self) -> int:
        return len(self.entries) + len(self.failed_angles)

    @property
    def super_sensitive(self) -> bool:
        return self.worst_case > 1.0


def assemble_result(grid: PolarGrid, h_post: np.ndarray) -> SensitivityResult:
    """Build a :class:`SensitivityResult` from the posterior distance ``h_post[i]``
    of each solved direction ``grid.points[i]``.

    The grid's failed angles are excluded from all summaries and carried
    through for reporting. The worst angle is the first one attaining the
    maximum ratio.
    """
    points, epsilon = grid.points.view(np.ndarray), grid.epsilon  # no recarray attribute lookups
    if not len(points):
        raise DomainError("cannot summarize an empty sensitivity grid")
    entries = np.empty(len(points), ENTRY_DTYPE)
    entries["phi"], entries["point"], entries["h_post"] = points["phi"], points["point"], h_post
    ratio = entries["ratio"] = entries["h_post"] / epsilon
    ratios = ratio.tolist()
    worst_index = int(np.argmax(ratio))
    ordered, middle = sorted(ratios), len(ratios) // 2  # np.median's floats, without numpy.ma
    return SensitivityResult(
        epsilon=epsilon,
        base=grid.base,
        entries=entries.view(np.recarray),
        worst_case=ratios[worst_index],
        worst_angle=float(entries["phi"][worst_index]),
        worst_index=worst_index,
        mean=math.fsum(ratios) / len(ratios),
        median=ordered[middle] if len(ratios) % 2 else (ordered[middle - 1] + ordered[middle]) / 2,
        min=min(ratios),
        calibrated_worst=calibrated_ratio(float(entries["h_post"][worst_index]), epsilon),
        cardinal=grid.cardinal,
        failed_angles=grid.failed_angles,
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


def export_plot_data(result: SensitivityResult) -> tuple[np.recarray, np.recarray]:
    """Plot-ready tables for the polar and rolled-out sensitivity views.

    Both tables are record arrays. The polar table (fields ``series``,
    ``phi``, ``ratio``, ``x``, ``y``) maps each ratio onto the hyperparameter
    plane with the same axis scalings the contour used: one ``sensitivity``
    trace row per angle, then the reference circles ``ref_0.1`` through
    ``ref_1.0``, each a block of one row per angle. The rolled-out table
    (fields ``phi``, ``ratio``, ``is_worst``, ``ref_half``, ``ref_one``) has
    one row per angle with the worst direction flagged and constant
    reference lines at 0.5 and 1.0.
    """
    entries, n = result.entries, len(result.entries)
    cxs, cys = scaling_factors(entries.phi, result.cardinal)
    # the libm cos and sin, which np.cos and np.sin need not match to the last bit
    phis = entries.phi.tolist()
    cos, sin = (np.fromiter(map(f, phis), float, n) for f in (math.cos, math.sin))
    # row by row, one-row temporaries: x = g1 + rho * cos * c_x in that order
    table = np.empty((1 + len(REFERENCE_LEVELS), n), POLAR_DTYPE)
    names = ["sensitivity", *(f"ref_{level:.1f}" for level in REFERENCE_LEVELS)]
    for row, name, rho in zip(table, names, [entries.ratio, *REFERENCE_LEVELS]):
        row["series"], row["phi"], row["ratio"] = name, entries.phi, rho
        row["x"] = result.base.point.gamma1 + rho * cos * cxs
        row["y"] = result.base.point.gamma2 + rho * sin * cys
    polar = table.reshape(-1).view(np.recarray)

    rolled = np.zeros(n, ROLLED_DTYPE).view(np.recarray)
    rolled.phi, rolled.ratio, rolled.ref_half, rolled.ref_one = entries.phi, entries.ratio, 0.5, 1.0
    rolled.is_worst[result.worst_index] = 1
    return polar, rolled


def report_header(run: PolarGrid | SensitivityResult) -> dict:
    """The first keys of a contour's or a result's JSON report: its radius,
    its number of directions and its base prior."""
    return {
        "epsilon": run.epsilon,
        "n_angles": run.n_angles,
        "base": {
            "family": run.base.family.value,
            "gamma1": run.base.point.gamma1,
            "gamma2": run.base.point.gamma2,
        },
    }


def result_to_json_dict(result: SensitivityResult) -> dict:
    """JSON-ready dictionary with a fixed key layout."""
    e = result.entries
    columns = (e.phi, e.point.gamma1, e.point.gamma2, e.h_post, e.ratio)
    return {
        **report_header(result),
        "worst_case": result.worst_case,
        "worst_angle": result.worst_angle,
        "mean": result.mean,
        "median": result.median,
        "min": result.min,
        "super_sensitive": result.super_sensitive,
        "failed_angles": list(result.failed_angles),
        "entries": [
            {"phi": phi, "gamma1": g1, "gamma2": g2, "h_post": h, "ratio": ratio}
            for phi, g1, g2, h, ratio in zip(*(c.tolist() for c in columns))
        ],
    }
