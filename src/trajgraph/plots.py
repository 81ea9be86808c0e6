"""Minimal SVG line plots for trajectories; no plotting dependency."""

from __future__ import annotations

import numpy as np

from .checkpoint import atomic_open

SIZE = 480     # width and height of the image, in pixels
MARGIN = 20    # blank border around the plotted points, in pixels
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf"]


def _polyline(points: np.ndarray, color: str, width: float, opacity: float = 1.0,
              dashed: bool = False) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{opacity}"{dash}/>')


def trajectory_svg(truth: np.ndarray, samples: list[np.ndarray], t_history: int, path):
    """Render one scene: dashed history, solid truth, faint sampled futures.

    truth: (N, T, 2); each sample: (N, T_f, 2), same units as truth.
    """
    allpts = [truth.reshape(-1, 2)] + [s.reshape(-1, 2) for s in samples]
    flat = np.concatenate(allpts)
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)

    def to_px(xy):
        scaled = (xy - lo) / span
        return np.stack([MARGIN + scaled[:, 0] * (SIZE - 2 * MARGIN),
                         SIZE - MARGIN - scaled[:, 1] * (SIZE - 2 * MARGIN)],
                        axis=1)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
             f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
             f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>']
    n_agents = truth.shape[0]
    for i in range(n_agents):
        color = PALETTE[i % len(PALETTE)]
        for s in samples:
            seg = np.concatenate([truth[i, t_history - 1:t_history], s[i]])
            parts.append(_polyline(to_px(seg), color, 1.0, opacity=0.3))
        parts.append(_polyline(to_px(truth[i, :t_history]), color, 1.5,
                               dashed=True))
        parts.append(_polyline(to_px(truth[i, t_history - 1:]), color, 2.0))
    parts.append("</svg>")
    with atomic_open(path) as f:
        f.write("\n".join(parts) + "\n")
