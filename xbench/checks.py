"""Output checks applied to every placement the benchmark produces."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.legalize import check_legal
from repro.netlist import Netlist

#: Slack for comparing floating-point coordinates with the die edges.
EDGE_TOL = 1e-6


def check_placement(netlist: Netlist, x: Optional[np.ndarray],
                    y: Optional[np.ndarray],
                    metrics: Dict[str, Any]) -> List[str]:
    """Problems with one finished job's output (empty list = correct).

    Positions must be finite and every movable cell must sit inside the
    die; the placement must pass ``check_legal``; detailed placement
    must not have made HPWL worse than legalization left it.
    """
    if x is None or y is None:
        return ["no positions"]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (netlist.num_cells,) or y.shape != (netlist.num_cells,):
        return [f"positions have shape {x.shape}/{y.shape}, "
                f"expected ({netlist.num_cells},)"]
    problems: List[str] = []
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        problems.append("non-finite positions")
    region = netlist.region
    mov = netlist.movable_index
    half_w = netlist.cell_w[mov] / 2
    half_h = netlist.cell_h[mov] / 2
    outside = ((x[mov] - half_w < region.xl - EDGE_TOL)
               | (x[mov] + half_w > region.xh + EDGE_TOL)
               | (y[mov] - half_h < region.yl - EDGE_TOL)
               | (y[mov] + half_h > region.yh + EDGE_TOL))
    if np.any(outside):
        problems.append(f"{int(np.sum(outside))} cells outside the die")
    legality = check_legal(netlist, x, y)
    if not legality.legal:
        problems.append(f"illegal placement: {legality.summary()}")
    dp_hpwl, lg_hpwl = metrics.get("dp_hpwl"), metrics.get("lg_hpwl")
    if dp_hpwl is None or lg_hpwl is None:
        problems.append("report lacks dp_hpwl/lg_hpwl")
    elif dp_hpwl > lg_hpwl:
        problems.append(f"dp_hpwl {dp_hpwl!r} > lg_hpwl {lg_hpwl!r}")
    return problems


def check_repeat(leader_hpwl: float, hpwl: Optional[float]) -> List[str]:
    """A repeated or cache-served spec must return its leader's HPWL."""
    if hpwl != leader_hpwl:
        return [f"repeat HPWL {hpwl!r} != leader HPWL {leader_hpwl!r}"]
    return []
