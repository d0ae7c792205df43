"""Per-prefix reference implementations that the package's faster paths are
checked against."""

import numpy as np

import hideseek as hs
from hideseek.matrixgame import find_pure_saddle, game_value


def feedback_matrices_per_prefix(A, rs, t, c, feedback_mode):
    """The seeker-aware matrix solved with one reveal-stage subgame per prefix.

    Returns ({convention: F}, closed) for both conventions, which share the
    subgame values and differ by the remaining offset. closed marks the
    cells read straight from a matrix entry (visited cells, pure_min cells
    and subgames with a pure saddle), where the package must agree exactly.
    """
    classes, _ = hs.prefix_classes(rs, t)
    E = A.entries
    F = {conv: np.empty((len(classes), rs.n)) for conv in ("total", "remaining")}
    closed = np.zeros((len(classes), rs.n), dtype=bool)
    for hi, iset in enumerate(classes):
        j0 = iset.members[0]
        offsets = {"total": 0.0, "remaining": float(E[j0, iset.prefix.nodes[-1] - 1])}
        for i in iset.visited:
            for conv in F:
                F[conv][hi, i - 1] = E[j0, i - 1]
            closed[hi, i - 1] = True
        for i in sorted(iset.unvisited):
            sub = hs.subgame_matrix(A, rs, iset, i, c).entries
            if feedback_mode == "pure_min":
                val = float(sub.max(axis=1).min())
                closed[hi, i - 1] = True
            else:
                val = game_value(sub)
                closed[hi, i - 1] = find_pure_saddle(sub) is not None
            for conv, offset in offsets.items():
                F[conv][hi, i - 1] = val - offset
    return F, closed
