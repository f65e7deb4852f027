"""Closed-form mesh rule of the two quiver components, written independently
of zdinfty so that the benchmark can check the program's answers.

Labels are plain tuples: ("F0", a), ("F1", a), ("F", m, a), ("T", n, a),
printed as F0[a], F1[a], F[m,a], T[n,a] like the package does.

    X          tau X        middle of the almost split sequence ending in X
    F0[a]      F1[a-1]      F[1,a]
    F1[a]      F0[a-1]      F[1,a]
    F[1,a]     F[1,a-1]     F0[a-1] + F1[a-1] + F[2,a]
    F[m,a]     F[m,a-1]     F[m-1,a-1] + F[m+1,a]          (m >= 2)
    T[1,a]     T[1,a-1]     T[2,a]
    T[n,a]     T[n,a-1]     T[n-1,a-1] + T[n+1,a]          (n >= 2)
"""

from __future__ import annotations


def fmt(label: tuple) -> str:
    if label[0] in ("F0", "F1"):
        return f"{label[0]}[{label[1]}]"
    return f"{label[0]}[{label[1]},{label[2]}]"


def tau(label: tuple) -> tuple:
    if label[0] == "F0":
        return ("F1", label[1] - 1)
    if label[0] == "F1":
        return ("F0", label[1] - 1)
    kind, size, a = label
    return (kind, size, a - 1)


def middle(label: tuple) -> list:
    """Summands of the middle term of the mesh ending in ``label``."""
    if label[0] in ("F0", "F1"):
        return [("F", 1, label[1])]
    kind, size, a = label
    if kind == "F" and size == 1:
        return [("F0", a - 1), ("F1", a - 1), ("F", 2, a)]
    if size == 1:
        return [(kind, 2, a)]
    return [(kind, size - 1, a - 1), (kind, size + 1, a)]


def window_labels(m_max: int, a_min: int, a_max: int, n_max: int) -> list:
    """Nodes of a quiver window, in the order the catalog lists them."""
    out = []
    for a in range(a_min, a_max + 1):
        out += [("F0", a), ("F1", a)]
        out += [("F", m, a) for m in range(1, m_max + 1)]
        out += [("T", n, a) for n in range(1, n_max + 1)]
    return out


def enlarged_window(m_max: int, a_min: int, a_max: int, n_max: int) -> list:
    """The nodes whose meshes a quiver window walks: one step wider each way."""
    return window_labels(m_max + 1, a_min - 1, a_max + 1, n_max + 1)


def quiver_arrows(m_max: int, a_min: int, a_max: int, n_max: int) -> list:
    """Sorted arrow list [source, target] of the window, from the mesh rule."""
    inside = set(window_labels(m_max, a_min, a_max, n_max))
    arrows = []
    for b in enlarged_window(m_max, a_min, a_max, n_max):
        if b in inside:
            arrows += [[fmt(a), fmt(b)] for a in middle(b) if a in inside]
    return sorted(arrows)
