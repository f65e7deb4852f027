"""A quiver window mesh by mesh: the reference for the shift-orbit form.

Every node of the enlarged window gets its own almost split sequence (Ext
space and extension middle), and the arrows into it are the factors of that
middle, decomposed.  This is how ``ar.quiver_window`` built a window before
it read one mesh per shape off the classification and shifted it along the
row; it is kept here only to check that form.
"""

from zdinfty.ar import QuiverWindow, almost_split
from zdinfty.decomp import (
    decompose,
    label_to_object,
    rank_one_label,
    rank_two_label,
    serre_twist_label,
    wing,
)


def _labels_in(m_max, a_min, a_max, n_max):
    out = []
    for a in range(a_min, a_max + 1):
        out.append(rank_one_label(0, a))
        out.append(rank_one_label(1, a))
        out += [rank_two_label(m, a) for m in range(1, m_max + 1)]
        out += [wing(n, a) for n in range(1, n_max + 1)]
    return out


def quiver_by_nodes(field, m_max, a_min, a_max, n_max) -> QuiverWindow:
    """The window with one ``almost_split`` call and one ``decompose`` call per
    enlarged-window node."""
    inside = set(_labels_in(m_max, a_min, a_max, n_max))
    enlarged = set(_labels_in(m_max + 1, a_min - 1, a_max + 1, n_max + 1))
    arrows = []
    dropped = 0
    for B in sorted(enlarged, key=lambda l: l.sort_key()):
        middle = almost_split(label_to_object(field, B)).middle
        for A in decompose(middle).factors:
            if A in inside and B in inside:
                arrows.append((A, B))
            elif A in inside or B in inside:
                dropped += 1
    translation = []
    for node in inside:
        tau = serre_twist_label(node)
        if tau in inside:
            translation.append((node, tau))
    nodes = tuple(sorted(inside, key=lambda l: l.sort_key()))
    arrows.sort(key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
    translation.sort(key=lambda ab: ab[0].sort_key())
    return QuiverWindow(nodes, tuple(arrows), tuple(translation), dropped)
