"""The Serre Gram matrix entry by entry: the reference for the column selection.

Each entry forms the Yoneda composite of a basis map and a basis class,
reduces it to its canonical representative in Ext(F, VF) (``yoneda_compose``
rebuilds that space for every entry) and applies the trace ``eta``.  This is
how ``homext.serre_gram`` filled the matrix before it read each entry off
the Hom basis maps at the free positions of the Ext space; it is kept here
only to check that selection."""

from zdinfty.homext import eta, ext_space, hom_space, yoneda_compose
from zdinfty.objects import serre_twist


def gram_by_composition(Fobj, G, flipped=False) -> tuple:
    """Gram matrix of Hom(F, G) x Ext(G, VF), or Ext(F, G) x Hom(G, VF)."""
    VF = serre_twist(Fobj)
    if not flipped:
        lefts = hom_space(Fobj, G).basis
        rights = ext_space(G, VF).basis
    else:
        lefts = ext_space(Fobj, G).basis
        rights = hom_space(G, VF).basis
    return tuple(
        tuple(eta(Fobj, yoneda_compose(g, f)) for g in rights) for f in lefts
    )
