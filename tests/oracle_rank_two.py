"""Hom and Ext between rank-two objects, in closed form.

F[m, a] is the rank-two object whose diagonal (1, 1) enters at -a and
whose whole plane enters at m - a (``objects.rank_two``), so it is free on
x^(-a) (1, 1) and x^(m - a) (0, 1).  A block-diagonal constant map
diag(c0, c1) into F[m', a'] is a morphism exactly when (c0, c1) lies in the
target at degree -a and (0, c1) at degree m - a.  The scalar maps
(c0 = c1) do so when the target's diagonal is alive at -a and its plane at
m - a; every pair does when its plane is alive at -a, which implies both.
With δ = a' - a:

    dim Hom(F[m, a], F[m', a']) = [δ >= max(0, m' - m)] + [δ >= m'].

Ext follows by Serre duality, Ext(X, Y) = D Hom(Y, τX), with
τF[m, a] = F[m, a - 1].
Nothing here reads a count from ``zdinfty``.
"""


def hom_dim(m: int, a: int, mp: int, ap: int) -> int:
    """dim Hom(F[m, a], F[mp, ap])."""
    delta = ap - a
    return (delta >= max(0, mp - m)) + (delta >= mp)


def ext_dim(m: int, a: int, mp: int, ap: int) -> int:
    """dim Ext(F[m, a], F[mp, ap]) = dim Hom(F[mp, ap], F[m, a - 1])."""
    return hom_dim(mp, ap, m, a - 1)
