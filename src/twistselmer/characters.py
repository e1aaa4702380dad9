"""Quadratic characters of a quadratic field K, given by their conductors.

A character chi of K cuts out K(sqrt(alpha))/K.  The characters of
bounded conductor norm are parametrized by triples (b, a, eps): a class
representative b, a squarefree ideal a with a*b^2 principal (the conductor,
the primes chi ramifies at) and a unit class eps.  The statistics read only
the primes of the conductor, so a character is its conductor ideal.
"""

from __future__ import annotations

from . import quadfield as qf


def enumerate_characters(field: qf.QuadraticField, X: int) -> list[qf.IdealK]:
    """C(K, X): the conductor of each character of a quadratic field K with
    Na < X/Nb^2, one entry per triple (b, a, eps).

    A conductor is repeated once per unit class, and the entries are ordered
    by (class index of b, norm of a, factorization of a, unit index).
    """
    if X < 2:
        raise ValueError("enumerate_characters: X must be >= 2")
    out = []
    n_units = len(qf.units_mod_squares(field))
    for b in field.class_representatives:
        nb2 = b.norm**2
        bound = X // nb2 + (1 if X % nb2 else 0)  # Na < X/Nb^2
        for a in qf.squarefree_ideals_up_to(field, bound, class_constraint=b):
            out += [a] * n_units
    return out
