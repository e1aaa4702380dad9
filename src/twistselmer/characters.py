"""Quadratic characters of a quadratic field K, given by their conductors.

A character chi of K cuts out K(sqrt(alpha))/K.  The characters of
bounded conductor norm are parametrized by triples (b, a, eps): a class
representative b, a squarefree ideal a with a*b^2 principal (the conductor,
the primes chi ramifies at) and a unit class eps.  The statistics read only
the primes of the conductor, so a character is the indices of those primes
in primes_up_to(K, X), ascending.
"""

from __future__ import annotations

from . import quadfield as qf


def enumerate_characters(field: qf.QuadraticField, X: int) -> list[tuple[int, ...]]:
    """C(K, X): the conductor of each character of a quadratic field K with
    Na < X/Nb^2, one entry per triple (b, a, eps), as the key of a in
    squarefree_ideals_up_to(K, X).

    A conductor is repeated once per unit class, and the entries are ordered
    by (class index of b, norm of a, factorization of a, unit index).
    """
    if X < 2:
        raise ValueError("enumerate_characters: X must be >= 2")
    walk = qf.squarefree_ideals_up_to(field, X)
    n_units = field.num_unit_classes
    out = []
    for i, b in enumerate(field.class_representatives):
        bound = -(-X // b.norm**2)  # Na < X/Nb^2
        target = field.class_inverse(field.class_compose(i, i))  # a*b^2 principal
        for norm, key, cls in walk:
            if norm >= bound:
                break
            if cls == target:
                out += [key] * n_units
    return out
