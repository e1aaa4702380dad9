"""Quadratic characters of Q and of quadratic fields.

A character chi_d cuts out the extension K(sqrt(d))/K.  Over Q it is
identified by the signed squarefree d.  Over a quadratic field K it is
identified by its conductor, the squarefree ideal a of the primes it
ramifies at, together with a unit class and the ideal class of b, where
a*b^2 is principal.  Enumeration of all characters of bounded conductor
norm runs over Q by signed squarefree integers and over quadratic K by
triples (class representative b, squarefree ideal a with a*b^2
principal, unit class).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import quadfield as qf
from .arith import factorize, kronecker, squarefree_flags, squarefree_part


@dataclass(frozen=True, slots=True)
class QuadraticCharacter:
    """A quadratic character; over Q `d_conductor` is the signed squarefree d.

    Over a quadratic field the character is the triple (b, a, eps) of its
    enumeration: `d_conductor` is the squarefree conductor ideal a,
    `unit_index` indexes eps in `units_mod_squares` and `class_index`
    indexes b in the class representatives.
    """

    base_field: object  # "Q" or a QuadraticField
    d_conductor: object  # signed squarefree int over Q, IdealK over K
    unit_index: int = 0
    class_index: int = 0

    def is_rational(self) -> bool:
        return self.base_field == "Q"

    def evaluate(self, prime) -> int:
        """Value of a character of Q at a rational prime: +-1 when unramified,
        0 when ramified."""
        if not self.is_rational():
            raise ValueError("evaluate is defined for characters of Q")
        d = self.d_conductor
        p = int(prime)
        if p == 2:
            return kronecker(d, 2) if d % 4 == 1 else 0
        return kronecker(d, p)


def char_from_element(field, d: int) -> QuadraticCharacter:
    """The character of Q cutting out Q(sqrt(d)); invariant under d -> d*k^2."""
    if field != "Q":
        raise ValueError("char_from_element is defined over Q")
    if d == 0:
        raise ValueError("char_from_element: d must be nonzero")
    return QuadraticCharacter("Q", squarefree_part(d))


def enumerate_characters(field, X: int) -> list[QuadraticCharacter]:
    """C(K, X): all quadratic characters of conductor norm < X.

    Over Q: one per signed squarefree |d| < X, ordered by (|d|, sign),
    positive first.  Over quadratic K: one per triple (b, a, eps), ordered
    by (class index of b, norm of a, factorization of a, unit index).
    """
    if X < 2:
        raise ValueError("enumerate_characters: X must be >= 2")
    if field == "Q":
        squarefree = compress(range(1, X), squarefree_flags(1, X))
        return [QuadraticCharacter("Q", sd) for d in squarefree for sd in (d, -d)]
    out = []
    n_units = len(qf.units_mod_squares(field))
    for b_idx, b in enumerate(field.class_data.representatives):
        nb2 = b.norm**2
        bound = X // nb2 + (1 if X % nb2 else 0)  # Na < X/Nb^2
        for a in qf.squarefree_ideals_up_to(field, bound, class_constraint=b):
            out += (QuadraticCharacter(field, a, u_idx, b_idx) for u_idx in range(n_units))
    return out


def count_characters(field, X: int) -> int:
    """|C(K, X)|: over Q without materializing character objects, over a
    quadratic field by enumerating them."""
    if field == "Q":
        if X < 2:
            raise ValueError("count_characters: X must be >= 2")
        return 2 * squarefree_flags(1, X).count(1)
    return len(enumerate_characters(field, X))


def ramified_primes(chi: QuadraticCharacter):
    """Odd ramified primes of chi over Q (places over 2 are never consumed);
    over a quadratic field, the primes dividing the conductor ideal."""
    if chi.is_rational():
        return [p for p, _ in factorize(chi.d_conductor) if p != 2]
    return [P for P, _ in chi.d_conductor.factorization]


def eval_additive(f, chi: QuadraticCharacter) -> float:
    """Value of the additive function f at chi: the sum of f over the
    primes dividing the conductor ideal."""
    if chi.is_rational():
        return float(sum(f.value_at_prime(p) for p, _ in factorize(chi.d_conductor)))
    return float(sum(f.value_at_prime(P) for P, _ in chi.d_conductor.factorization))
