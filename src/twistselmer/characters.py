"""Quadratic characters of Q and of quadratic fields.

A character chi_d cuts out the extension K(sqrt(d))/K and is identified
by the squarefree part of the ideal (d) plus, over a quadratic field, a
unit class and an ideal-class component.  Enumeration of all characters
of bounded conductor norm runs over Q by signed squarefree integers and
over quadratic K by triples (class representative b, squarefree ideal a
with a*b^2 principal, unit class).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import quadfield as qf
from .arith import factorize, kronecker, sieve_squarefree, squarefree_flags, squarefree_part


@dataclass(frozen=True, slots=True)
class QuadraticCharacter:
    """A quadratic character; over Q `d_conductor` is the signed squarefree d.

    Over a quadratic field the conductor is the squarefree ideal D_chi and
    `defining_element` is some d in O_K with chi = chi_d.
    """

    base_field: object  # "Q" or a QuadraticField
    d_conductor: object  # signed squarefree int over Q, IdealK over K
    unit_index: int = 0
    class_index: int = 0
    defining_element: tuple | None = None

    def is_rational(self) -> bool:
        return self.base_field == "Q"

    def __mul__(self, other: "QuadraticCharacter") -> "QuadraticCharacter":
        if self.base_field != other.base_field:
            raise ValueError("characters live over different fields")
        if self.is_rational():
            return char_from_element("Q", self.d_conductor * other.d_conductor)
        prod = qf.element_mul(self.base_field, self.defining_element, other.defining_element)
        return char_from_element(self.base_field, prod)

    def evaluate(self, prime) -> int:
        """Value at a prime: +-1 when unramified, 0 when ramified."""
        if self.is_rational():
            d = self.d_conductor
            p = int(prime)
            if p == 2:
                return kronecker(d, 2) if d % 4 == 1 else 0
            return kronecker(d, p)
        field = self.base_field
        P = prime
        if any(Q == P for Q, _ in self.d_conductor.factorization):
            return 0
        el = self.defining_element
        if P.splitting == qf.INERT:
            n = qf.element_norm(field, el)
            if n % P.p == 0:
                raise ValueError("defining element not reduced at an inert prime")
            return kronecker(n, P.p)
        r = qf._omega_roots_mod_p(field, P.p)
        root = r[P.conjugate_index] if P.splitting == qf.SPLIT else r[0]
        res = (el[0] + el[1] * root) % P.p
        if P.splitting == qf.RAMIFIED:
            return 0
        if res == 0:
            raise ValueError("defining element not reduced at a split prime")
        return kronecker(res, P.p)


def char_from_element(field, d) -> QuadraticCharacter:
    """The character cutting out K(sqrt(d)); invariant under d -> d*k^2."""
    if field == "Q":
        if d == 0:
            raise ValueError("char_from_element: d must be nonzero")
        return QuadraticCharacter("Q", squarefree_part(d))
    if d == (0, 0):
        raise ValueError("char_from_element: d must be nonzero")
    d = tuple(d)
    ideal = qf.ideal_of_element(field, d)
    conductor = qf.make_ideal([(P, 1) for P, e in ideal.factorization if e % 2])
    square_root = qf.make_ideal([(P, e // 2) for P, e in ideal.factorization])
    b_cls = field.class_of_ideal(square_root)
    # divide out the square part when principal: keeps the defining element
    # evaluable at every prime off the conductor (always possible for h = 1)
    if square_root.norm > 1:
        g = qf.generator_if_principal(field, square_root)
        if g is not None:
            reduced = qf.element_divexact(field, d, qf.element_mul(field, g, g))
            if reduced is not None:
                d = reduced
    return QuadraticCharacter(field, conductor, 0, b_cls, d)


def characters_equal(chi1: QuadraticCharacter, chi2: QuadraticCharacter) -> bool:
    """chi_{d1} = chi_{d2} iff d1*d2 is a square in the field."""
    if chi1.base_field != chi2.base_field:
        return False
    if chi1.is_rational():
        return chi1.d_conductor == chi2.d_conductor
    prod = qf.element_mul(chi1.base_field, chi1.defining_element, chi2.defining_element)
    return qf.element_is_square(chi1.base_field, prod)


def enumerate_characters(field, X: int) -> list[QuadraticCharacter]:
    """C(K, X): all quadratic characters of conductor norm < X.

    Over Q: one per signed squarefree |d| < X, ordered by (|d|, sign),
    positive first.  Over quadratic K: one per triple (b, a, eps), ordered
    by (class index of b, norm of a, factorization of a, unit index).
    """
    if X < 2:
        raise ValueError("enumerate_characters: X must be >= 2")
    if field == "Q":
        return [QuadraticCharacter("Q", d) for d in sieve_squarefree(X)]
    out = []
    units = qf.units_mod_squares(field)
    reps = field.class_data.representatives
    for b_idx, b in enumerate(reps):
        nb2 = b.norm**2
        bound = X // nb2 + (1 if X % nb2 else 0)  # Na < X/Nb^2
        if bound < 1:
            continue
        for a in qf.squarefree_ideals_up_to(field, bound, class_constraint=b):
            gen = qf.generator_if_principal(field, qf.ideal_mul(a, qf.ideal_mul(b, b)))
            assert gen is not None
            for u_idx, u in enumerate(units):
                el = qf.element_mul(field, u, gen)
                out.append(QuadraticCharacter(field, a, u_idx, b_idx, el))
    return out


def count_characters(field, X: int) -> int:
    """|C(K, X)| without materializing character objects."""
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
