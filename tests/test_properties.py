"""Hypothesis properties of the local images at good ramified primes and at the bad places."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from twistselmer.arith import local_square_classes, sieve_primes  # noqa: E402
from twistselmer.selmer import local_dim_good_ramified, local_image, make_pair  # noqa: E402

PRIMES = [p for p in sieve_primes(3000).primes if p > 400]


def _closed(masks) -> bool:
    group = set(masks)
    return all(x ^ y in group for x in group for y in group)


@settings(derandomize=True, deadline=None)
@given(
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    p=st.sampled_from(PRIMES),
    k=st.integers(1, 10**4),
    sign=st.sampled_from((1, -1)),
)
def test_good_ramified_image(a, b, p, k, sign):
    assume(b * (a * a - 4 * b) != 0 and (2 * b * (a * a - 4 * b)) % p != 0 and k % p != 0)
    pair = make_pair(a, b)
    d = sign * p * k
    dim, masks = local_image(pair.a, pair.b, d, p)
    dim_dual, masks_dual = local_image(pair.a_dual, pair.b_dual, d, p)
    assert _closed(masks) and _closed(masks_dual)
    assert dim + dim_dual == 2
    assert dim == local_dim_good_ramified(pair, p)


@settings(derandomize=True, deadline=None)
@given(a=st.integers(-50, 50), b=st.integers(-50, 50), data=st.data())
def test_bad_place_images(a, b, data):
    assume(b * (a * a - 4 * b) != 0)
    pair = make_pair(a, b)
    for place in pair.bad_primes:
        classes = [c.representative for c in local_square_classes(place)]
        rep = data.draw(st.sampled_from(classes), label=f"twist class at {place}")
        dim, masks = local_image(pair.a, pair.b, rep, place)
        dim_dual, masks_dual = local_image(pair.a_dual, pair.b_dual, rep, place)
        assert _closed(masks) and _closed(masks_dual)
        assert dim + dim_dual == (3 if place == 2 else 2)
