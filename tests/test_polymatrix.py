import itertools
import random
from fractions import Fraction

import pytest

from coxsaito.poly import PolyRing
from coxsaito.polymatrix import PolyMatrix, hessian, jacobian


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


def rand_poly(ring, rng, deg=2):
    out = {}
    for _ in range(3):
        e = [0] * ring.n
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, ring.n - 1)] += 1
        out[tuple(e)] = Fraction(rng.randint(-4, 4))
    return ring.from_dict(out)


def rand_matrix(ring, rng, n):
    return PolyMatrix(ring, [[rand_poly(ring, rng) for _ in range(n)] for _ in range(n)])


def test_identity_det(ring):
    assert PolyMatrix.from_scalars(ring, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).det() == ring.one()


def test_diagonal_det(ring):
    gens = ring.gens()
    m = PolyMatrix(
        ring,
        [
            [gens[i] if i == j else ring.zero() for j in range(3)]
            for i in range(3)
        ],
    )
    assert m.det() == gens[0] * gens[1] * gens[2]


def test_two_by_two_adjugate(ring):
    x, y = ring.gen(0), ring.gen(1)
    m = PolyMatrix(ring, [[x, y], [ring.one(), x]])
    ad = m.adjugate()
    assert ad[0, 0] == x and ad[0, 1] == -y
    assert ad[1, 0] == -ring.one() and ad[1, 1] == x
    one = PolyMatrix.from_scalars(ring, [[1, 0], [0, 1]])
    assert one.adjugate() == one


@pytest.mark.parametrize("n", [3, 4])
def test_adjugate_cramer_random(ring, n):
    rng = random.Random(n)
    for _ in range(4):
        m = rand_matrix(ring, rng, n)
        ad = m.adjugate()
        prod = m * ad
        det = m.det()
        for i in range(n):
            for j in range(n):
                assert prod[i, j] == (det if i == j else ring.zero())


def test_det_multiplicative(ring):
    rng = random.Random(7)
    for _ in range(4):
        a = rand_matrix(ring, rng, 3)
        b = rand_matrix(ring, rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_det_matches_leibniz(ring):
    rng = random.Random(9)
    n = 5
    m = rand_matrix(ring, rng, n)
    leibniz = ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.const(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m[i, perm[i]]
        leibniz = leibniz + term
    assert leibniz
    assert m.det() == leibniz


def test_non_square_rejected(ring):
    m = PolyMatrix(ring, [[ring.one(), ring.zero()]])
    with pytest.raises(ValueError):
        m.det()
    with pytest.raises(ValueError):
        m.adjugate()


def test_hessian(ring):
    x, y = ring.gen(0), ring.gen(1)
    h = hessian(x * x + y * y)
    assert h[0, 0] == ring.const(2) and h[1, 1] == ring.const(2)
    assert h[0, 1] == ring.zero()
    h2 = hessian(x * y)
    assert h2[0, 1] == ring.one() and h2[1, 0] == ring.one()
    assert h2.is_symmetric()


def test_jacobian(ring):
    x, y, z = ring.gens()
    J = jacobian([x * x, x * y, z])
    assert J[0, 0] == 2 * x and J[1, 0] == y and J[1, 1] == x
    assert J[2, 2] == ring.one()
