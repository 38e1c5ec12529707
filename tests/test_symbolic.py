"""The paper's identities as exact polynomial identities (sympy).

The float checks elsewhere measure the identities at solved points; here
they are reduced to 0 over every balanced unit quadruple at once, and the
sixth-angle formula is checked against the roots of the Gram determinant.
"""

import math

import sympy

from tetrafermat import sixth_angle

from corpora import random_five_angles

g12, g13 = sympy.symbols("g12 g13", real=True)
#: |u4|^2 = |u1 + u2 + u3|^2 = 3 + 2 (g12 + g13 + g23) = 1
g23 = -1 - g12 - g13
#: Gram matrix of u1, u2, u3; a balanced quadruple has u4 = -(u1 + u2 + u3)
GRAM3 = sympy.Matrix([[1, g12, g13], [g12, 1, g23], [g13, g23, 1]])
#: the four unit legs in the basis u1, u2, u3
U = [
    sympy.Matrix([1, 0, 0]),
    sympy.Matrix([0, 1, 0]),
    sympy.Matrix([0, 0, 1]),
    sympy.Matrix([-1, -1, -1]),
]


def dot(a, b):
    return sympy.expand((a.T * GRAM3 * b)[0, 0])


def c(i, j):
    """cos a_i0j: the dot product of legs i and j (1-based)."""
    return dot(U[i - 1], U[j - 1])


def test_quadruple_is_unit():
    for u in U:
        assert sympy.expand(dot(u, u) - 1) == 0


def test_balanced_quadruple_identities():
    u1, u2, u3, _ = U
    identities = {
        "a102 = a304": c(1, 2) - c(3, 4),
        "a203 = a104": c(2, 3) - c(1, 4),
        "a103 = a204": c(1, 3) - c(2, 4),
        "cosine sum": c(1, 2) + c(1, 3) + c(1, 4) + 1,
        "(u1+u2).(u2+u3)": dot(u1 + u2, u2 + u3),
        "(u1+u2).(u1+u3)": dot(u1 + u2, u1 + u3),
        "(u2+u3).(u1+u3)": dot(u2 + u3, u1 + u3),
    }
    for name, expr in identities.items():
        assert sympy.expand(expr) == 0, name


C12, C13, C14, C23, C24, C34 = sympy.symbols("c12 c13 c14 c23 c24 c34", real=True)
#: four rays in R^3 have a singular 4x4 Gram matrix
GRAM4_DET = sympy.Matrix([
    [1, C12, C13, C14],
    [C12, 1, C23, C24],
    [C13, C23, 1, C34],
    [C14, C24, C34, 1],
]).det()


def test_gram_determinant_is_quadratic_in_sixth_cosine():
    assert sympy.Poly(GRAM4_DET, C34).degree() == 2


def test_sixth_angle_branches_are_the_gram_roots():
    # the five cosines as exact rationals; the roots of the quadratic they
    # leave in c34, to 30 digits, against sixth_angle's two float branches
    for index in range(50):
        fa, _, _ = random_five_angles(0, index)
        values = {
            sym: sympy.Rational(math.cos(a))
            for sym, a in zip(
                (C12, C13, C14, C23, C24),
                (fa.a102, fa.a103, fa.a104, fa.a203, fa.a204),
            )
        }
        a, b, c0 = sympy.Poly(GRAM4_DET.subs(values), C34).all_coeffs()
        root = sympy.sqrt(b * b - 4 * a * c0)
        roots = sorted(float(((-b + s * root) / (2 * a)).evalf(30)) for s in (1, -1))
        result = sixth_angle(fa)
        branches = sorted((result.cos_plus, result.cos_minus))
        gap = max(abs(r - x) for r, x in zip(roots, branches))
        assert gap <= 1e-12, index
