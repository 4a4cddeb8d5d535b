"""An independent oracle for the rank-3 conic-bundle solver.

``oracle_rho3_CCC`` re-derives d^2 (g - 1) = 24 from its defining relations,
sharing no code with ``solve_rho3_CCC``, and the test demands set equality
of the (d, (-K)^3) pairs.  ``solve_rho3_CE`` has no oracle yet.  Rank 2 is
checked by ``test_form_oracle``, which searches intersection forms under
theorem bounds only and finds every record of the engine, field for field.
"""

from fanoenum.enumerator import solve_rho3_CCC


def oracle_rho3_CCC():
    """d^2 (g - 1) = 24 with 2g - 2 = (-K)^3 and -K = (2/d)(H1 + H2 + H3)."""
    out = set()
    for d in range(1, 25):
        if 24 % (d * d) != 0:
            continue
        if 2 % d != 0:
            continue
        g = 24 // (d * d) + 1
        kx3 = 2 * g - 2
        out.add((d, kx3))
    return out


def test_oracle_rho3_CCC():
    expected = oracle_rho3_CCC()
    assert expected == {(1, 48), (2, 12)}
    computed = set()
    for rec in solve_rho3_CCC():
        d = rec.form.entries[1, 2, 3]
        computed.add((d, rec.kx3))
    assert expected == computed
