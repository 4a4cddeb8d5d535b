"""The closed-form Chern evaluators against their published values."""

import pytest

from fanoenum.chern_calculus import (
    antican_cube_by_index,
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    antican_sq_dot_exceptional,
    blowup_exceptional_cube,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
    xi_square_on_curve,
)
from fanoenum.errors import (
    ConstraintError,
    IncompleteSpecError,
    ParityError,
    UnsupportedIndexError,
)


def test_p1_bundle_cubes():
    assert antican_cube_p1_bundle_over_surface(2, 0, 8) == 52
    assert antican_cube_p1_bundle_over_surface(1, 0, 9) == 56
    assert antican_cube_p1_bundle_over_surface(4, 0, 9) == 62


def test_xi_square_is_the_degree():
    assert xi_square_on_curve(2) == 2
    assert xi_square_on_curve(0) == 0
    assert xi_square_on_curve(-3) == -3


def test_divisor_in_p2_bundle_cubes():
    over_quadric = antican_cube_divisor_in_p2_bundle(
        c1_sq=8, c2=2, Ky_sq=8, c1_dot_F=-10, c1_dot_Ky=8, F_dot_Ky=-10, F_sq=12
    )
    assert over_quadric == 14
    over_plane = antican_cube_divisor_in_p2_bundle(
        c1_sq=9, c2=2, Ky_sq=9, c1_dot_F=0, c1_dot_Ky=-9, F_dot_Ky=0, F_sq=0
    )
    assert over_plane == 14
    assert antican_cube_divisor_in_p2_bundle(0, 0, 0, 0, 0, 0, 0) == 0


def test_exceptional_cube_is_the_conormal_degree():
    assert blowup_exceptional_cube(2) == 2
    assert blowup_exceptional_cube(0) == 0
    assert blowup_exceptional_cube(-4) == -4


def test_antican_sq_dot_exceptional():
    assert antican_sq_dot_exceptional(36, 10) == 18
    assert antican_sq_dot_exceptional(2, 2) == 0
    assert antican_sq_dot_exceptional(2, 0) == 4


def test_negative_genus_rejected_at_construction():
    with pytest.raises(ConstraintError, match="genus must be >= 0, got -1"):
        antican_sq_dot_exceptional(3, -1)


@pytest.mark.parametrize("ky_dot_C", [0, -5])
def test_antican_sq_dot_exceptional_needs_a_positive_degree(ky_dot_C):
    # -K_Y is ample on the Fano target, so -K_Y . C >= 1 for every curve C
    with pytest.raises(ConstraintError, match=f"-K_Y . C must be >= 1.*got {ky_dot_C}"):
        antican_sq_dot_exceptional(ky_dot_C, 1)


def test_conic_bundle_ksq():
    # against a line on P^2 this specializes to 12 - deg Delta
    for deg_delta in range(0, 13):
        assert conic_bundle_ksq_dot_pullback(-3, deg_delta) == 12 - deg_delta
    assert conic_bundle_ksq_dot_pullback(-2, 4) == 4
    assert conic_bundle_ksq_dot_pullback(0, 0) == 0


def test_genus_from_blowup_known_cases():
    assert genus_from_blowup(16, 64, 4, 7) == 5
    assert genus_from_blowup(20, 54, 3, 6) == 2
    assert genus_from_blowup(40, 64, 4, 3) == 1


def test_genus_from_blowup_parity_errors():
    with pytest.raises(ParityError):
        genus_from_blowup(15, 64, 4, 7)
    with pytest.raises(ParityError):
        genus_from_blowup(16, 63, 4, 7)


def test_genus_from_blowup_rejects_negative():
    with pytest.raises(ConstraintError):
        genus_from_blowup(2, 64, 4, 1)


@pytest.mark.parametrize("r", [7, 0])
def test_genus_from_blowup_rejects_an_index_outside_two_to_four(r):
    with pytest.raises(
        UnsupportedIndexError, match=f"no smooth Fano threefold has index {r} >= 2"
    ):
        genus_from_blowup(64, 64, r, 1)


@pytest.mark.parametrize("degB", [0, -2])
def test_genus_from_blowup_needs_a_curve(degB):
    with pytest.raises(ConstraintError, match=f"degB >= 1, got {degB}"):
        genus_from_blowup(64, 64, 4, degB)


def test_index2_centres_all_have_genus_one():
    # blowing up a degree-L3 elliptic curve on a degree-L3 del Pezzo threefold
    for L3 in range(1, 6):
        assert genus_from_blowup(4 * L3, 8 * L3, 2, L3) == 1


def test_antican_cube_by_index():
    assert antican_cube_by_index(4) == 64
    assert antican_cube_by_index(3) == 54
    assert antican_cube_by_index(4, 1) == 64
    assert antican_cube_by_index(3, 2) == 54
    for r, L3 in ((4, 7), (3, 99), (4, True), (3, 2.0)):  # True in (1,) and 2.0 in (2,) hold
        with pytest.raises(ConstraintError, match=f"index-{r} target has L3 in .*, got {L3}"):
            antican_cube_by_index(r, L3)
    for L3 in range(1, 6):
        assert antican_cube_by_index(2, L3) == 8 * L3
    with pytest.raises(IncompleteSpecError):
        antican_cube_by_index(2)
    with pytest.raises(UnsupportedIndexError):
        antican_cube_by_index(5)


@pytest.mark.parametrize("L3", [0, -3, 6, True])
def test_antican_cube_by_index_needs_an_index2_degree(L3):
    with pytest.raises(ConstraintError, match=f"L3 in 1..5, got {L3}"):
        antican_cube_by_index(2, L3)
