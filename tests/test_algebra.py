import math

import numpy as np
import pytest

from qgeom import algebra
from qgeom.algebra import (
    BAND_CAP,
    AlgebraRep,
    angular_variance_formula,
    build_representation,
    commutator_residual,
    highest_weight_state,
    radial_observable,
    state_count_continuum,
    state_count_discrete,
    transverse_variance_formula,
    transverse_variance_operator,
)
from qgeom.errors import QGeomError

SPINS = [0.5, 1.0, 1.5, 2.0, 5.0, 10.5, 37.0, 100.0]


def test_spin_half_matches_pauli(scale):
    # oracle: x_i = (lam/2) sigma_i with the Pauli matrices written out
    rep = build_representation(0.5, scale)
    half = scale.lam / 2
    np.testing.assert_allclose(rep.components[0], half * np.array([[0, 1], [1, 0]]),
                               atol=1e-50)
    np.testing.assert_allclose(rep.components[1], half * np.array([[0, -1j], [1j, 0]]),
                               atol=1e-50)
    np.testing.assert_allclose(rep.components[2], half * np.array([[1, 0], [0, -1]]),
                               atol=1e-50)


def test_spin_zero_trivial(scale):
    rep = build_representation(0, scale)
    assert rep.dim == 1
    for x in rep.components:
        np.testing.assert_array_equal(x, np.zeros((1, 1)))
    assert commutator_residual(rep) == 0.0


def test_spin_one_x3_spectrum(scale):
    rep = build_representation(1, scale)
    eig = np.sort(np.linalg.eigvalsh(rep.components[2]))
    np.testing.assert_allclose(eig, [-scale.lam, 0.0, scale.lam], atol=1e-12 * scale.lam)


@pytest.mark.parametrize("spin", SPINS)
def test_hermiticity(spin, scale):
    rep = build_representation(spin, scale)
    for x in rep.components:
        assert np.linalg.norm(x - x.conj().T) < 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("spin", SPINS)
def test_x3_spectrum_uniform(spin, scale):
    rep = build_representation(spin, scale)
    eig = np.sort(np.linalg.eigvalsh(rep.components[2]))
    expected = scale.lam * (np.arange(rep.dim) - spin)
    np.testing.assert_allclose(eig, expected, atol=1e-10 * scale.lam * max(spin, 1))


@pytest.mark.parametrize("spin", [1.0, 3.0, 16.5, 1e3, 1e4 + 0.5, 1e5, (BAND_CAP - 1) / 2])
def test_commutator_residual_grows_as_j_eps(spin, scale):
    # rounding of the squared ladder at the scale of j^2; C = 1 is the
    # largest ratio measured (at j = 1), about 0.4 at j = 10^3 ... 10^6
    eps = np.finfo(float).eps
    assert commutator_residual(build_representation(spin, scale)) <= 1.0 * spin * eps


def test_commutator_residual_detects_breakage(scale):
    rep = build_representation(1, scale)
    broken = AlgebraRep(spin=rep.spin, dim=rep.dim, lam=rep.lam, ladder=2.0 * rep.ladder)
    assert commutator_residual(broken) >= 0.5


@pytest.mark.parametrize("spin", SPINS)
def test_casimir(spin, scale):
    rep = build_representation(spin, scale)
    cas = (rep.components[0] @ rep.components[0] + rep.components[1] @ rep.components[1]
           + rep.components[2] @ rep.components[2])
    target = scale.lam ** 2 * spin * (spin + 1) * np.eye(rep.dim)
    assert np.linalg.norm(cas - target) < 1e-12 * scale.lam ** 2 * spin * (spin + 1)


def test_invalid_spins(scale):
    for bad in (-0.5, 0.3, 1.25, float("nan")):
        with pytest.raises(QGeomError, match="spin must be a non-negative multiple of 1/2"):
            build_representation(bad, scale)
    with pytest.raises(QGeomError, match="dense view of dim 5001 exceeds cap"):
        build_representation(2500, scale).components


def test_band_cap(scale):
    assert build_representation((BAND_CAP - 1) / 2, scale).dim == BAND_CAP
    with pytest.raises(QGeomError, match=f"dimension {BAND_CAP + 1} exceeds cap"):
        build_representation(BAND_CAP / 2, scale)


def test_radial_observable(scale):
    rep = build_representation(0.5, scale)
    assert radial_observable(rep) == pytest.approx(
        scale.lam * math.sqrt(3) / 2, rel=1e-12, abs=0.0)
    assert radial_observable(rep) == pytest.approx(3.948e-36, rel=5e-4, abs=0.0)
    assert radial_observable(build_representation(0, scale)) == 0.0


def test_radial_observable_large_spin(scale):
    j = 1.0e6
    assert radial_observable(build_representation(j, scale)) == pytest.approx(
        scale.lam * math.sqrt(j * (j + 1)), rel=1e-14, abs=0.0)


def test_highest_weight_along_z(scale):
    rep = build_representation(0.5, scale)
    state = highest_weight_state(rep, (0, 0, 1))
    amps = state * np.exp(-1j * np.angle(state[0]))
    np.testing.assert_allclose(amps, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0),
                                  (1 / math.sqrt(2), 0, 1 / math.sqrt(2))])
def test_highest_weight_eigenvalue(axis, scale):
    rep = build_representation(1, scale)
    state = highest_weight_state(rep, axis)
    proj = (axis[0] * rep.components[0] + axis[1] * rep.components[1]
            + axis[2] * rep.components[2])
    val = np.real(state.conj() @ (proj @ state))
    assert val == pytest.approx(scale.lam, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("spin", [0.5, 1.0, 10.0, 100.0])
def test_highest_weight_matches_dense_eigh(spin, scale):
    # oracle: top eigenvector of the dense (axis . x), equal up to a phase
    rep = build_representation(spin, scale)
    for axis in [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (0.6, 0, 0.8)]:
        proj = sum(a * x for a, x in zip(axis, rep.components))
        top = np.linalg.eigh(proj)[1][:, -1]
        state = highest_weight_state(rep, axis)
        assert 1 - abs(np.vdot(top, state)) < 1e-12


def test_transverse_variance_operator(scale):
    # brute-force oracle: <j,j|J1^2+J2^2|j,j> = j(j+1) - j^2 = j
    for spin in (0.5, 1.0, 2.5, 10.0):
        rep = build_representation(spin, scale)
        state = highest_weight_state(rep, (0, 0, 1))
        var = transverse_variance_operator(rep, state, (0, 0, 1))
        assert var == pytest.approx(scale.lam ** 2 * spin, rel=1e-10, abs=0.0)


def test_transverse_variance_axis_independent(scale):
    rep = build_representation(1, scale)
    values = []
    for axis in [(0, 0, 1), (1, 0, 0), (0, 1, 0),
                 (0.6, 0.0, 0.8), (1 / math.sqrt(3),) * 3]:
        state = highest_weight_state(rep, axis)
        values.append(transverse_variance_operator(rep, state, axis))
    assert max(values) - min(values) < 1e-10 * values[0]


def test_transverse_variance_shape_error(scale):
    rep = build_representation(1, scale)
    other = highest_weight_state(build_representation(0.5, scale))
    with pytest.raises(QGeomError, match="state dimension .* does not match rep dim 3"):
        transverse_variance_operator(rep, other)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", [(0.0, 1.0), (2.0, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                  (math.inf, 0.0, 0.0)])
def test_axis_not_a_unit_3_vector_refused(axis, scale):
    # a NaN norm compares false with any tolerance, so it is refused too
    rep = build_representation(1, scale)
    state = highest_weight_state(rep)
    for call in (lambda: highest_weight_state(rep, axis),
                 lambda: transverse_variance_operator(rep, state, axis)):
        with pytest.raises(QGeomError) as exc:
            call()
        assert str(exc.value) == f"axis must be a unit 3-vector, got {axis!r}"


@pytest.mark.parametrize("spin", [1.0, 5.0, 20.0, 100.0, 1.0e4, 1.0e6])
def test_operator_formula_convergence_large_spin(spin, scale):
    # criterion 4's bounds on lam^2 j / (lam * lam sqrt(j(j+1))), through the band operators
    rep = build_representation(spin, scale)
    for axis in [(0, 0, 1), (0.6, 0, 0.8)]:
        state = highest_weight_state(rep, axis)
        ratio = (transverse_variance_operator(rep, state, axis)
                 / (scale.lam * radial_observable(rep)))
        assert 1 - 1 / (2 * spin) <= ratio <= 1 + 1e-12


def test_angular_variance_formula(scale):
    assert angular_variance_formula(1.0, scale) == pytest.approx(4.559e-36, rel=5e-4, abs=0.0)
    assert angular_variance_formula(scale.lam, scale) == pytest.approx(1.0, rel=1e-12)
    assert angular_variance_formula(2.0, scale) == pytest.approx(
        angular_variance_formula(1.0, scale) / 2, rel=1e-14, abs=0.0)
    with pytest.raises(QGeomError, match="separation must be positive"):
        angular_variance_formula(0.0, scale)


def test_transverse_variance_formula(scale):
    assert transverse_variance_formula(1.0, scale) == pytest.approx(
        (2.135e-18) ** 2, rel=1e-3, abs=0.0)
    assert math.sqrt(transverse_variance_formula(40.0, scale)) == pytest.approx(
        math.sqrt(40) * 2.135e-18, rel=1e-3, abs=0.0)
    with pytest.raises(QGeomError, match="separation must be positive"):
        transverse_variance_formula(-1.0, scale)


def test_state_count_continuum(scale):
    assert state_count_continuum(scale.planck_length, scale) == pytest.approx(
        4 * math.pi, rel=1e-12)
    assert state_count_continuum(1.0, scale) == pytest.approx(4.810e70, rel=2e-3)
    assert state_count_continuum(2 * scale.planck_length, scale) == pytest.approx(
        16 * math.pi, rel=1e-12)
    with pytest.raises(QGeomError, match="radius must be positive"):
        state_count_continuum(0.0, scale)


def test_state_count_discrete():
    assert state_count_discrete(0) == 1
    # brute-force oracle: sum of (2j+1) over integer spins
    for j in (3, 7, 50):
        assert state_count_discrete(j) == sum(2 * jp + 1 for jp in range(j + 1))
    with pytest.raises(QGeomError, match="max_spin must be a non-negative integer"):
        state_count_discrete(-1)
    with pytest.raises(QGeomError, match="max_spin must be a non-negative integer"):
        state_count_discrete(2.5)


def test_counting_agreement(scale):
    # 4 pi (lam/planck_length)^2 = 1, so the continuum count at R = lam*j is j^2
    for j in (10, 100, 10000):
        ratio = state_count_discrete(j) / state_count_continuum(scale.lam * j, scale)
        assert abs(ratio - 1) <= 3 / j
