import json
import math

import numpy as np
import pytest

from enclosure_kit.errors import EmptySlabError, InvalidParameterError
from enclosure_kit.geometry import AxisEllipse, DirectionFrame, Disk
from enclosure_kit.materials import (
    Inclusion,
    Jump,
    MaterialScene,
    SymMat2,
    bounds_mM,
    check_jump,
    classify_regime,
    default_slab_delta,
    eig_sym2,
    frequency_bound,
    opnorm_sym2,
    pq_weights,
    reduce_scene,
    scene_support,
    similarity_check,
)

E1 = DirectionFrame((1.0, 0.0))


def scene_with(alpha, beta, sigma0=1.0, eps0=1.0, omega=1.0, shape=None):
    shape = shape or Disk((0.3, 0.0), 0.2)
    return MaterialScene(
        sigma0=sigma0,
        eps0=eps0,
        omega=omega,
        inclusions=(Inclusion(shape=shape, alpha=alpha, beta=beta),),
    )


def random_valid_scene(rng, force_positive_background=False):
    """Random scene with sigma >= 0 and eps > 0 on the inclusion."""
    sigma0 = float(rng.uniform(0.5, 3.0)) if force_positive_background else float(
        rng.choice([0.0, rng.uniform(0.2, 3.0)])
    )
    eps0 = float(rng.uniform(0.2, 3.0))
    omega = float(rng.uniform(0.05, 3.0))
    if sigma0 == 0.0 and omega == 0.0:
        omega = 1.0

    def random_sym(lo_min):
        ang = rng.uniform(0.0, math.pi)
        c, s = math.cos(ang), math.sin(ang)
        d1, d2 = rng.uniform(lo_min, 3.0, size=2)
        r = np.array([[c, -s], [s, c]])
        a = r @ np.diag([d1, d2]) @ r.T
        return SymMat2(float(a[0, 0]), 0.5 * float(a[0, 1] + a[1, 0]), float(a[1, 1]))

    alpha = random_sym(-0.9 * sigma0 if sigma0 > 0 else 0.0)
    beta = random_sym(-0.9 * eps0)
    return scene_with(alpha, beta, sigma0=sigma0, eps0=eps0, omega=omega)


class TestSymMat2:
    def test_eig_identity(self):
        assert eig_sym2(SymMat2.identity()) == (1.0, 1.0)

    def test_eig_diagonal(self):
        assert eig_sym2(SymMat2(2.0, 0.0, 3.0)) == (2.0, 3.0)

    def test_eig_offdiagonal(self):
        lo, hi = eig_sym2(SymMat2(2.0, 1.0, 2.0))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(3.0)

    def test_eig_brute_force_scan(self):
        rng = np.random.default_rng(2)
        ang = math.pi * (np.arange(10_000) + rng.uniform()) / 10_000
        xi = np.column_stack([np.cos(ang), np.sin(ang)])
        for _ in range(20):
            m = SymMat2(*rng.uniform(-2.0, 2.0, size=3))
            quad = np.einsum("na,ab,nb->n", xi, m.as_array(), xi)
            lo, hi = eig_sym2(m)
            assert lo == pytest.approx(float(np.min(quad)), abs=1e-6)
            assert hi == pytest.approx(float(np.max(quad)), abs=1e-6)

    def test_opnorm(self):
        assert opnorm_sym2(SymMat2(0.2, 0.1, 0.2)) == pytest.approx(0.3)


class TestReduce:
    def test_zero_perturbation(self):
        red = reduce_scene(scene_with(SymMat2.zero(), SymMat2.zero()))
        assert red.inclusions[0].a == SymMat2.zero()
        assert red.inclusions[0].b == SymMat2.zero()

    def test_unit_example(self):
        red = reduce_scene(scene_with(SymMat2.identity(), SymMat2.zero()))
        assert red.inclusions[0].a == SymMat2.iso(0.5)
        assert red.inclusions[0].b == SymMat2.iso(-0.5)

    def test_factorization_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scene = random_valid_scene(rng)
            red = reduce_scene(scene)
            w = scene.omega
            c0 = complex(scene.sigma0, -w * scene.eps0)
            for k, rinc in enumerate(red.inclusions):
                lhs = c0 * (
                    np.eye(2) + rinc.a.as_array() - 1j * w * rinc.b.as_array()
                )
                rhs = scene.sigma_on(k).as_array() - 1j * w * scene.eps_on(k).as_array()
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_matches_tilde_definitions(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            scene = random_valid_scene(rng)
            red = reduce_scene(scene)
            denom = scene.sigma0**2 + scene.omega**2 * scene.eps0**2
            for k, rinc in enumerate(red.inclusions):
                sig = scene.sigma_on(k).as_array()
                eps = scene.eps_on(k).as_array()
                sig_tilde = (scene.sigma0 * sig + scene.omega**2 * scene.eps0 * eps) / denom
                eps_tilde = (scene.sigma0 * eps - scene.eps0 * sig) / denom
                assert np.max(np.abs(sig_tilde - np.eye(2) - rinc.a.as_array())) < 1e-12
                assert np.max(np.abs(eps_tilde - rinc.b.as_array())) < 1e-12

    def test_overflowing_omega_rejected(self):
        # omega^2 overflows: a typed error naming the inclusion, not OverflowError
        with pytest.raises(InvalidParameterError, match="inclusion 0"):
            reduce_scene(scene_with(SymMat2.identity(), SymMat2.zero(), omega=1e200))

    def test_underflowing_background_rejected(self):
        # sigma0^2 + omega^2*eps0^2 underflows to 0, whose reciprocal is undefined
        scene = scene_with(SymMat2.identity(), SymMat2.zero(), sigma0=1e-170, omega=1e-170)
        with pytest.raises(InvalidParameterError, match="too small"):
            reduce_scene(scene)


class TestSceneValidation:
    def test_rejects_bad_eps0(self):
        with pytest.raises(InvalidParameterError):
            MaterialScene(sigma0=1.0, eps0=0.0, omega=1.0)

    def test_rejects_negative_sigma0(self):
        with pytest.raises(InvalidParameterError):
            MaterialScene(sigma0=-0.1, eps0=1.0, omega=1.0)

    def test_rejects_doubly_degenerate(self):
        with pytest.raises(InvalidParameterError):
            MaterialScene(sigma0=0.0, eps0=1.0, omega=0.0)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(InvalidParameterError):
            scene_with(SymMat2.iso(-1.5), SymMat2.zero())

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            scene_with(SymMat2.zero(), SymMat2.iso(-1.0))

    def test_rejects_overlapping_inclusions(self):
        with pytest.raises(InvalidParameterError):
            MaterialScene(
                sigma0=1.0,
                eps0=1.0,
                omega=1.0,
                inclusions=(
                    Inclusion(Disk((0.0, 0.0), 0.2), SymMat2.zero(), SymMat2.zero()),
                    Inclusion(Disk((0.1, 0.0), 0.2), SymMat2.zero(), SymMat2.zero()),
                ),
            )

    def test_accepts_separated_inclusions(self):
        MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=1.0,
            inclusions=(
                Inclusion(Disk((-0.4, 0.0), 0.15), SymMat2.zero(), SymMat2.zero()),
                Inclusion(Disk((0.4, 0.0), 0.15), SymMat2.zero(), SymMat2.zero()),
            ),
        )


    @pytest.mark.parametrize(
        "build",
        [
            lambda: MaterialScene(sigma0=math.nan, eps0=1.0, omega=1.0),
            lambda: MaterialScene(sigma0=math.inf, eps0=1.0, omega=1.0),
            lambda: MaterialScene(sigma0=1.0, eps0=math.inf, omega=1.0),
            lambda: MaterialScene(sigma0=1.0, eps0=1.0, omega=math.nan),
            lambda: scene_with(SymMat2(math.nan, 0.0, 1.0), SymMat2.zero()),
            lambda: scene_with(SymMat2.zero(), SymMat2(math.inf, 0.0, 0.0)),
            lambda: AxisEllipse((0.0, math.inf), 0.2, 0.1),
            lambda: Disk((math.nan, 0.0), 0.2),
            lambda: DirectionFrame((math.nan, 0.0)),
        ],
        ids=[
            "sigma0-nan",
            "sigma0-inf",
            "eps0-inf",
            "omega-nan",
            "alpha-nan",
            "beta-inf",
            "ellipse-center-inf",
            "disk-center-nan",
            "direction-nan",
        ],
    )
    def test_rejects_non_finite_input(self, build):
        with pytest.raises(InvalidParameterError):
            build()


class TestCheckJump:
    def test_positive(self):
        scene = scene_with(SymMat2.iso(0.5), SymMat2.zero(), omega=0.0)
        jump, c = check_jump(scene, E1, 0.04)
        assert jump is Jump.POSITIVE
        assert c == pytest.approx(0.5)

    def test_negative(self):
        scene = scene_with(SymMat2.iso(-0.5), SymMat2.zero(), omega=0.0)
        jump, c = check_jump(scene, E1, 0.04)
        assert jump is Jump.NEGATIVE
        assert c == pytest.approx(0.5)

    def test_indefinite(self):
        scene = scene_with(SymMat2(0.5, 0.0, -0.5), SymMat2.zero(), omega=0.0)
        jump, c = check_jump(scene, E1, 0.04)
        assert jump is Jump.NONE
        assert c is None

    def test_empty_scene(self):
        scene = MaterialScene(sigma0=1.0, eps0=1.0, omega=1.0)
        with pytest.raises(EmptySlabError):
            check_jump(scene, E1, 0.04)

    def test_slab_selects_leading_inclusion(self):
        # the slab from +x only reaches the right-hand inclusion
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=0.0,
            inclusions=(
                Inclusion(Disk((0.4, 0.0), 0.15), SymMat2.iso(0.5), SymMat2.zero()),
                Inclusion(Disk((-0.4, 0.0), 0.15), SymMat2.iso(-0.5), SymMat2.zero()),
            ),
        )
        jump, c = check_jump(scene, E1, 0.05)
        assert jump is Jump.POSITIVE
        assert c == pytest.approx(0.5)
        # a slab thick enough to reach both sees indefinite material
        jump_wide, _ = check_jump(scene, E1, 0.9)
        assert jump_wide is Jump.NONE

    def test_tiny_delta_keeps_leading_inclusion(self):
        # below half an ulp of h, h - delta rounds to h; the slab keeps the
        # inclusion that attains h
        scene = scene_with(SymMat2.identity(), SymMat2.zero())
        h = scene_support(scene, E1.theta)
        assert h - 1e-20 == h
        assert check_jump(scene, E1, 1e-20) == (Jump.POSITIVE, pytest.approx(0.5))

    def test_equivalence_with_quadratic_form_scan(self):
        rng = np.random.default_rng(17)
        ang = 2.0 * math.pi * rng.random(10_000)
        xi = np.column_stack([np.cos(ang), np.sin(ang)])
        for _ in range(20):
            scene = random_valid_scene(rng)
            delta = default_slab_delta(scene, E1)
            jump, c = check_jump(scene, E1, delta)
            denom = scene.sigma0**2 + scene.omega**2 * scene.eps0**2
            inc = scene.inclusions[0]
            lhs = (
                scene.sigma0 * inc.alpha.as_array()
                + scene.omega**2 * scene.eps0 * inc.beta.as_array()
            )
            quad = np.einsum("na,ab,nb->n", xi, lhs, xi) / denom
            qmin, qmax = float(np.min(quad)), float(np.max(quad))
            if abs(qmin) < 1e-3 or abs(qmax) < 1e-3:
                continue
            if qmin > 0:
                assert jump is Jump.POSITIVE
                assert c == pytest.approx(qmin, abs=1e-4)
            elif qmax < 0:
                assert jump is Jump.NEGATIVE
                assert c == pytest.approx(-qmax, abs=1e-4)
            else:
                assert jump is Jump.NONE


class TestBounds:
    def test_zero_perturbation(self):
        m, big_m = bounds_mM(scene_with(SymMat2.zero(), SymMat2.zero()))
        assert (m, big_m) == (1.0, 0.0)

    def test_isotropic(self):
        # omega = 0, sigma0 = eps0 = 1: a = alpha, b = beta - alpha
        scene = scene_with(SymMat2.iso(-0.5), SymMat2.iso(-0.25), omega=0.0)
        m, big_m = bounds_mM(scene)
        assert m == pytest.approx(0.5)
        assert big_m == pytest.approx(0.25)

    def test_two_inclusions(self):
        # targets: a1 = -0.3 I, b1 = 0.1 I, a2 = -0.6 I, b2 = [[0.2,0.1],[0.1,0.2]]
        beta1 = SymMat2.iso(0.1) + SymMat2.iso(-0.3)
        beta2 = SymMat2(0.2, 0.1, 0.2) + SymMat2.iso(-0.6)
        scene = MaterialScene(
            sigma0=1.0,
            eps0=1.0,
            omega=0.0,
            inclusions=(
                Inclusion(Disk((-0.4, 0.0), 0.15), SymMat2.iso(-0.3), beta1),
                Inclusion(Disk((0.4, 0.0), 0.15), SymMat2.iso(-0.6), beta2),
            ),
        )
        m, big_m = bounds_mM(scene)
        assert m == pytest.approx(0.4)
        assert big_m == pytest.approx(0.3)


class TestFrequencyBound:
    def test_example(self):
        assert frequency_bound(0.5, 0.5, 0.25) == pytest.approx(2.0)

    def test_no_reactive_contrast(self):
        assert frequency_bound(0.5, 0.5, 0.0) == math.inf

    def test_unit(self):
        assert frequency_bound(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            frequency_bound(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            frequency_bound(1.0, -1.0, 1.0)


class TestPQWeights:
    def test_symmetric(self):
        assert pq_weights(1.0, 1.0, 1.0) == pytest.approx((0.5, 0.5))

    def test_low_frequency(self):
        p, q = pq_weights(2.0, 1.0, 1e-4)
        assert p == pytest.approx(1.0, abs=1e-8)
        assert p + q == pytest.approx(1.0, abs=1e-15)

    def test_example(self):
        assert pq_weights(1.0, 2.0, 1.0) == pytest.approx((0.2, 0.8))

    def test_sum_is_one(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            s0, e0, w = rng.uniform(0.01, 10.0, size=3)
            p, q = pq_weights(s0, e0, w)
            assert abs(p + q - 1.0) <= 1e-15
            assert 0.0 < p < 1.0 and 0.0 < q < 1.0

    def test_monotone_in_omega(self):
        omegas = np.linspace(0.1, 5.0, 30)
        ps = [pq_weights(1.3, 0.7, w)[0] for w in omegas]
        qs = [pq_weights(1.3, 0.7, w)[1] for w in omegas]
        assert np.all(np.diff(ps) < 0)
        assert np.all(np.diff(qs) > 0)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            pq_weights(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            pq_weights(1.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            pq_weights(1.0, 1.0, 1e200)

    def test_underflowing_denominator_rejected(self):
        with pytest.raises(InvalidParameterError, match="too small"):
            pq_weights(1e-170, 1.0, 1e-170)


class TestSimilarity:
    def test_identical_relative_tensors(self):
        scene = scene_with(SymMat2.iso(-0.4), SymMat2.iso(-0.4))
        r, rhs, holds = similarity_check(scene, 0.6, 0.4)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert holds

    def test_opposite_contrast(self):
        scene = scene_with(SymMat2.iso(-0.5), SymMat2.iso(0.5), omega=0.5)
        m, _ = bounds_mM(scene)
        jump, c = check_jump(scene, E1, 0.04)
        assert jump is Jump.NEGATIVE
        r, rhs, holds = similarity_check(scene, m, c)
        assert r == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0 * math.sqrt(m * c))
        assert holds == (r < rhs)

    def test_requires_positive_sigma0(self):
        scene = scene_with(SymMat2.iso(0.5), SymMat2.zero(), sigma0=0.0)
        with pytest.raises(InvalidParameterError):
            similarity_check(scene, 1.0, 0.5)


class TestClassifyRegime:
    def test_positive_jump_unrestricted_omega(self):
        scene = scene_with(SymMat2.identity(), SymMat2.zero(), omega=40.0)
        report = classify_regime(scene, E1)
        assert report.jump is Jump.POSITIVE
        assert report.omega_max == math.inf
        assert "Thm1.1'" in report.applicable
        assert "Cor2.2" in report.applicable

    def test_negative_jump_gates_fail(self):
        # moderate opposite contrast, omega above the bound: both gates fail
        scene = scene_with(SymMat2.iso(-0.5), SymMat2.iso(0.25), omega=4.0 / 3.0)
        report = classify_regime(scene, E1)
        assert report.jump is Jump.NEGATIVE
        assert scene.omega >= report.omega_max
        assert report.similarity_lhs >= report.similarity_rhs
        assert not report.applicable

    def test_negative_jump_similarity_gate(self):
        # proportional contrast keeps R = 0, so the similarity result
        # applies at any frequency
        scene = scene_with(SymMat2.iso(-0.5), SymMat2.iso(-0.5), omega=25.0)
        report = classify_regime(scene, E1)
        assert report.jump is Jump.NEGATIVE
        assert report.similarity_lhs == pytest.approx(0.0, abs=1e-15)
        assert "Cor2.1" in report.applicable

    def test_json_keys(self):
        scene = scene_with(SymMat2.identity(), SymMat2.zero())
        report = classify_regime(scene, E1)
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert set(blob) == {
            "jump", "C_theta", "m", "M", "omega_max", "P", "Q", "R", "rhs", "applicable",
        }
        assert blob["jump"] == "positive"
        assert blob["omega_max"] == "inf"

    def test_text_block(self):
        scene = scene_with(SymMat2.identity(), SymMat2.zero())
        text = classify_regime(scene, E1).to_text()
        assert "jump" in text and "applicable" in text

    def test_default_delta(self):
        scene = scene_with(SymMat2.identity(), SymMat2.zero())
        assert default_slab_delta(scene, E1) == pytest.approx(0.1 * 0.4)
        report = classify_regime(scene, E1)
        assert report.delta_theta == pytest.approx(0.04)


def test_scene_support_union():
    scene = MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(Disk((-0.4, 0.0), 0.15), SymMat2.zero(), SymMat2.zero()),
            Inclusion(Disk((0.4, 0.0), 0.15), SymMat2.zero(), SymMat2.zero()),
        ),
    )
    assert scene_support(scene, (1.0, 0.0)) == pytest.approx(0.55)
    assert scene_support(scene, (0.0, 1.0)) == pytest.approx(0.15)
