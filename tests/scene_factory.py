"""Random valid scenes for algebra and classification checks, and a fixed
two-inclusion scene."""

import math

import numpy as np

from enclosure_kit.geometry import AxisEllipse, ConvexPolygon, Disk
from enclosure_kit.materials import Inclusion, MaterialScene, SymMat2


def random_sym(rng, lo_min, hi=3.0):
    ang = rng.uniform(0.0, math.pi)
    c, s = math.cos(ang), math.sin(ang)
    d1, d2 = rng.uniform(lo_min, hi, size=2)
    r = np.array([[c, -s], [s, c]])
    a = r @ np.diag([d1, d2]) @ r.T
    return SymMat2(float(a[0, 0]), 0.5 * float(a[0, 1] + a[1, 0]), float(a[1, 1]))


def random_valid_scene(rng, force_positive_background=False):
    """One-inclusion scene honoring all material constraints."""
    if force_positive_background:
        sigma0 = float(rng.uniform(0.5, 3.0))
        omega = float(rng.uniform(0.05, 3.0))
    else:
        sigma0 = float(rng.choice([0.0, rng.uniform(0.2, 3.0)]))
        omega = float(rng.uniform(0.05, 3.0))
    eps0 = float(rng.uniform(0.2, 3.0))
    alpha = random_sym(rng, -0.9 * sigma0 if sigma0 > 0 else 0.0)
    beta = random_sym(rng, -0.9 * eps0)
    return MaterialScene(
        sigma0=sigma0,
        eps0=eps0,
        omega=omega,
        inclusions=(Inclusion(Disk((0.3, 0.0), 0.2), alpha, beta),),
    )


def random_definite_scene(rng):
    """Scene whose reduced perturbation eigenvalues stay clear of zero.

    Keeps the jump classification stable under a finite quadratic-form
    scan (margin 1e-3 dominates the scan resolution ~2e-5).
    """
    while True:
        scene = random_valid_scene(rng)
        denom = scene.sigma0**2 + scene.omega**2 * scene.eps0**2
        inc = scene.inclusions[0]
        lhs = (
            scene.sigma0 * inc.alpha.as_array()
            + scene.omega**2 * scene.eps0 * inc.beta.as_array()
        ) / denom
        eig = np.linalg.eigvalsh(lhs)
        if min(abs(eig[0]), abs(eig[1])) >= 1e-3:
            return scene


def ellipse_and_polygon_scene():
    return MaterialScene(
        sigma0=1.0,
        eps0=1.0,
        omega=1.0,
        inclusions=(
            Inclusion(
                AxisEllipse((-0.45, 0.1), 0.3, 0.18),
                SymMat2(0.8, 0.1, 0.6),
                SymMat2(0.2, 0.0, 0.1),
            ),
            Inclusion(
                ConvexPolygon(((0.3, -0.3), (0.75, -0.2), (0.45, 0.25))),
                SymMat2.identity(),
                SymMat2.zero(),
            ),
        ),
    )
