"""Material tensors, the background-factoring reduction, and regime checks.

A scene is a homogeneous isotropic background (sigma0, eps0, omega) plus
piecewise-constant symmetric perturbations (alpha, beta) supported on
inclusion shapes.  Factoring out the complex background constant
sigma0 - i*omega*eps0 turns the coefficient sigma - i*omega*eps into an
identity-background pair (I + a) - i*omega*b with

    a = (sigma0*alpha + omega^2*eps0*beta) / (sigma0^2 + omega^2*eps0^2)
    b = (-eps0*alpha  + sigma0*beta)       / (sigma0^2 + omega^2*eps0^2)

Everything downstream (jump classification, the m/M bounds, the frequency
bound, the convex-combination weights, and the similarity condition) is
pure algebra over these 2x2 tensors.  All tensors are dimensionless model
numbers; only ratios enter any formula.  Scenes are frozen and every
operation is a pure function, so concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import get_args

import numpy as np

from .errors import EmptySlabError, InvalidParameterError
from .geometry import DirectionFrame, Shape, is_real

# labels for the results whose hypotheses a regime report checks
POSITIVE_JUMP_RESULT = "Thm1.1'"
NEGATIVE_JUMP_RESULT = "Thm1.2'"
SIMILARITY_RESULT = "Cor2.1"
CONVEX_POSITIVE_RESULT = "Cor2.2"


@dataclass(frozen=True)
class SymMat2:
    """2x2 real symmetric matrix with single off-diagonal storage."""

    a11: float
    a12: float
    a22: float

    def __post_init__(self):
        if not all(is_real(x) for x in (self.a11, self.a12, self.a22)):
            raise InvalidParameterError(
                f"symmetric matrix entries must be real numbers, got "
                f"({self.a11!r}, {self.a12!r}, {self.a22!r})"
            )

    @classmethod
    def identity(cls) -> "SymMat2":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def zero(cls) -> "SymMat2":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def iso(cls, c: float) -> "SymMat2":
        if not is_real(c):
            raise InvalidParameterError(f"isotropic value must be a real number, got {c!r}")
        return cls(float(c), 0.0, float(c))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def __add__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def __sub__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 - other.a11, self.a12 - other.a12, self.a22 - other.a22)

    def __mul__(self, c: float) -> "SymMat2":
        return SymMat2(self.a11 * c, self.a12 * c, self.a22 * c)

    __rmul__ = __mul__


def eig_sym2(m: SymMat2) -> tuple[float, float]:
    """Closed-form eigenvalues of a 2x2 symmetric matrix, (min, max)."""
    mean = 0.5 * (m.a11 + m.a22)
    radius = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return mean - radius, mean + radius


def opnorm_sym2(m: SymMat2) -> float:
    """Operator norm; for symmetric matrices the largest |eigenvalue|."""
    lo, hi = eig_sym2(m)
    return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class Inclusion:
    """One inclusion: its shape and the constant perturbations on it."""

    shape: Shape
    alpha: SymMat2
    beta: SymMat2

    def __post_init__(self):
        if not isinstance(self.shape, get_args(Shape)):
            raise InvalidParameterError(f"inclusion shape must be a shape, got {self.shape!r}")
        if not (isinstance(self.alpha, SymMat2) and isinstance(self.beta, SymMat2)):
            raise InvalidParameterError("inclusion alpha and beta must be SymMat2 values")


@dataclass(frozen=True)
class MaterialScene:
    """Background constants plus inclusion perturbations.

    Constraints enforced at construction: every constant and tensor entry
    is finite; eps0 > 0; sigma0 >= 0; omega >= 0;
    sigma0 and omega not both zero (the operator would not be coercive);
    on every inclusion eps0*I + beta stays positive definite and
    sigma0*I + alpha stays non-negative, and positive definite when
    omega = 0 (the per-inclusion form of the rule above).  Inclusion
    shapes must be pairwise strictly separated (near-touching
    configurations are rejected).
    """

    sigma0: float
    eps0: float
    omega: float
    inclusions: tuple[Inclusion, ...] = ()

    def __post_init__(self):
        try:
            inclusions = tuple(self.inclusions)
            typed = all(isinstance(inc, Inclusion) for inc in inclusions)
        except TypeError:  # not iterable
            typed = False
        if not typed:
            raise InvalidParameterError(
                f"inclusions must be a sequence of Inclusion values, got {self.inclusions!r}"
            )
        object.__setattr__(self, "inclusions", inclusions)
        constants = (self.sigma0, self.eps0, self.omega)
        if not all(is_real(c) and math.isfinite(c) for c in constants):
            raise InvalidParameterError("sigma0, eps0 and omega must be finite real numbers")
        if not self.eps0 > 0.0:
            raise InvalidParameterError("background permittivity eps0 must be > 0")
        if self.sigma0 < 0.0:
            raise InvalidParameterError("background conductivity sigma0 must be >= 0")
        if self.omega < 0.0:
            raise InvalidParameterError("angular frequency omega must be >= 0")
        if self.sigma0 == 0.0 and self.omega == 0.0:
            raise InvalidParameterError(
                "sigma0 = 0 and omega = 0 leaves a degenerate operator"
            )
        for k, inc in enumerate(self.inclusions):
            if not np.all(np.isfinite([inc.alpha.as_array(), inc.beta.as_array()])):
                raise InvalidParameterError(
                    f"inclusion {k}: alpha and beta must have finite entries"
                )
            sig_min = eig_sym2(SymMat2.iso(self.sigma0) + inc.alpha)[0]
            if sig_min < -1e-12:
                raise InvalidParameterError(
                    f"inclusion {k}: sigma0*I + alpha must be non-negative "
                    f"(lowest eigenvalue {sig_min:.4g})"
                )
            if self.omega == 0.0 and not sig_min > 0.0:
                raise InvalidParameterError(
                    f"inclusion {k}: sigma0*I + alpha must be positive definite "
                    f"when omega = 0 (lowest eigenvalue {sig_min:.4g})"
                )
            eps_min = eig_sym2(SymMat2.iso(self.eps0) + inc.beta)[0]
            if eps_min <= 0.0:
                raise InvalidParameterError(
                    f"inclusion {k}: eps0*I + beta must be positive definite "
                    f"(lowest eigenvalue {eps_min:.4g})"
                )
        _require_disjoint([inc.shape for inc in self.inclusions])

    def sigma_on(self, k: int) -> SymMat2:
        return SymMat2.iso(self.sigma0) + self.inclusions[k].alpha

    def eps_on(self, k: int) -> SymMat2:
        return SymMat2.iso(self.eps0) + self.inclusions[k].beta


def _require_disjoint(shapes: list[Shape]) -> None:
    # separating-direction scan; only a strictly separated pair passes
    n_dirs = 720
    ang = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            a, b = shapes[i], shapes[j]
            separated = any(a.support(t) + b.support(-t) < 0.0 for t in dirs)
            if not separated:
                raise InvalidParameterError(
                    f"inclusions {i} and {j} overlap or nearly touch"
                )


def scene_support(scene: MaterialScene, theta) -> float:
    """Support function of the union of inclusion shapes."""
    if not scene.inclusions:
        raise EmptySlabError("scene has no inclusions")
    return max(inc.shape.support(theta) for inc in scene.inclusions)


def default_slab_delta(scene: MaterialScene, frame: DirectionFrame) -> float:
    """Default slab thickness: 10% of the inclusion width along theta."""
    width = scene_support(scene, frame.theta) + scene_support(scene, (-frame.theta[0], -frame.theta[1]))
    return 0.1 * width


# ---------------------------------------------------------------------------
# reduction to the identity background


@dataclass(frozen=True)
class ReducedInclusion:
    shape: Shape
    a: SymMat2
    b: SymMat2


@dataclass(frozen=True)
class ReducedScene:
    """Identity-background coefficients: I + a and b on each inclusion."""

    omega: float
    inclusions: tuple[ReducedInclusion, ...] = ()


def reduce_scene(scene: MaterialScene) -> ReducedScene:
    """Map (alpha, beta) perturbations to their identity-background (a, b).

    The complex factorization
    (sigma0 - i*omega*eps0) * ((I+a) - i*omega*b) = sigma - i*omega*eps
    holds entrywise on every inclusion and trivially outside.
    """
    sigma0, eps0, omega = scene.sigma0, scene.eps0, scene.omega
    # products, not **: a float power that overflows raises OverflowError
    denom = sigma0 * sigma0 + (omega * omega) * (eps0 * eps0)
    # below the smallest normal float the squares have underflowed
    if not denom >= sys.float_info.min:
        raise InvalidParameterError(
            "sigma0^2 + omega^2*eps0^2 underflows; the background constants are too small"
        )
    reduced = []
    for k, inc in enumerate(scene.inclusions):
        a = (sigma0 * inc.alpha + omega * omega * eps0 * inc.beta) * (1.0 / denom)
        b = (-eps0 * inc.alpha + sigma0 * inc.beta) * (1.0 / denom)
        # an overflowing denom makes 1/denom zero, which would zero a and b silently
        if not all(map(math.isfinite, (a.a11, a.a12, a.a22, b.a11, b.a12, b.a22, denom))):
            raise InvalidParameterError(
                f"inclusion {k}: reduced tensors a, b are not finite; "
                "the material constants are too large"
            )
        reduced.append(ReducedInclusion(shape=inc.shape, a=a, b=b))
    return ReducedScene(omega=scene.omega, inclusions=tuple(reduced))


# ---------------------------------------------------------------------------
# jump classification and the derived constants


class Jump(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NONE = "none"


def check_jump(
    scene: MaterialScene, frame: DirectionFrame, delta: float
) -> tuple[Jump, float | None]:
    """Classify the sign of the reduced perturbation a on the probing slab.

    Returns (POSITIVE, C) when the lowest eigenvalue of a is >= C > 0
    uniformly over material in the slab; (NEGATIVE, C) for -a; otherwise
    (NONE, None).  C is the exact infimum over the slab regions.
    """
    if not (is_real(delta) and delta > 0.0):
        raise InvalidParameterError(f"slab thickness delta must be a real number > 0, got {delta!r}")
    h = scene_support(scene, frame.theta)
    # >=, not >: the inclusion attaining h stays in when h - delta rounds to h
    idx = [
        k
        for k, inc in enumerate(scene.inclusions)
        if inc.shape.support(frame.theta) >= h - delta
    ]
    reduced = reduce_scene(scene)
    lo = min(eig_sym2(reduced.inclusions[k].a)[0] for k in idx)
    hi = max(eig_sym2(reduced.inclusions[k].a)[1] for k in idx)
    if lo > 0.0:
        return Jump.POSITIVE, lo
    if hi < 0.0:
        return Jump.NEGATIVE, -hi
    return Jump.NONE, None


def bounds_mM(scene: MaterialScene) -> tuple[float, float]:
    """Coercivity floor m of I + a and ceiling M of |b| over all inclusions.

    With piecewise-constant tensors both essential bounds reduce to finite
    min/max over regions.  An empty scene yields (1, 0).
    """
    reduced = reduce_scene(scene)
    if not reduced.inclusions:
        return 1.0, 0.0
    m = min(
        eig_sym2(SymMat2.identity() + inc.a)[0] for inc in reduced.inclusions
    )
    big_m = max(opnorm_sym2(inc.b) for inc in reduced.inclusions)
    return m, big_m


def _sqrt_mc(m: float, c_theta: float) -> float:
    """sqrt(m*C), taken as sqrt(m)*sqrt(C) so that m*C cannot overflow."""
    if not all(is_real(x) and x > 0.0 for x in (m, c_theta)):
        raise InvalidParameterError("m and C_theta must be real numbers > 0")
    return math.sqrt(m) * math.sqrt(c_theta)


def frequency_bound(m: float, c_theta: float, big_m: float) -> float:
    """Largest admissible omega for the negative-jump result: sqrt(m*C)/M.

    Returns +inf when M = 0 (no reactive contrast).
    """
    if not all(is_real(x) and math.isfinite(x) for x in (m, c_theta, big_m)):
        raise InvalidParameterError("m, C_theta and M must be finite real numbers")
    root = _sqrt_mc(m, c_theta)
    if big_m < 0.0:
        raise InvalidParameterError("M must be >= 0")
    if big_m == 0.0:
        return math.inf
    return root / big_m


def pq_weights(sigma0: float, eps0: float, omega: float) -> tuple[float, float]:
    """Convex weights P, Q of the relative-contrast combination.

    P = sigma0^2 / (sigma0^2 + omega^2*eps0^2) and Q its complement;
    requires all three inputs strictly positive so that P, Q lie in (0, 1).
    """
    if not all(is_real(x) and x > 0.0 for x in (sigma0, eps0, omega)):
        raise InvalidParameterError("pq_weights requires real sigma0, eps0, omega > 0")
    denom = sigma0 * sigma0 + (omega * omega) * (eps0 * eps0)
    if not sys.float_info.min <= denom < math.inf:
        raise InvalidParameterError(
            "sigma0^2 + omega^2*eps0^2 underflows or overflows; "
            "the background constants are too small or too large"
        )
    return sigma0 * sigma0 / denom, (omega * omega) * (eps0 * eps0) / denom


def similarity_check(
    scene: MaterialScene, m: float, c_theta: float
) -> tuple[float, float, bool]:
    """Check the scale-free similarity condition R < 2*sqrt(m*C).

    R is the largest operator norm, over inclusions, of
    sigma(x)/sigma0 - eps(x)/eps0; equal relative tensors give R = 0.
    Returns (R, rhs, holds).
    """
    if not scene.sigma0 > 0.0:
        raise InvalidParameterError("similarity condition requires sigma0 > 0")
    rhs = 2.0 * _sqrt_mc(m, c_theta)
    r = 0.0
    for k in range(len(scene.inclusions)):
        rel = scene.sigma_on(k) * (1.0 / scene.sigma0) - scene.eps_on(k) * (
            1.0 / scene.eps0
        )
        r = max(r, opnorm_sym2(rel))
    return r, rhs, r < rhs


# ---------------------------------------------------------------------------
# regime report


@dataclass(frozen=True)
class RegimeReport:
    """Which recovery guarantees apply for one probing direction."""

    frame: DirectionFrame
    jump: Jump
    c_theta: float | None
    delta_theta: float
    m: float
    big_m: float
    omega: float
    omega_max: float | None
    p: float | None
    q: float | None
    similarity_lhs: float | None
    similarity_rhs: float | None
    applicable: frozenset[str]

    def to_json_dict(self) -> dict:
        def num(x):
            if x is None:
                return None
            if math.isinf(x):
                return "inf"
            return x

        return {
            "jump": self.jump.value,
            "C_theta": num(self.c_theta),
            "m": num(self.m),
            "M": num(self.big_m),
            "omega_max": num(self.omega_max),
            "P": num(self.p),
            "Q": num(self.q),
            "R": num(self.similarity_lhs),
            "rhs": num(self.similarity_rhs),
            "applicable": sorted(self.applicable),
        }

    def to_text(self) -> str:
        tx, ty = self.frame.theta
        lines = [
            f"direction      theta = ({tx:.6g}, {ty:.6g})",
            f"jump           {self.jump.value}"
            + (f"   C_theta = {self.c_theta:.6g}" if self.c_theta is not None else ""),
            f"slab delta     {self.delta_theta:.6g}",
            f"bounds         m = {self.m:.6g}   M = {self.big_m:.6g}",
            f"omega          {self.omega:.6g}"
            + (
                f"   omega_max = {self.omega_max:.6g}"
                if self.omega_max is not None
                else ""
            ),
        ]
        if self.p is not None:
            lines.append(f"convex weights P = {self.p:.6g}   Q = {self.q:.6g}")
        if self.similarity_lhs is not None and self.similarity_rhs is not None:
            lines.append(
                f"similarity     R = {self.similarity_lhs:.6g} vs "
                f"2*sqrt(m*C) = {self.similarity_rhs:.6g}"
            )
        tags = ", ".join(sorted(self.applicable)) if self.applicable else "(none)"
        lines.append(f"applicable     {tags}")
        return "\n".join(lines)


def classify_regime(
    scene: MaterialScene, frame: DirectionFrame, delta: float | None = None
) -> RegimeReport:
    """Classify the jump and collect every applicable recovery guarantee.

    Gates: a positive jump always supports recovery (no frequency
    restriction, omega_max reported as +inf); a negative jump supports it
    when omega stays below sqrt(m*C)/M, or for any omega when the
    similarity condition holds.  The convex-combination variants
    additionally need sigma0, eps0, omega all positive.
    """
    if delta is None:
        delta = default_slab_delta(scene, frame)
    jump, c_theta = check_jump(scene, frame, delta)
    m, big_m = bounds_mM(scene)
    pq_defined = scene.sigma0 > 0.0 and scene.omega > 0.0
    p, q = pq_weights(scene.sigma0, scene.eps0, scene.omega) if pq_defined else (None, None)

    sim_lhs = sim_rhs = None
    sim_holds = False
    if scene.sigma0 > 0.0 and jump is not Jump.NONE:
        sim_lhs, sim_rhs, sim_holds = similarity_check(scene, m, c_theta)

    applicable = set()
    omega_max: float | None = None
    if jump is Jump.POSITIVE:
        omega_max = math.inf
        applicable.add(POSITIVE_JUMP_RESULT)
        if pq_defined:
            applicable.add(CONVEX_POSITIVE_RESULT)
    elif jump is Jump.NEGATIVE:
        omega_max = frequency_bound(m, c_theta, big_m)
        if scene.omega < omega_max:
            applicable.add(NEGATIVE_JUMP_RESULT)
        if pq_defined and sim_holds:
            applicable.add(SIMILARITY_RESULT)

    return RegimeReport(
        frame=frame,
        jump=jump,
        c_theta=c_theta,
        delta_theta=delta,
        m=m,
        big_m=big_m,
        omega=scene.omega,
        omega_max=omega_max,
        p=p,
        q=q,
        similarity_lhs=sim_lhs,
        similarity_rhs=sim_rhs,
        applicable=frozenset(applicable),
    )
