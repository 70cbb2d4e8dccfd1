"""SVD-like factorizations of finite-gain nonlinear maps.

A finite-gain map ``f`` is split as ``f = U @ Sigma @ v(.)`` where ``U`` is an
orthogonal permutation, ``Sigma`` is a rectangular diagonal gain matrix, and
``v`` is an injective lifting that preserves the Euclidean norm of the
map's last argument pointwise: ``x`` for ``f(x)``, ``u`` for ``f(x, u)``.
All of the gain and non-injectivity of ``f`` lives in the static matrix
``Sigma``; the lifting carries the nonlinearity.

The lifting splits into a support part (the pseudo-inverse image of ``f``)
and a kernel part that tops the norm back up through coordinates that
``Sigma`` annihilates.  The kernel weight is the square root of a radicand
that stays nonnegative as long as ``Sigma`` truly dominates the per-coordinate
gains of ``f``; an undersized ``Sigma`` surfaces as a ``SlackViolationError``
carrying the witness point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_vector, row_norms

__all__ = [
    "GainProfile",
    "GsvdFactor",
    "SlackViolationError",
    "estimate_gains",
    "sigma_pinv",
    "decompose",
]

# normalized radicand values in [-RADICAND_CLAMP, 0) count as touching zero
RADICAND_CLAMP = 1e-12
# sampled states on which a two-argument map must vanish at u = 0
_ZERO_INPUT_CHECKS = 32
# fewest samples ``estimate_gains`` accepts
MIN_SAMPLE_BUDGET = 100


class SlackViolationError(ValueError):
    """The kernel radicand went negative: the gain bounds were undersized."""

    def __init__(self, message: str, witness=None, radicand: float = 0.0):
        super().__init__(message)
        self.witness = witness
        self.radicand = radicand


@dataclass(frozen=True)
class GainProfile:
    """Per-output-coordinate bounds ``|f_i(.)| <= c_i * ||arg||``."""

    coordinate_bounds: np.ndarray
    source: str = "user_supplied"  # or "sampled_estimate"
    sample_count: int | None = None

    def __post_init__(self):
        c = np.asarray(self.coordinate_bounds, dtype=float).reshape(-1)
        if c.size == 0:
            raise ValueError("gain profile must be nonempty")
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("coordinate bounds must be finite and nonnegative")
        if self.source not in ("user_supplied", "sampled_estimate"):
            raise ValueError(f"unknown gain source {self.source!r}")
        object.__setattr__(self, "coordinate_bounds", c)

    @property
    def size(self) -> int:
        return self.coordinate_bounds.size


@dataclass(frozen=True)
class GsvdFactor:
    """Factorization ``f(*args) = u @ sigma @ lift(*args)``.

    ``args`` is ``(x,)`` or ``(x, u)``.  ``sigma`` is ``p x m`` rectangular
    diagonal with its last ``kernel_dim`` columns identically zero, so
    ``m = p + kernel_dim`` and ``kernel_dim`` is the size of the last
    argument.  ``lift`` preserves the norm of the last argument pointwise and
    is injective in it: the trailing block of the lifted vector is a
    nonnegative rescaling of that argument.
    """

    u: np.ndarray
    sigma: np.ndarray
    slack: float
    kernel_dim: int
    map: Callable[..., np.ndarray]
    gains: GainProfile | None = None
    _sigma_pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, float)
        sigma = np.asarray(self.sigma, float)
        p, m = sigma.shape
        if u.shape != (p, p):
            raise ValueError(f"u must be {p}x{p}, got {u.shape}")
        if m != p + self.kernel_dim:
            raise ValueError("sigma must have p + kernel_dim columns")
        if np.any(sigma[:, p:] != 0.0):
            raise ValueError("trailing kernel columns of sigma must be zero")
        diag = np.diag(sigma[:, :p])
        if np.any(np.diff(diag) > 1e-12 * (1.0 + diag.max(initial=0.0))):
            raise ValueError("diagonal of sigma must be nonincreasing")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_sigma_pinv", sigma_pinv(sigma))

    @property
    def out_dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def lift_dim(self) -> int:
        return self.sigma.shape[1]

    def support(self, *args) -> np.ndarray:
        """Support component: pseudo-inverse image of the map value."""
        fx = as_vector(self.map(*args), "map value")
        return self._sigma_pinv @ (self.u.T @ fx)

    def kernel(self, *args) -> np.ndarray:
        """Kernel component: norm completion through the zeroed columns."""
        a = as_vector(args[-1], "last argument")
        out = np.zeros(self.lift_dim)
        norm2 = float(a @ a)
        if norm2 == 0.0:
            return out
        s = self.support(*args)
        ratio = (norm2 - float(s @ s)) / norm2
        if ratio < -RADICAND_CLAMP:
            raise SlackViolationError(
                f"kernel radicand {ratio:.3e} is negative: "
                "per-coordinate gain bounds were underestimated at the reported witness",
                witness=args,
                radicand=ratio,
            )
        out[self.out_dim :] = a * np.sqrt(max(ratio, 0.0))
        return out

    def lift(self, *args) -> np.ndarray:
        """Norm-preserving lifting: support plus kernel."""
        return self.support(*args) + self.kernel(*args)

    def reconstruct(self, *args) -> np.ndarray:
        """Evaluate ``u @ sigma @ lift(args)``; equals the map pointwise."""
        return self.u @ (self.sigma @ self.lift(*args))


def _sample_points(rng, dim: int, count: int, box: float) -> np.ndarray:
    """Box samples plus radial rays probing scales inside the domain.

    The rays reach down to a thousandth of the box half-width, which catches
    maps whose gain peaks near the origin (ratios like sin(x)/x), while
    staying inside the declared sampling domain.
    """
    radii = box * np.array([1e-3, 1e-2, 0.1, 0.2, 0.5, 1.0])
    n_box = max(count // 2, 1)
    n_dirs = max((count - n_box) // radii.size, 1)
    pts = [rng.uniform(-box, box, size=(n_box, dim))]
    dirs = rng.normal(size=(n_dirs, dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    for r in radii:
        pts.append(dirs * r)
    return np.vstack(pts)


def sigma_pinv(sigma: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a ``p x m`` rectangular diagonal ``sigma`` (``m x p``)."""
    p, m = sigma.shape
    diag = np.diag(sigma[:, :p])
    sp = np.zeros((m, p))
    nz = np.flatnonzero(diag > 0.0)
    sp[nz, nz] = 1.0 / diag[nz]
    return sp


def _rows(f: Callable, *stacks: np.ndarray) -> np.ndarray:
    """``f`` called once on stacks of ``k`` points, as its ``(k, p)`` rows;
    a ``(k,)`` value is one output coordinate, any other shape is refused."""
    fx = np.asarray(f(*stacks), float)
    k = len(stacks[0])
    if fx.shape == (k,):
        fx = fx[:, None]
    if fx.ndim != 2 or fx.shape[0] != k:
        raise ValueError(f"map must return one row per sample, shape ({k}, p), got {fx.shape}")
    return fx


def estimate_gains(
    f: Callable,
    dims: int | tuple[int, int],
    sample_budget: int = 1000,
    seed: int = 0,
    box: float = 5.0,
) -> GainProfile:
    """Sampled per-coordinate gain bounds of a map.

    For ``dims = n`` the map is ``f(x)`` and gains are measured against
    ``||x||``; for ``dims = (n, l)`` the map is ``f(x, u)`` and gains are
    measured against ``||u||``.  Sampling covers a centered box of half-width
    ``box`` plus radial rays at logarithmic scales, which catches maps whose
    gain peaks far from unit scale.  Deterministic for a fixed seed.

    ``f`` is called once, on the whole stack of samples: ``f(X)`` with ``X``
    of shape ``(k, n)``, or ``f(X, U)`` with ``U`` of shape ``(k, l)``, and
    returns one row per sample, ``(k, p)``, or ``(k,)`` when ``p = 1``; any
    other shape raises ``ValueError``, so a transposed ``(p, k)`` value is
    refused rather than read as rows (it cannot be told apart when
    ``p = k``).  Samples whose last argument is zero are left out of the
    stack.  An exception raised by ``f`` propagates as it is, before any
    value is checked; otherwise a non-finite value raises ``ValueError``
    naming the first sample, in sampling order, where it occurs.
    """
    if sample_budget < MIN_SAMPLE_BUDGET:
        raise ValueError(f"sample_budget must be at least {MIN_SAMPLE_BUDGET}")
    rng = np.random.default_rng(seed)
    # one stack per argument, one row per sample; the gain is measured
    # against the last argument
    dims = dims if isinstance(dims, tuple) else (int(dims),)
    stacks = [_sample_points(rng, d, sample_budget, box) for d in dims]
    count = stacks[0].shape[0]
    scale = row_norms(stacks[-1])
    used = scale != 0.0
    if not used.any():
        raise ValueError("no nonzero sample points were generated")
    if not used.all():
        stacks, scale = [s[used] for s in stacks], scale[used]
    fx = _rows(f, *stacks)
    finite = np.isfinite(fx).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        where = ", ".join(f"{name}={s[first]}" for name, s in zip("xu", stacks))
        raise ValueError(f"map returned non-finite values at {where}")
    best = (np.abs(fx) / scale[:, None]).max(axis=0)
    return GainProfile(best, source="sampled_estimate", sample_count=count)


def _sized_sigma(
    bounds: np.ndarray, slack: float, kernel_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Permutation and Sigma with ``sigma_i = slack * sqrt(p) * c_(i)``.

    The sqrt(p) inflation makes the kernel radicand sum of p coordinate
    terms provably below ``1 / slack**2``.
    """
    p = bounds.size
    order = np.argsort(-bounds, kind="stable")
    u = np.zeros((p, p))
    u[order, np.arange(p)] = 1.0
    diag = slack * np.sqrt(p) * bounds[order]
    sigma = np.zeros((p, p + kernel_dim))
    np.fill_diagonal(sigma, diag)
    return u, sigma


def _check_control_term(f: Callable, n: int, l: int, gains: GainProfile) -> None:
    """``f(x, 0) = 0`` on sampled states, and one gain per output coordinate;
    ``f`` is called on the stack of states, at ``u = 1`` and at ``u = 0``."""
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(_ZERO_INPUT_CHECKS, n))
    ref = _rows(f, xs, np.ones((_ZERO_INPUT_CHECKS, l)))
    if ref.shape[1] != gains.size:
        raise ValueError("gain profile size must match the output dimension")
    worst = row_norms(_rows(f, xs, np.zeros((_ZERO_INPUT_CHECKS, l)))).max()
    if worst > 1e-10 * (1.0 + row_norms(ref).max()):
        raise ValueError(
            f"control term does not vanish at u=0 (residual {worst:.3e})"
        )


def decompose(
    f: Callable[..., np.ndarray],
    dims: int | tuple[int, int],
    gains: GainProfile,
    slack: float = 1.05,
) -> GsvdFactor:
    """Factor a finite-gain map through a lift that keeps its last argument's norm.

    ``dims = n`` means ``f(x)`` with ``x`` in R^n; ``dims = (n, l)`` means
    ``f(x, u)`` with the norm carried by ``u`` in R^l, as in
    ``estimate_gains``.  A two-argument map must vanish at ``u = 0`` (checked
    on one stack of sampled states, so the map takes stacks as
    ``estimate_gains``'s does) and ``gains`` must hold one bound per output
    coordinate; its lift then vanishes at ``u = 0`` too.  ``slack`` must be at
    least 1; at exactly 1 the caller asserts the gain bounds are exact and the
    radicand may touch zero.
    """
    dims = dims if isinstance(dims, tuple) else (int(dims),)
    if len(dims) == 2:
        _check_control_term(f, *dims, gains)
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    u, sigma = _sized_sigma(gains.coordinate_bounds, slack, dims[-1])
    return GsvdFactor(
        u=u, sigma=sigma, slack=slack, kernel_dim=dims[-1], map=f, gains=gains
    )

