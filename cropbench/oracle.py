"""Independent references the benchmark checks cropguard's outputs against.

Nothing here imports cropguard.  The model is written out again from its
equations, trajectories come from scipy's DOP853 at rtol 1e-13, eigenvalues
from ``numpy.linalg.eigvals``, and coexistence points from ``numpy.roots`` of
the degree-4 polynomial P(A) = (a + A) den(A)^2 h(A) that the steady-state
system reduces to (den and h as in the derivation below).  Every function
returns plain numpy data, so the comparisons stay outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# The program's published defaults; the workloads override only alpha and
# the initial state, so a changed default shows up as a failed check.
PARAMS = dict(r=0.1, K=1.0, alpha=0.025, phi=0.3, c=1.0, a=0.5, lam=0.025,
              d=0.01, delta=0.1, m1=0.8, m2=0.6, gamma=0.003, sigma=0.015, eta=0.015)
WEIGHTS = dict(A1=1015.0, A2=1010.0, B1=1.6, B2=1.0)

# At rtol 1e-12 DOP853's own error over the 2000-day horizon (up to ~1e-9)
# exceeds the program's RK4 error (~3e-12), so the references use 1e-13.
RTOL = 1e-13
ATOL = 1e-17
# Real parts inside this band count as marginal, as in the program's verdicts.
EIG_TOL = 1e-9


def params(**overrides: float) -> dict:
    p = dict(PARAMS)
    p.update(overrides)
    return p


def containment_box(p: dict, x0: float) -> tuple[float, float, float]:
    """(M, W_max, A_max): X <= M, X + S + I <= W_max, A <= A_max."""
    M = max(x0, p["K"])
    W = (p["r"] + 4 * p["d"]) * M / (4 * p["d"])
    A = (4 * p["gamma"] * p["d"] + p["sigma"] * (p["r"] + 4 * p["d"]) * M) / (4 * p["eta"] * p["d"])
    return M, W, A


def field(p: dict, y: np.ndarray, u1=1.0, u2=1.0) -> np.ndarray:
    """dy/dt of the (controlled) model; y has shape (4, ...)."""
    X, S, I, A = y
    crop = p["alpha"] * X / (p["c"] + X)
    act = u1 * p["lam"] * A / (p["a"] + A)
    return np.array([
        p["r"] * X * (1 - X / p["K"]) - crop * S - p["phi"] * crop * I,
        p["m1"] * crop * S - act * S - p["d"] * S,
        p["m2"] * p["phi"] * crop * I + act * S - (p["d"] + p["delta"]) * I,
        u2 * p["gamma"] + p["sigma"] * (S + I) - p["eta"] * A,
    ])


def jacobian(p: dict, point) -> np.ndarray:
    X, S, I, A = point
    alpha, c, phi, m1, m2 = p["alpha"], p["c"], p["phi"], p["m1"], p["m2"]
    crop = alpha * X / (c + X)
    dcrop = alpha * c / (c + X) ** 2
    act = p["lam"] * A / (p["a"] + A)
    dact = p["lam"] * p["a"] / (p["a"] + A) ** 2
    return np.array([
        [p["r"] * (1 - 2 * X / p["K"]) - dcrop * (S + phi * I), -crop, -phi * crop, 0.0],
        [m1 * dcrop * S, m1 * crop - act - p["d"], 0.0, -dact * S],
        [m2 * phi * dcrop * I, act, m2 * phi * crop - p["d"] - p["delta"], dact * S],
        [0.0, p["sigma"], p["sigma"], -p["eta"]],
    ])


def spectrum(p: dict, point) -> np.ndarray:
    return np.linalg.eigvals(jacobian(p, point))


def verdict(max_real: float) -> str:
    if max_real < -EIG_TOL:
        return "Stable"
    if max_real > EIG_TOL:
        return "Unstable"
    return "Marginal"


# --- trajectories -----------------------------------------------------------

def trajectory(p: dict, y0, tf: float, n_steps: int) -> np.ndarray:
    """DOP853 states at the n_steps + 1 uniform nodes, shape (n_steps + 1, 4)."""
    t = np.linspace(0.0, tf, n_steps + 1)
    sol = solve_ivp(lambda _t, y: field(p, y), (0.0, tf), np.asarray(y0, float),
                    method="DOP853", rtol=RTOL, atol=ATOL, t_eval=t)
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def sweep_tails(p: dict, alphas, y0, tf: float, n_steps: int, transient: float) -> np.ndarray:
    """Tail (min, max) per compartment for each alpha, shape (len(alphas), 8).

    All trajectories advance together as one 4k-dimensional system, so the
    reference costs one adaptive integration rather than one per value.
    """
    alphas = np.asarray(alphas, float)
    k = len(alphas)
    pv = dict(p, alpha=alphas)
    t = np.linspace(0.0, tf, n_steps + 1)[int(transient * n_steps):]
    sol = solve_ivp(lambda _t, y: field(pv, y.reshape(4, k)).ravel(), (0.0, tf),
                    np.repeat(np.asarray(y0, float), k), method="DOP853",
                    rtol=RTOL, atol=ATOL, t_eval=t)
    if sol.status != 0:
        raise RuntimeError(f"reference sweep failed: {sol.message}")
    ys = sol.y.reshape(4, k, -1)
    out = np.empty((k, 8))
    out[:, 0::2] = ys.min(axis=2).T
    out[:, 1::2] = ys.max(axis=2).T
    return out


def controlled_run(p: dict, w: dict, y0, t: np.ndarray, u: np.ndarray,
                   substeps: int = 4) -> tuple[np.ndarray, float]:
    """Re-integrate given node controls, linear between nodes (the signal the
    program's RK4 stages sample).  Returns node states and the objective J,
    integrated as a fifth ODE component rather than by quadrature.

    The controls have a kink at every node, which an adaptive method must
    step through one by one (DOP853 takes 17 s at rtol 1e-13 on the 10k-node
    grid), so this uses classical RK4 with ``substeps`` steps per node
    interval, where the linear control is exact: its error is 4^-substeps
    of the program's.
    """
    r, K, alpha, phi, c, a = p["r"], p["K"], p["alpha"], p["phi"], p["c"], p["a"]
    lam, d, dd, m1, m2 = p["lam"], p["d"], p["d"] + p["delta"], p["m1"], p["m2"]
    gamma, sigma, eta = p["gamma"], p["sigma"], p["eta"]
    A1, A2, B1, B2 = w["A1"], w["A2"], w["B1"], w["B2"]

    def f(y, u1, u2):
        X, S, I, A, _ = y
        crop = alpha * X / (c + X)
        act = u1 * lam * A / (a + A)
        return (r * X * (1 - X / K) - crop * S - phi * crop * I,
                m1 * crop * S - act * S - d * S,
                m2 * phi * crop * I + act * S - dd * I,
                u2 * gamma + sigma * (S + I) - eta * A,
                A1 * S * S - A2 * A * A + 0.5 * (B1 * u1 * u1 + B2 * u2 * u2))

    y = (*map(float, y0), 0.0)
    out = [y]
    for j in range(len(t) - 1):
        h = (t[j + 1] - t[j]) / substeps
        (ua1, ua2), (ub1, ub2) = u[j], u[j + 1]
        for k in range(substeps):
            s0, s1, s2 = k / substeps, (k + 0.5) / substeps, (k + 1) / substeps
            v0 = (ua1 + s0 * (ub1 - ua1), ua2 + s0 * (ub2 - ua2))
            v1 = (ua1 + s1 * (ub1 - ua1), ua2 + s1 * (ub2 - ua2))
            v2 = (ua1 + s2 * (ub1 - ua1), ua2 + s2 * (ub2 - ua2))
            k1 = f(y, *v0)
            k2 = f(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)), *v1)
            k3 = f(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)), *v1)
            k4 = f(tuple(yi + h * ki for yi, ki in zip(y, k3)), *v2)
            y = tuple(yi + h / 6 * (q1 + 2 * (q2 + q3) + q4)
                      for yi, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4))
        out.append(y)
    arr = np.array(out)
    return arr[:, :4], float(arr[-1, 4])


def stationarity_residual(p: dict, w: dict, states: np.ndarray, u: np.ndarray,
                          costates: np.ndarray) -> float:
    """Max hinged |dH/du| over nodes: a bound the gradient pushes against
    contributes nothing."""
    S, A = states[:, 1], states[:, 3]
    p2, p3, p4 = costates[:, 1], costates[:, 2], costates[:, 3]
    grads = (w["B1"] * u[:, 0] - (p2 - p3) * p["lam"] * A * S / (p["a"] + A),
             w["B2"] * u[:, 1] + p4 * p["gamma"])
    worst = 0.0
    for ui, g in zip(u.T, grads):
        hinged = np.where(ui <= 1e-12, np.maximum(0.0, -g),
                          np.where(ui >= 1.0 - 1e-12, np.maximum(0.0, g), np.abs(g)))
        worst = max(worst, float(hinged.max()))
    return worst


# --- equilibria ---------------------------------------------------------------

@dataclass(frozen=True)
class Steady:
    kind: str
    point: tuple[float, float, float, float]
    eigs: np.ndarray

    @property
    def max_real(self) -> float:
        return float(self.eigs.real.max())


def _reduction(p: dict):
    """Polynomials (increasing order) of the coexistence reduction in A.

    With S > 0 the susceptible balance fixes crop uptake, so
    X = c N / den with N = lam A + d (a + A) and den = alpha m1 (a + A) - N.
    Awareness gives S + I = T = (eta A - gamma)/sigma and the crop balance
    S + phi I = U = r (K - X)(c + X)/(alpha K); den^2 times each of X, S, I
    is then a polynomial, and the infected balance h(A) times
    (a + A) den^2 is the quartic P(A).
    """
    r, K, alpha, phi, c, a = p["r"], p["K"], p["alpha"], p["phi"], p["c"], p["a"]
    lam, d, delta, m1, m2 = p["lam"], p["d"], p["delta"], p["m1"], p["m2"]
    gamma, sigma, eta = p["gamma"], p["sigma"], p["eta"]
    aA = np.array([a, 1.0])
    N = np.array([d * a, lam + d])
    den = alpha * m1 * aA - N
    den2 = npoly.polymul(den, den)
    T = np.array([-gamma / sigma, eta / sigma])
    # U den^2 = r c (alpha m1 (a + A)) (K den - c N) / (alpha K)
    U_den2 = npoly.polymul(r * c * m1 * aA, K * den - c * N) / K
    I_den2 = npoly.polysub(npoly.polymul(T, den2), U_den2) / (1.0 - phi)
    S_den2 = npoly.polysub(npoly.polymul(T, den2), I_den2)
    P = npoly.polysub(
        npoly.polyadd(npoly.polymul(m2 * phi / m1 * N, I_den2),
                      npoly.polymul([0.0, lam], S_den2)),
        npoly.polymul((d + delta) * aA, I_den2),
    )
    return P, N, den, den2, S_den2, I_den2


def coexistence(p: dict) -> list[tuple[float, float, float, float]]:
    """Admissible coexistence points from numpy.roots of P(A), by increasing A."""
    P, N, den, den2, S_den2, I_den2 = _reduction(p)
    roots = np.roots(P[::-1])
    dP = npoly.polyder(P)
    out = []
    for z in roots:
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)) or z.real <= 0.0:
            continue
        A = float(z.real)
        A -= npoly.polyval(A, P) / npoly.polyval(A, dP)  # one Newton polish
        dn = npoly.polyval(A, den)
        if dn <= 0.0:
            continue
        d2 = npoly.polyval(A, den2)
        X = p["c"] * npoly.polyval(A, N) / dn
        S = npoly.polyval(A, S_den2) / d2
        I = npoly.polyval(A, I_den2) / d2
        if min(X, S, I) < -1e-12:
            continue
        out.append((X, S, I, A))
    return sorted(out, key=lambda q: q[3])


def equilibria(p: dict) -> list[Steady]:
    """Every existing equilibrium, in the program's canonical order."""
    A0 = p["gamma"] / p["eta"]
    pts = [("Axial", (0.0, 0.0, 0.0, A0)), ("PestFree", (p["K"], 0.0, 0.0, A0))]
    cons, death = p["m2"] * p["phi"] * p["alpha"], p["d"] + p["delta"]
    if death < cons * p["K"] / (p["c"] + p["K"]):
        X = p["c"] * death / (cons - death)
        I = p["r"] * (p["c"] + X) * (p["K"] - X) / (p["phi"] * p["alpha"] * p["K"])
        pts.append(("SusceptibleFree", (X, 0.0, I, (p["gamma"] + p["sigma"] * I) / p["eta"])))
    pts += [("Coexistence", q) for q in coexistence(p)]
    return [Steady(kind, pt, spectrum(p, pt)) for kind, pt in pts]


def hopf_alphas(base: dict, lo: float, hi: float, n: int) -> list[float]:
    """Attack rates in (lo, hi) where the coexistence point's complex pair
    crosses the imaginary axis, located by brentq on its real part."""

    def pair_real(alpha: float) -> float | None:
        p = dict(base, alpha=alpha)
        stars = coexistence(p)
        if not stars:
            return None
        eigs = spectrum(p, stars[-1])
        pair = eigs[np.abs(eigs.imag) > EIG_TOL]
        return float(pair.real.max()) if pair.size else None

    grid = np.linspace(lo, hi, n)
    vals = [pair_real(float(a)) for a in grid]
    out = []
    for a0, a1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 is not None and v1 is not None and (v0 < 0.0) != (v1 < 0.0):
            out.append(brentq(pair_real, a0, a1, xtol=1e-15, rtol=1e-15))
    return out


# --- comparisons ------------------------------------------------------------

def rel(x, ref) -> float:
    """Largest elementwise |x - ref| / |ref|; where ref is 0 the deviation is |x|."""
    x, ref = np.asarray(x, float), np.asarray(ref, float)
    scale = np.where(ref == 0.0, 1.0, np.abs(ref))
    return float((np.abs(x - ref) / scale).max())


def rel_columns(x: np.ndarray, ref: np.ndarray) -> float:
    """Largest deviation per column, relative to that column's largest |ref|."""
    return float((np.abs(x - ref).max(axis=0) / np.abs(ref).max(axis=0)).max())
