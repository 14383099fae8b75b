"""Independent oracles the tests check the library against.

Everything here is deliberately slow and simple: finite differences,
adaptive quadrature, permutation search, an exact matching, dense grid
scans, and plain Euler-Maruyama loops. None of it shares code with the
package, save that the loops take its random streams and drift as given
and check only the integration around them.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment, minimize_scalar
from scipy.spatial.distance import cdist

from sfsampler import rng


def sfs_reference(ev, seed, steps, n):
    """Terminal states and (n, steps + 1, p) path of a plain diffusion loop.

    Starts at the origin; step k adds (1/K) times ``ev``'s drift at t = k/K
    and sqrt(1/K) times the (seed, increment, k) block.
    """
    h = 1.0 / steps
    y = np.zeros((n, ev.target.dim))
    path = [y]
    for k in range(steps):
        y = y + h * ev.batch(y, k / steps, k)
        noise = rng.substream(seed, rng.ROLE_INCREMENT, k).standard_normal(y.shape)
        y = y + math.sqrt(h) * noise
        path.append(y)
    return y, np.stack(path, axis=1)


def ula_reference(target, seed, step_size, iterations, n):
    """Terminal states of a plain unadjusted Langevin loop.

    Chains start at the (seed, ula-init) block; iteration k adds h times
    grad log pi = grad log f - x and sqrt(2h) times the (seed, ula-step, k) block.
    """
    x = rng.substream(seed, rng.ROLE_ULA_INIT, 0).standard_normal((n, target.dim))
    for k in range(iterations):
        x = x + step_size * (target.grad_log_f(x) - x)
        noise = rng.substream(seed, rng.ROLE_ULA_STEP, k).standard_normal(x.shape)
        x = x + math.sqrt(2.0 * step_size) * noise
    return x


def fd_grad(log_f, x, h=1e-5):
    """Central-difference gradient of a batch log density at points x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, p = x.shape
    out = np.empty((n, p))
    for j in range(p):
        hi = x.copy()
        lo = x.copy()
        hi[:, j] += h
        lo[:, j] -= h
        out[:, j] = (log_f(hi) - log_f(lo)) / (2.0 * h)
    return out


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def quadrature_drift_1d(f, f_prime, x, t, lim=14.0):
    """Drift at scalar x from adaptive quadrature of the smoothed ratio.

    Integrates phi(z) f(x + sqrt(1-t) z) and the same with f' to form the
    ratio of the smoothed gradient to the smoothed density, the definition
    the closed form and the Monte-Carlo estimators both approximate.
    """
    r = math.sqrt(1.0 - t)
    num, _ = quad(lambda z: _phi(z) * f_prime(x + r * z), -lim, lim, limit=400)
    den, _ = quad(lambda z: _phi(z) * f(x + r * z), -lim, lim, limit=400)
    return num / den


def brute_force_w2(x, y):
    """Exact W2 by trying every matching. Factorial, so n <= 8 only."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = x.shape[0]
    if n > 8:
        raise ValueError("brute force is factorial; keep n <= 8")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        d = x - y[list(perm)]
        best = min(best, float(np.sum(d * d)))
    return math.sqrt(best / n)


def exact_w2_assignment(x, y):
    """Exact W2 between two equal-size batches from scipy's optimal matching.

    The cost is squared Euclidean distance, so this is the true W2 between
    the empirical measures; the solver is cubic in n.
    """
    x = np.asarray(x, dtype=float).reshape(len(x), -1)  # (n,) is n 1-D points
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    cost = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def mixture_f_derivatives(weights, means):
    """Density ratio f and its first two derivatives for a 1-D mixture.

    f(x) = sum_i w_i exp(m_i x - m_i^2 / 2), so each derivative just
    multiplies the i-th term by another power of m_i.
    """
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float).ravel()

    def term(x):
        return w * np.exp(m * x - 0.5 * m * m)

    f = lambda x: float(np.sum(term(x)))
    f1 = lambda x: float(np.sum(m * term(x)))
    f2 = lambda x: float(np.sum(m * m * term(x)))
    return f, f1, f2


def mixture_gamma_xi(weights, means, lo=-5.0, hi=5.0, n_grid=20001):
    """Growth constants of a 1-D mixture's density ratio on [lo, hi].

    gamma bounds |f'| and |f''| (f and its gradient are Lipschitz with
    this constant on the interval), xi is the infimum of f there. Found by
    a dense grid scan refined with a bounded scalar minimizer.
    """
    f, f1, f2 = mixture_f_derivatives(weights, means)
    xs = np.linspace(lo, hi, n_grid)
    span = (hi - lo) / (n_grid - 1)

    def refine_min(fun, x0):
        a, b = max(lo, x0 - 2 * span), min(hi, x0 + 2 * span)
        return minimize_scalar(fun, bounds=(a, b), method="bounded").fun

    def refine_max(fun, x0):
        return -refine_min(lambda x: -fun(x), x0)

    vals_f = np.array([f(x) for x in xs])
    vals_1 = np.abs([f1(x) for x in xs])
    vals_2 = np.abs([f2(x) for x in xs])

    xi = min(float(vals_f.min()), refine_min(f, xs[int(np.argmin(vals_f))]))
    g1 = max(float(vals_1.max()), refine_max(lambda x: abs(f1(x)), xs[int(np.argmax(vals_1))]))
    g2 = max(float(vals_2.max()), refine_max(lambda x: abs(f2(x)), xs[int(np.argmax(vals_2))]))
    return float(max(g1, g2)), float(xi)
