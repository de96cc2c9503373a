"""Hand-built nuisance sets and small tables shared across test modules."""

import numpy as np

from mivest.data import ObservationTable
from mivest.general import _own_level
from mivest.nuisance import NuisanceSet, evaluate_nuisances


def const_fn(values):
    """X -> (L, m) whose row z is the constant values[z] over the rows of X."""
    vals = np.array([float(v) for v in values])

    def fn(X):
        X = np.atleast_2d(X)
        return np.repeat(vals[:, None], X.shape[0], axis=1)

    return fn


def const_marg(value):
    v = float(value)

    def fn(X):
        return np.full(np.atleast_2d(X).shape[0], v)

    return fn


def const_ns(pi, rho, mu, pi0, *, pi_marg=None, mu_marg=None, delta=None,
             eps_den=1e-6):
    """Nuisance set with per-level constants.

    Passing pi_marg or mu_marg pins the marginals directly (direct mode);
    otherwise they are the exact rho-weighted sums.  delta may be a scalar
    or a per-level sequence and installs an override callable.
    """
    L = len(pi)
    kw = {}
    mode = "marginalize"
    if pi_marg is not None or mu_marg is not None:
        mode = "direct"
        pm = pi_marg if pi_marg is not None else float(np.dot(rho, pi))
        mm = mu_marg if mu_marg is not None else float(np.dot(rho, mu))
        kw["pi_marg_fn"] = const_marg(pm)
        kw["mu_marg_fn"] = const_marg(mm)
    if delta is not None:
        dvals = delta if hasattr(delta, "__len__") else [delta] * L
        kw["delta_fn"] = const_fn(dvals)
    return NuisanceSet(
        L=L,
        pi_fn=const_fn(pi),
        rho_fn=const_fn(rho),
        mu_fn=const_fn(mu),
        pi0=float(pi0),
        mode=mode,
        eps_den=eps_den,
        **kw,
    )


def g_weights(ns, X, trim="floor"):
    """The estimator's weights g(z, x) - g(x) with each row of X at every level.

    _own_level runs on a table holding the rows of X once per instrument
    level (level-major, all nonrespondents).  Returns rho(z, x) and the
    weights, both (L, m), and the _OwnLevel itself.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    table = ObservationTable.from_arrays(np.tile(X, (ns.L, 1)),
                                         np.repeat(np.arange(ns.L), m),
                                         np.zeros(ns.L * m, dtype=int), L=ns.L)
    ev = evaluate_nuisances(ns, table.X)
    own = _own_level(table, ev.pi, ev.rho, ev.delta_r, ns.pi0, ns.eps_den, trim)
    return ev.rho[:, :m], own.g_diff.reshape(ns.L, m), own


def one_row_x(x1=0.5, x2=0.5):
    return np.array([x1, x2])


def small_table(Z, R, Y, X=None, L=None):
    """Table from plain lists; X defaults to a deterministic 2-column grid."""
    Z = np.asarray(Z)
    n = Z.shape[0]
    if X is None:
        t = np.linspace(0.1, 0.9, n)
        X = np.column_stack([t, t[::-1]])
    return ObservationTable.from_arrays(np.asarray(X, dtype=float), Z,
                                        np.asarray(R), Y, L=L)


def binary_if_values(table, ns, beta, spec):
    """Centered influence values in the paper's closed form for L = 2.

        phi = (2Z-1)/rho_Z(x) * (1-pi(x)) / (pi0 * delta_r(x))
              * [R h - R delta(x) - mu(0,x) + pi(0,x) delta(x)]
              + (1-R)/pi0 * (delta(x) - beta)

    with delta_r(x) = pi(1,x) - pi(0,x) and delta(x) = (mu(1,x) - mu(0,x))
    / delta_r(x).  The bracket is built around level 0 and never reads
    mu(x), so it equals the general influence function at L = 2 when the
    set marginalizes.  A test reference: no floor, no trim policy.
    """
    ev = evaluate_nuisances(ns, table.X)
    den = ev.pi[1] - ev.pi[0]
    delta = (ev.mu[1] - ev.mu[0]) / den
    rho_z = ev.rho[table.Z, np.arange(table.n)]
    R = table.R.astype(float)
    zsign = 2.0 * table.Z.astype(float) - 1.0
    weight = zsign / rho_z * (1.0 - ev.pi_marg) / (ns.pi0 * den)
    bracket = table.rh(spec) - R * delta - ev.mu[0] + ev.pi[0] * delta
    return weight * bracket + (1.0 - R) / ns.pi0 * (delta - beta)
