"""Hand-built nuisance sets and small tables shared across test modules."""

import numpy as np

from mivest.data import ObservationTable
from mivest.exceptions import EstimationError
from mivest.general import _own_level, _phi_parts_general, _require_incomplete
from mivest.learners import fit_logistic
from mivest.nuisance import NuisanceSet, evaluate_nuisances, winsorize_values
from mivest.oracles import oracle_delta
from mivest.simulation import (_ORACLE_BATCH, CLAMP_EPS, FAMILY_SINGLE, DGPSpec,
                               GenerationError, _instrument_prob_dual, _oracle_rng,
                               _rng, generate, instrument_prob_single,
                               selection_alpha_u, selection_alpha_z_dual,
                               selection_alpha_z_single)


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


def const_ns(pi, rho, mu, pi0, *, pi_marg=None, mu_marg=None):
    """Nuisance set with per-level constants.

    Passing pi_marg or mu_marg pins the marginals directly (direct mode);
    otherwise they are the exact rho-weighted sums.  The contrast delta is
    then (mu - mu_marg) / (pi - pi_marg) at each level.
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
    return NuisanceSet(
        L=L,
        pi_fn=const_fn(pi),
        rho_fn=const_fn(rho),
        mu_fn=const_fn(mu),
        pi0=float(pi0),
        mode=mode,
        **kw,
    )


def g_weights(ns, X, trim="floor"):
    """The estimator's weights g(z, x) - g(x) with each row of X at every level.

    _own_level runs in its every-level form on the rows of X (all
    nonrespondents).  Returns rho(z, x) and the weights, both (L, m), and
    the _OwnLevel itself.
    """
    ev = evaluate_nuisances(ns, np.atleast_2d(np.asarray(X, dtype=float)))
    own = _own_level(np.arange(ns.L)[:, None], np.zeros_like(ev.pi), ev.pi, ev.rho,
                     ev.delta_r, ns.pi0, trim)
    return ev.rho, own.g_diff, own


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


def identified_beta_by_draws(family, n=1_000_000, seed=414):
    """E[delta(Z, X) | R = 0] by brute force, with its standard error.

    The mean of the closed-form delta (oracle_delta) at each row's own
    level over the nonrespondent rows of one generated table: a check of
    oracle_identified_beta that shares none of its quadrature.
    """
    table, _ = generate(DGPSpec(family=family, n=n, seed=seed))
    missing = table.R == 0
    Z = table.Z[missing]
    vals = oracle_delta(family)(table.X[missing])[Z, np.arange(Z.size)]
    return float(vals.mean()), float(vals.std() / np.sqrt(vals.size))


def if_values_general(table, ns, beta, spec, *, trim="floor", diag=None):
    """Centered influence values phi(beta) for every row."""
    parts = _phi_parts_general(table, ns, spec, trim, diag)
    R = table.R.astype(float)
    return parts.phi_tilde - (1.0 - R) / ns.pi0 * beta


def beta_if_general(table, ns, spec, *, trim="floor", winsorize=None, diag=None):
    """Influence-function estimator on one nuisance set: the mean of phi~
    over the retained rows.

    With winsorize = k, values outside [Q1 - k IQR, Q3 + k IQR] of the
    table's own influence-value distribution are pulled to the boundary.
    """
    _require_incomplete(table, ns)
    parts = _phi_parts_general(table, ns, spec, trim, diag)
    phi = parts.phi_tilde
    if winsorize is not None:
        phi = winsorize_values(phi, winsorize, diag)
    if not parts.keep.any():
        raise EstimationError("trim policy removed every row")
    return float(phi[parts.keep].mean())


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


# --------------------------------------------------------------------------
# the draws without chunks: a reference for generate and the oracle's pass
# --------------------------------------------------------------------------

def _reference_batch(family, m, rng, clamp_policy, parameters):
    """m latent draws of one family, every phase drawn in one RNG call.

    The phases and the formulas of simulation's draws, over whole columns,
    written out apart from the library's: X, U, the instrument uniforms,
    the outcome noise.  Returns (batch, n_invalid): X, z (the level code),
    u, y and p_r0, the draws the clamp policy rejects dropped.
    """
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    if family == FAMILY_SINGLE:
        u = rng.standard_normal(m)
        u *= 0.5
        u += 4.0
        p1 = instrument_prob_single(X)
        z1 = rng.random(m) < p1
        z = z1.astype(np.int64)
        alpha = selection_alpha_z_single(z1, X)
    else:
        u = rng.uniform(0.0, 1.0, size=m)
        z1 = rng.random(m) < _instrument_prob_dual(X, 1)
        z2 = rng.random(m) < _instrument_prob_dual(X, 2)
        z = z1.astype(np.int64)
        z *= 2
        z += z2
        alpha = selection_alpha_z_dual(z1, z2, X, parameters)
    alpha += selection_alpha_u(u)
    p_r0 = np.exp(alpha)
    y = np.exp(u / 6.0)
    y *= X[:, 0] + X[:, 1]
    y += 0.5 * rng.standard_normal(m)

    invalid = p_r0 > 1.0
    if clamp_policy == "as_printed_error" and invalid.any():
        i = int(np.flatnonzero(invalid)[0])
        raise GenerationError(
            f"P(R=0) = {p_r0[i]:.6g} > 1 at draw with (Z, U, X1, X2) = "
            f"({z[i]:.6g}, {u[i]:.6g}, {X[i, 0]:.6g}, {X[i, 1]:.6g})")
    if clamp_policy == "clamp_to_one_minus_eps":
        np.minimum(p_r0, 1.0 - CLAMP_EPS, out=p_r0)
    batch = {"X": X, "z": z, "u": u, "y": y, "p_r0": p_r0}
    if clamp_policy == "reject_invalid":
        batch = {k: v[~invalid] for k, v in batch.items()}
    return batch, int(invalid.sum())


def reference_generate(spec):
    """generate(spec) from _reference_batch: (arrays, clamp_fraction, n_rejected).

    arrays holds X, Z, R, y_full, u and p_r0 of the table and its latents.
    """
    rng = _rng(spec.seed)
    got, n_invalid, drawn = [], 0, 0
    while sum(b["y"].shape[0] for b in got) < spec.n:
        m = spec.n - sum(b["y"].shape[0] for b in got)
        batch, bad = _reference_batch(spec.family, m, rng, spec.clamp_policy,
                                      spec.parameters)
        got.append(batch)
        n_invalid += bad
        drawn += m
    cols = {k: np.concatenate([b[k] for b in got]) for k in got[0]}
    R = (rng.uniform(size=spec.n) >= cols["p_r0"]).astype(np.int64)
    arrays = {"X": cols["X"], "Z": cols["z"], "R": R, "y_full": cols["y"],
              "u": cols["u"], "p_r0": cols["p_r0"]}
    rejected = n_invalid if spec.clamp_policy == "reject_invalid" else 0
    return arrays, n_invalid / drawn, rejected


def reference_missing_outcomes(spec, draws):
    """The R = 0 outcomes of oracle_beta's draws, one array per batch of
    _ORACLE_BATCH, with the accepted and invalid counts summed over them."""
    rng = _oracle_rng(spec, None)
    outcomes, accepted, n_invalid = [], 0, 0
    for start in range(0, draws, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, draws - start)
        batch, bad = _reference_batch(spec.family, m, rng, spec.clamp_policy,
                                      spec.parameters)
        r0 = rng.random(batch["p_r0"].shape[0]) < batch["p_r0"]
        outcomes.append(batch["y"][r0])
        accepted += batch["p_r0"].shape[0]
        n_invalid += bad
    return outcomes, accepted, n_invalid


def reference_expand_basis(x, df):
    """learners.expand_basis as it was row-major: powers accumulated in a
    scratch vector and copied, column by column, into a C-order (m, 1 +
    p df) matrix."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    m, p = x.shape
    out = np.empty((m, 1 + p * df), dtype=float)
    out[:, 0] = 1.0
    col = 1
    for j in range(p):
        acc = np.ones(m)
        xj = x[:, j]
        for _ in range(df):
            acc = acc * xj
            out[:, col] = acc
            col += 1
    return out[0] if single else out


def reference_newton(coef, pll, score, hessian, cfg):
    """learners._newton_fit's schedule, written out apart from the library's:
    (coef, converged, n_iter) of a damped Newton ascent over flat coefficients.

    pll(b) returns the penalised log-likelihood at b, its log-partition
    sum lse and a state; score(b, state) the flat penalised score and the
    probabilities that hessian(probs) forms the Newton matrix from.  After
    a full accepted step below 1e-2 the last matrix serves the next steps
    (chord steps) while each is at most a tenth of the step before it.  A
    step below irls_tol in every coordinate, tested before any line search,
    is taken in full and ends the fit as converged.  Any larger step is
    halved until the likelihood is finite and no lower than the current
    value less 64 eps times its magnitude plus lse; a search that rejects
    30 halvings ends the fit non-converged at its last accepted iterate.
    """
    cur, lse, state = pll(coef)
    chord_limit = 0.0
    it = 0
    for it in range(1, cfg.max_irls_iter + 1):
        grad, probs = score(coef, state)
        step = np.linalg.solve(H, grad) if chord_limit else None
        chord = step is not None and np.max(np.abs(step)) <= chord_limit
        if not chord:
            H = hessian(probs)
            step = np.linalg.solve(H, grad)
        size = np.max(np.abs(step))
        if size < cfg.irls_tol:
            return coef + step, True, it
        scale = 1.0
        for _ in range(30):
            cand = coef + scale * step
            new, new_lse, new_state = pll(cand)
            if np.isfinite(new) and new >= cur - 64 * np.finfo(float).eps * (abs(cur) + lse):
                break
            scale *= 0.5
        else:
            break       # failed search: keep the last accepted iterate
        coef, cur, lse, state = cand, new, new_lse, new_state
        chord_limit = size / 10.0 if scale == 1.0 and size < 1e-2 else 0.0
    return coef, False, it


def reference_pooled_pi_coef(F, Z, R, L, cfg):
    """The per-level response coefficients from one logistic fit over the
    (n, d L) block-diagonal design: a row of level z carries its basis
    features in columns z d to (z + 1) d - 1 and zeros elsewhere, and every
    coefficient is ridged, each level's intercept included.  The likelihood
    and the penalty split by level, so the optimum is that of the per-level
    fits with ridged intercepts.  Returns the (L, d) coefficients."""
    n, d = F.shape
    Fi = np.zeros((n, d * L), order="F")
    for z in range(L):
        r = np.flatnonzero(Z == z)
        Fi[r, z * d:(z + 1) * d] = F[r]
    res = fit_logistic(Fi, np.asarray(R, dtype=float), cfg, ridge_intercept=True)
    return res.coef.reshape(L, d)
