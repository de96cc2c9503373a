"""Synthetic data generators, brute-force oracles, and the Monte Carlo harness.

Two built-in families:

single_binary_iv
    X1, X2 ~ U(0,1); U ~ N(4, 0.5^2); P(Z=1|X) = expit(-1 + X1 + X2);
    P(R=0|Z,U,X) = exp{(-X1 - X2 - U/4) + Z (X1 + X2 + 1)};
    Y ~ N((X1 + X2) exp(U/6), 0.5^2).

dual_binary_iv
    X1, X2, U ~ U(0,1); two conditionally independent binary instruments
    P(Z1=1|X) = expit((-1 + X1 + X2)/4), P(Z2=1|X) = expit((X1 - X2)/4),
    encoded as Z = 2 Z1 + Z2;
    P(R=0|Z,U,X) = exp{(c0 + X1 - X2 - U + Z1 (-1 - X1 - X2)
                        + Z2 (8 + X1 - X2)) / 4},  c0 = -8 by default;
    Y as above with the uniform U.

Both selection exponents are additively separable into a (Z, X) part and a
U part (exposed as selection_alpha_z / selection_alpha_u), but the raw
exponent can be positive on part of the support, i.e. the printed formula
is not a probability there.  clamp_policy decides what the generator does:
"clamp_to_one_minus_eps" caps P(R=0) at 1 - 1e-9 and reports the clamped
fraction, "reject_invalid" redraws offending records, "as_printed_error"
raises on the first offender.

The table generator and every brute-force oracle (oracle_beta,
oracle_missing_quantile here, oracle_identified_beta in oracles) draw
through one draw -> clamp -> reject step, _draw_batch, so each oracle is
the truth of the generated law under the chosen clamp policy.  The
instrument probabilities and the selection exponents are stated once,
here, and the closed forms in oracles reuse them.  The oracles draw in
fixed batches (_oracle_batches) and keep one batch alive at a time; the
batch size is part of the stream, so it stays fixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Mapping

import numpy as np

from .data import FunctionalSpec, ObservationTable, evaluate_h
from .exceptions import ConfigurationError, EstimationError, FitError, _tally_messages
from .learners import LearnerConfig, expit

CLAMP_EPS = 1e-9
ClampPolicy = Literal["clamp_to_one_minus_eps", "reject_invalid", "as_printed_error"]

FAMILY_SINGLE = "single_binary_iv"
FAMILY_DUAL = "dual_binary_iv"
FAMILIES = (FAMILY_SINGLE, FAMILY_DUAL)

# Nominal targets the families were designed around.  Clamping the selection
# probability at 1 shifts the realized truth, so oracle_beta is authoritative;
# these are kept only for the flagged comparison in reports.
FAMILY_DESIGN_BETA = {FAMILY_SINGLE: 1.8, FAMILY_DUAL: 1.07}

# domain tags for deterministic seed derivation
_DOMAIN_DATA = 1
_DOMAIN_ORACLE = 3

DUAL_LEVEL_MAP: dict[int, tuple[int, int]] = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}


@dataclass(frozen=True)
class DGPSpec:
    """Declarative description of a synthetic data draw."""

    family: str
    n: int
    seed: int
    clamp_policy: ClampPolicy = "clamp_to_one_minus_eps"
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown DGP family {self.family!r}")
        if self.n < 1:
            raise ConfigurationError("n must be positive")
        if self.clamp_policy not in (
            "clamp_to_one_minus_eps",
            "reject_invalid",
            "as_printed_error",
        ):
            raise ConfigurationError(f"unknown clamp policy {self.clamp_policy!r}")


@dataclass
class LatentRecord:
    """Latent quantities kept alongside a generated table for oracle checks."""

    u: np.ndarray
    y_full: np.ndarray
    p_r0: np.ndarray
    clamp_fraction: float
    n_rejected: int = 0


class GenerationError(EstimationError):
    """The generator could not produce a valid draw under the clamp policy."""


def _rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(ss))


# --------------------------------------------------------------------------
# selection exponents, kept additively separable on purpose
#
# Each takes an optional out array for the result; the draw step passes its
# reused buffers there.  The in-place steps are the printed formula's
# operations in its left-to-right order, so both forms give the same bits.
# --------------------------------------------------------------------------

def selection_alpha_z_single(
    z: np.ndarray, X: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """-s + z (s + 1) with s = X1 + X2."""
    s = np.add(X[:, 0], X[:, 1], out=out)
    t = s + 1.0
    t *= z
    return np.subtract(t, s, out=s)


def selection_alpha_u_single(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-u / 4."""
    a = np.negative(u, out=out)
    a /= 4.0
    return a


def dual_intercept(parameters: Mapping[str, float]) -> float:
    return float(parameters.get("selection_intercept", -8.0))


def selection_alpha_z_dual(
    z1: np.ndarray, z2: np.ndarray, X: np.ndarray, parameters: Mapping[str, float],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """0.25 (c0 + X1 - X2 + z1 (-1 - X1 - X2) + z2 (8 + X1 - X2))."""
    x1, x2 = X[:, 0], X[:, 1]
    a = np.add(dual_intercept(parameters), x1, out=out)
    a -= x2
    t = np.subtract(-1.0, x1)
    t -= x2
    t *= z1
    a += t
    np.add(8.0, x1, out=t)
    t -= x2
    t *= z2
    a += t
    a *= 0.25
    return a


selection_alpha_u_dual = selection_alpha_u_single  # the same -u / 4


def _apply_clamp(
    p_r0: np.ndarray, policy: ClampPolicy, context: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Treats p_r0 in place under the policy; returns the invalid mask.

    The mask marks the draws with p_r0 > 1 before treatment.
    """
    invalid = p_r0 > 1.0
    if policy == "as_printed_error":
        if invalid.any():
            i = int(np.flatnonzero(invalid)[0])
            bits = ", ".join(f"{np.asarray(c).reshape(-1)[i]:.6g}" for c in context)
            raise GenerationError(
                f"P(R=0) = {p_r0[i]:.6g} > 1 at draw with (Z, U, X1, X2) = ({bits})"
            )
    elif policy == "clamp_to_one_minus_eps":
        np.minimum(p_r0, 1.0 - CLAMP_EPS, out=p_r0)
    return invalid  # reject_invalid: caller redraws


# --------------------------------------------------------------------------
# latent draws (shared by the table generators and the oracles)
# --------------------------------------------------------------------------

def instrument_prob_single(X: np.ndarray) -> np.ndarray:
    """P(Z = 1 | X) in the single family."""
    return expit(-1.0 + X[:, 0] + X[:, 1])


def _instrument_prob_dual(
    X: np.ndarray, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """P(Z_k = 1 | X) in the dual family: expit((-1 + X1 + X2) / 4) for
    k = 1, expit((X1 - X2) / 4) for k = 2."""
    if k == 1:
        a = np.add(-1.0, X[:, 0], out=out)
        a += X[:, 1]
    else:
        a = np.subtract(X[:, 0], X[:, 1], out=out)
    a /= 4.0
    return expit(a, out=a)


def instrument_probs_dual(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(Z1 = 1 | X), P(Z2 = 1 | X)) in the dual family."""
    return _instrument_prob_dual(X, 1), _instrument_prob_dual(X, 2)


def _draw_outcome(X: np.ndarray, u: np.ndarray, rng: np.random.Generator,
                  w: np.ndarray) -> np.ndarray:
    """Y ~ N((X1 + X2) exp(U / 6), 0.5^2), the same draws as rng.normal.

    rng.normal(loc, 0.5) is loc + 0.5 * standard_normal; w is overwritten.
    """
    y = np.divide(u, 6.0)
    np.exp(y, out=y)
    y *= np.add(X[:, 0], X[:, 1], out=w)
    w = rng.standard_normal(out=w)
    w *= 0.5
    y += w
    return y


def _draw_single(
    m: int, rng: np.random.Generator, parameters: Mapping[str, float], w: np.ndarray
) -> dict[str, np.ndarray]:
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    u = rng.standard_normal(m)  # U ~ N(4, 0.5^2), as rng.normal(4.0, 0.5) draws it
    u *= 0.5
    u += 4.0
    p_r0 = instrument_prob_single(X)
    z = rng.random(out=w) < p_r0
    selection_alpha_z_single(z, X, out=p_r0)
    p_r0 += selection_alpha_u_single(u, out=w)
    np.exp(p_r0, out=p_r0)
    y = _draw_outcome(X, u, rng, w)
    return {"X": X, "z": z.astype(np.int64), "u": u, "p_r0": p_r0, "y": y}


def _draw_dual(
    m: int, rng: np.random.Generator, parameters: Mapping[str, float], w: np.ndarray
) -> dict[str, np.ndarray]:
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    u = rng.uniform(0.0, 1.0, size=m)
    p_r0 = _instrument_prob_dual(X, 1)
    z1 = rng.random(out=w) < p_r0
    z2 = rng.random(out=w) < _instrument_prob_dual(X, 2, out=p_r0)
    z = z1.astype(np.int64)
    z *= 2
    z += z2
    selection_alpha_z_dual(z1, z2, X, parameters, out=p_r0)
    p_r0 += selection_alpha_u_dual(u, out=w)
    np.exp(p_r0, out=p_r0)
    y = _draw_outcome(X, u, rng, w)
    return {"X": X, "z": z, "u": u, "p_r0": p_r0, "y": y}


_DRAWERS: dict[str, Callable[..., dict[str, np.ndarray]]] = {
    FAMILY_SINGLE: _draw_single,
    FAMILY_DUAL: _draw_dual,
}
_LEVELS: dict[str, int] = {FAMILY_SINGLE: 2, FAMILY_DUAL: 4}

_MAX_REJECT_ROUNDS = 1000


def _draw_batch(
    family: str,
    m: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
    scratch: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], int]:
    """m latent draws with the clamp policy applied: (batch, invalid count).

    batch holds X, z (the int64 level code), u, y and p_r0, the treated
    P(R = 0).  Under reject_invalid the batch keeps only the valid draws,
    so it may hold fewer than m rows.  scratch, m float64 values, is the
    one work buffer the derived columns are built in (the instrument
    uniforms, the exponent's U part, the outcome noise); its contents are
    left undefined.  Without it a buffer is allocated.
    """
    w = np.empty(m) if scratch is None else scratch
    batch = _DRAWERS[family](m, rng, parameters, w)
    invalid = _apply_clamp(
        batch["p_r0"], clamp_policy,
        (batch["z"], batch["u"], batch["X"][:, 0], batch["X"][:, 1]),
    )
    n_invalid = int(invalid.sum())
    if clamp_policy == "reject_invalid" and n_invalid:
        keep = ~invalid
        for k in batch:
            batch[k] = batch[k][keep]
    return batch, n_invalid


def _generate_family(
    family: str,
    n: int,
    seed: int | np.random.SeedSequence,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
) -> tuple[ObservationTable, LatentRecord]:
    rng = _rng(seed)
    got: list[dict[str, np.ndarray]] = []
    total_invalid = 0
    total_drawn = 0
    have = 0
    while have < n:
        if len(got) == _MAX_REJECT_ROUNDS:
            raise GenerationError(
                "reject_invalid could not find enough valid draws; the DGP's "
                "valid region is too small"
            )
        batch, n_invalid = _draw_batch(family, n - have, rng, clamp_policy, parameters)
        total_drawn += n - have
        total_invalid += n_invalid
        got.append(batch)
        have += batch["y"].shape[0]

    keys = ("X", "z", "u", "y", "p_r0")
    if len(got) == 1:  # every policy but reject_invalid fills the table at once
        X, z, u, y, p_r0 = (got[0][k] for k in keys)
    else:
        X, z, u, y, p_r0 = (np.concatenate([b[k] for b in got]) for k in keys)
    r = (rng.uniform(size=n) >= p_r0).astype(np.int64)  # R=0 with prob p_r0
    y_masked = np.where(r == 1, y, np.nan)
    table = ObservationTable.from_arrays(X, z, r, y_masked, L=_LEVELS[family])
    latent = LatentRecord(
        u=u,
        y_full=y,
        p_r0=p_r0,
        clamp_fraction=total_invalid / total_drawn,
        n_rejected=total_invalid if clamp_policy == "reject_invalid" else 0,
    )
    return table, latent


def generate(spec: DGPSpec, seed: int | np.random.SeedSequence | None = None
             ) -> tuple[ObservationTable, LatentRecord]:
    """Draw a table according to a DGPSpec (seed override for harness use)."""
    return _generate_family(
        spec.family,
        spec.n,
        spec.seed if seed is None else seed,
        spec.clamp_policy,
        spec.parameters,
    )


# --------------------------------------------------------------------------
# brute-force oracles
# --------------------------------------------------------------------------

@dataclass
class OracleResult:
    """Brute-force Monte Carlo truth with its own sampling error.

    p_missing is the R = 0 share of the accepted draws (under reject_invalid
    the rejected ones are not part of the data law); clamp_fraction is the
    invalid share of all raw draws, as in LatentRecord.
    """

    value: float
    mc_se: float
    draws: int
    n_missing: int
    p_missing: float
    clamp_fraction: float


_ORACLE_BATCH = 1_000_000


def _oracle_batches(
    family: str,
    draws: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
    columns: tuple[str, ...],
    batch_size: int = _ORACLE_BATCH,
) -> Iterator[tuple[tuple[np.ndarray, ...], int, int]]:
    """Batches of at most batch_size raw draws, draws in all, via _draw_batch.

    Yields (picked, accepted, n_invalid): the R = 0 rows of the named
    batch columns, in the order named; the batch's row count after the
    clamp policy; its invalid count.  Only one batch of draws is alive at
    a time: a batch is released before the next one is drawn, and the
    caller sees only the rows it reads.  batch_size fixes how the draws
    are cut into RNG calls, so changing it changes the stream.
    """
    scratch = np.empty(min(batch_size, draws))
    done = 0
    while done < draws:
        m = min(batch_size, draws - done)
        yield _missing_rows(family, m, rng, clamp_policy, parameters, columns,
                            scratch[:m])
        done += m


def _missing_rows(family, m, rng, clamp_policy, parameters, columns, scratch):
    """One batch of _oracle_batches; the batch dies when this returns."""
    batch, n_invalid = _draw_batch(family, m, rng, clamp_policy, parameters, scratch)
    p_r0 = batch["p_r0"]
    r0 = rng.random(out=scratch[:p_r0.shape[0]]) < p_r0
    return tuple(batch[k][r0] for k in columns), p_r0.shape[0], n_invalid


def _require_draws(draws: int) -> None:
    if draws < 1:
        raise ConfigurationError(f"oracle draws must be at least 1, got {draws}")


def _oracle_rng(spec: DGPSpec, seed: int | None) -> np.random.Generator:
    return _rng(np.random.SeedSequence(
        spec.seed if seed is None else seed, spawn_key=(_DOMAIN_ORACLE,)
    ))


def oracle_beta(
    spec: DGPSpec,
    draws: int = 10_000_000,
    seed: int | None = None,
    functional: FunctionalSpec | None = None,
) -> OracleResult:
    """E[h(Y; psi) | R = 0] by direct simulation of latent-complete records.

    Uses the generator's own clamp policy, so the value is the truth of the
    implemented data law, not of the raw printed formula.
    """
    _require_draws(draws)
    functional = functional or FunctionalSpec.mean()
    tot_n0 = 0
    s1 = 0.0
    s2 = 0.0
    invalid = 0
    accepted = 0
    for (y0,), n_accepted, n_invalid in _oracle_batches(
        spec.family, draws, _oracle_rng(spec, seed), spec.clamp_policy, spec.parameters,
        ("y",),
    ):
        h = evaluate_h(functional, y0)
        tot_n0 += y0.shape[0]
        s1 += float(np.sum(h))
        s2 += float(np.sum(h * h))
        invalid += n_invalid
        accepted += n_accepted
        del y0, h  # released before the next batch is drawn
    if tot_n0 == 0:
        raise EstimationError("oracle saw no R = 0 draws")
    mean = s1 / tot_n0
    var = max(s2 / tot_n0 - mean * mean, 0.0)
    return OracleResult(
        value=mean,
        mc_se=float(np.sqrt(var / tot_n0)),
        draws=draws,
        n_missing=tot_n0,
        p_missing=tot_n0 / accepted,
        clamp_fraction=invalid / draws,
    )


def oracle_missing_quantile(
    spec: DGPSpec,
    q: float,
    draws: int = 10_000_000,
    seed: int | None = None,
) -> float:
    """psi with P(Y >= psi | R = 0) = q, by brute-force draw."""
    _require_draws(draws)
    y0 = np.concatenate([
        y for (y,), _, _ in _oracle_batches(
            spec.family, draws, _oracle_rng(spec, seed), spec.clamp_policy,
            spec.parameters, ("y",),
        )
    ])
    return float(np.quantile(y0, 1.0 - q))


# --------------------------------------------------------------------------
# Monte Carlo harness
# --------------------------------------------------------------------------

_DOMAIN_FOLDSEED = 4


@dataclass
class EstimatorSummary:
    """Replication summary for one estimator against the oracle value."""

    name: str
    n_success: int
    n_failed: int
    mean: float
    bias: float
    variance: float            # ddof = 0, so mse == bias^2 + variance
    mse: float
    coverage: float | None = None
    mean_if_variance: float | None = None
    estimates: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "n_success": self.n_success,
            "n_failed": self.n_failed,
            "mean": self.mean,
            "bias": self.bias,
            "variance": self.variance,
            "mse": self.mse,
        }
        if self.coverage is not None:
            d["coverage"] = self.coverage
        if self.mean_if_variance is not None:
            d["mean_if_variance"] = self.mean_if_variance
        return d


@dataclass
class MonteCarloReport:
    family: str
    n: int
    replications: int
    oracle: float
    master_seed: int
    n_folds: int
    repetitions: int
    ci_level: float
    summaries: dict[str, EstimatorSummary]
    # warnings raised inside the replications, tallied as estimate does
    fit_warnings: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "replications": self.replications,
            "oracle": self.oracle,
            "master_seed": self.master_seed,
            "n_folds": self.n_folds,
            "repetitions": self.repetitions,
            "ci_level": self.ci_level,
            "estimators": {k: v.as_dict() for k, v in sorted(self.summaries.items())},
        }
        # left out when empty, so warning-free reports keep their bytes
        if self.fit_warnings:
            out["fit_warnings"] = self.fit_warnings
        return out


def _mc_worker(payload: tuple) -> dict:
    """One replication; module level so process pools can pickle it.

    The warnings the replication raises come back, in the order raised,
    as the messages under "warnings".
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _mc_replication(*payload)
    out["warnings"] = [str(w.message) for w in caught]
    return out


def _mc_replication(r, dgp, cfg, functional, n_folds, repetitions, ci_level,
                    estimators, mode, trim, winsorize, master_seed) -> dict:
    from .crossfit import crossfit_beta
    from .general import beta_id_general
    from .nuisance import fit_nuisance_set

    data_ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_DATA, r))
    table, _ = generate(dgp, seed=data_ss)
    out: dict = {"r": r}
    # a replication whose nuisance fit degenerates counts as failed for
    # that estimator; it must not bring down the whole study
    if "id" in estimators:
        try:
            ns = fit_nuisance_set(table, functional, cfg, mode=mode)
            out["id"] = beta_id_general(table, ns, trim=trim)
        except (EstimationError, FitError) as e:
            out["id_error"] = str(e)
    if "if" in estimators:
        fold_seed = int(np.random.SeedSequence(
            master_seed, spawn_key=(_DOMAIN_FOLDSEED, r)
        ).generate_state(1)[0])
        try:
            rep = crossfit_beta(
                table, functional, cfg,
                n_folds=n_folds, repetitions=repetitions, seed=fold_seed,
                ci_level=ci_level, mode=mode, trim=trim, winsorize=winsorize,
            )[0]
            out["if"] = (rep.estimate, rep.variance, rep.ci_lower, rep.ci_upper)
        except (EstimationError, FitError) as e:
            out["if_error"] = str(e)
    return out


def _summarise(name: str, values: list[float], oracle: float) -> EstimatorSummary:
    if not values:
        return EstimatorSummary(
            name=name, n_success=0, n_failed=0, mean=float("nan"),
            bias=float("nan"), variance=float("nan"), mse=float("nan"),
        )
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    return EstimatorSummary(
        name=name,
        n_success=arr.size,
        n_failed=0,
        mean=mean,
        bias=mean - oracle,
        variance=float(np.var(arr, ddof=0)),
        mse=float(np.mean((arr - oracle) ** 2)),
        estimates=[float(v) for v in arr],
    )


def run_monte_carlo(
    dgp: DGPSpec,
    replications: int,
    cfg: LearnerConfig,
    functional: FunctionalSpec,
    oracle: float,
    *,
    n_folds: int = 5,
    repetitions: int = 1,
    ci_level: float = 0.95,
    estimators: tuple[str, ...] = ("id", "if"),
    mode: str = "marginalize",
    trim: str = "floor",
    winsorize: float | None = None,
    threads: int = 1,
    master_seed: int | None = None,
) -> MonteCarloReport:
    """Repeated draw-estimate cycles summarised against a known oracle.

    Each replication runs the estimators named in `estimators`: "id", the
    plug-in on one in-sample nuisance fit, and "if", the missing report of
    crossfit_beta with n_folds, repetitions, ci_level, mode, trim and
    winsorize.  Replication r draws its data from SeedSequence(master_seed,
    spawn_key=(1, r)) and its folds from an independently derived stream,
    so results are identical for any threads value and any scheduling.
    Failed replications are counted per estimator, not silently dropped.
    The warnings the replications raise are tallied into fit_warnings,
    first-seen in replication order, so they too are thread-independent.
    """
    if replications < 1:
        raise ConfigurationError("replications must be at least 1")
    master = dgp.seed if master_seed is None else master_seed
    payloads = [
        (r, dgp, cfg, functional, n_folds, repetitions, ci_level,
         tuple(estimators), mode, trim, winsorize, master)
        for r in range(replications)
    ]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_mc_worker, payloads, chunksize=8))
    else:
        rows = [_mc_worker(p) for p in payloads]
    rows.sort(key=lambda d: d["r"])

    summaries: dict[str, EstimatorSummary] = {}
    if "id" in estimators:
        vals = [d["id"] for d in rows if "id" in d]
        s = _summarise("id", vals, oracle)
        s.n_failed = sum(1 for d in rows if "id_error" in d)
        summaries["id"] = s
    if "if" in estimators:
        tuples = [d["if"] for d in rows if "if" in d]
        vals = [t[0] for t in tuples]
        s = _summarise("if", vals, oracle)
        s.n_failed = sum(1 for d in rows if "if_error" in d)
        if tuples:
            s.mean_if_variance = float(np.mean([t[1] for t in tuples]))
            s.coverage = float(np.mean([
                1.0 if (t[2] <= oracle <= t[3]) else 0.0 for t in tuples
            ]))
        summaries["if"] = s
    return MonteCarloReport(
        family=dgp.family,
        n=dgp.n,
        replications=replications,
        oracle=oracle,
        master_seed=master,
        n_folds=n_folds,
        repetitions=repetitions,
        ci_level=ci_level,
        summaries=summaries,
        fit_warnings=_tally_messages(m for d in rows for m in d["warnings"]),
    )
