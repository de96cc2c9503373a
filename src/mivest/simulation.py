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

The table generator and both brute-force oracles (oracle_beta and
oracle_missing_quantile) draw through one draw -> clamp -> reject step,
_draw_batch, so each oracle is the truth of the generated law under the
chosen clamp policy.  The instrument probabilities and the selection
exponents are stated once, here, and the closed forms in oracles reuse
them (the identified value there is a quadrature and draws nothing).

A batch's phases sit in the stream in a fixed order: X, U, the instrument
uniforms, the outcome noise, then the R = 0 uniforms.  That order, not the
order or sizes of the RNG calls, fixes the stream.  Philox is counter-based,
and each uniform phase takes one 64-bit word per draw, so a uniform phase
of known start is drawn from a generator placed at its own counter position
(_placed), chunk by chunk, beside the other phases.  U is drawn whole
first: on the single family it is a ziggurat normal, whose word count is
known only once it is drawn, and the instrument phases start after it.
The outcome noise, a ziggurat normal too, and the R = 0 uniforms after it
are drawn in order from the caller's generator, which ends where drawing
each phase in one call would leave it.  The step works through _CHUNK rows
at a time, in cache, and an oracle batch keeps two float64 columns:
P(R = 0), written over U, and Y.  The oracles draw in batches of
_ORACLE_BATCH raw draws (_oracle_batches) and keep one batch alive at a
time; the batch size fixes where each phase starts, so it stays fixed.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Mapping

import numpy as np

from .data import FunctionalSpec, ObservationTable, _linear_quantiles, evaluate_h
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

# the keys of DGPSpec.parameters each family reads; any other is refused
FAMILY_PARAMETERS: dict[str, tuple[str, ...]] = {
    FAMILY_SINGLE: (),
    FAMILY_DUAL: ("selection_intercept",),
}


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
        allowed = FAMILY_PARAMETERS[self.family]
        unknown = sorted(set(self.parameters) - set(allowed))
        if unknown:
            raise ConfigurationError(
                f"unknown simulation parameter {', '.join(map(repr, unknown))} for "
                f"{self.family}; it allows "
                f"{', '.join(map(repr, allowed)) if allowed else 'none'}")


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
    p_r0: np.ndarray, policy: ClampPolicy,
    context: Callable[[], tuple[np.ndarray, ...]],
) -> np.ndarray:
    """Treats p_r0 in place under the policy; returns the invalid mask.

    The mask marks the draws with p_r0 > 1 before treatment.  context()
    gives the (Z, U, X1, X2) columns of those draws, read only to name the
    first offender under as_printed_error.
    """
    invalid = p_r0 > 1.0
    if policy == "as_printed_error":
        if invalid.any():
            i = int(np.flatnonzero(invalid)[0])
            bits = ", ".join(f"{np.asarray(c).reshape(-1)[i]:.6g}" for c in context())
            raise GenerationError(
                f"P(R=0) = {p_r0[i]:.6g} > 1 at draw with (Z, U, X1, X2) = ({bits})"
            )
    elif policy == "clamp_to_one_minus_eps":
        np.minimum(p_r0, 1.0 - CLAMP_EPS, out=p_r0)
    return invalid  # reject_invalid: caller redraws


# --------------------------------------------------------------------------
# latent draws (shared by the table generators and the oracles)
# --------------------------------------------------------------------------

def instrument_prob_single(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P(Z = 1 | X) in the single family: expit(-1 + X1 + X2)."""
    a = np.add(-1.0, X[:, 0], out=out)
    a += X[:, 1]
    return expit(a, out=a)


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
                  out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y ~ N((X1 + X2) exp(U / 6), 0.5^2) into out, the same draws as rng.normal.

    rng.normal(loc, 0.5) is loc + 0.5 * standard_normal; w is overwritten.
    """
    y = np.divide(u, 6.0, out=out)
    np.exp(y, out=y)
    y *= np.add(X[:, 0], X[:, 1], out=w)
    w = rng.standard_normal(out=w)
    w *= 0.5
    y += w
    return y


def _u_single(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """U ~ N(4, 0.5^2) into out, as rng.normal(4.0, 0.5) draws it."""
    u = rng.standard_normal(out=out)
    u *= 0.5
    u += 4.0
    return u


def _u_dual(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """U ~ U(0, 1) into out, as rng.uniform(0.0, 1.0) draws it."""
    return rng.random(out=out)


@dataclass(frozen=True)
class _Law:
    """What the draw step reads of one family, in the family's draw order.

    Both families draw X ~ U(0, 1)^2 first, as row pairs.  draw_u(rng, out)
    then draws U; instrument_probs give P(Z_k = 1 | X) for each binary
    instrument, drawn in this order; alpha_z(zs, X, parameters, out) and
    alpha_u(u, out) are the selection exponent's two parts.  The level code
    reads the instruments as binary digits, the first most significant.
    """

    draw_u: Callable[[np.random.Generator, np.ndarray], np.ndarray]
    instrument_probs: tuple[Callable[..., np.ndarray], ...]
    alpha_z: Callable[..., np.ndarray]
    alpha_u: Callable[..., np.ndarray]


_LAWS: dict[str, _Law] = {
    FAMILY_SINGLE: _Law(
        _u_single, (instrument_prob_single,),
        lambda zs, X, parameters, out: selection_alpha_z_single(*zs, X, out=out),
        selection_alpha_u_single,
    ),
    FAMILY_DUAL: _Law(
        _u_dual,
        (lambda X, out: _instrument_prob_dual(X, 1, out),
         lambda X, out: _instrument_prob_dual(X, 2, out)),
        lambda zs, X, parameters, out: selection_alpha_z_dual(*zs, X, parameters, out=out),
        selection_alpha_u_dual,
    ),
}
_LEVELS: dict[str, int] = {family: 2 ** len(law.instrument_probs)
                           for family, law in _LAWS.items()}

_MAX_REJECT_ROUNDS = 1000

# Rows per chunk of the draw step's streamed phases: the work buffer holds
# three float64 chunks, 384 KiB, so a chunk's formulas run in cache.
_CHUNK = 1 << 14

# 64-bit words per Philox-4x64 counter block
_PHILOX_BLOCK = 4


def _skip(bit_generator: np.random.Philox, words: int) -> None:
    """Moves a Philox bit generator `words` 64-bit words ahead, to where it
    would be after drawing them.

    advance(k) adds k to the counter and drops the rest of the current
    block, so the words left in that block are skipped first, then whole
    blocks, and the remainder is drawn.
    """
    left = _PHILOX_BLOCK - bit_generator.state["buffer_pos"]
    if words > left:
        words -= left
        bit_generator.advance(words // _PHILOX_BLOCK)
        words %= _PHILOX_BLOCK
    bit_generator.random_raw(words, output=False)


def _placed(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A new generator whose stream starts `words` 64-bit words past rng's
    current position; rng does not move."""
    bit_generator = np.random.Philox(0)
    bit_generator.state = rng.bit_generator.state
    _skip(bit_generator, words)
    return np.random.Generator(bit_generator)


def _chunks(m: int) -> Iterator[tuple[int, int]]:
    for a in range(0, m, _CHUNK):
        yield a, min(a + _CHUNK, m)


def _level_code(zs: list[np.ndarray]) -> np.ndarray:
    code = zs[0].astype(np.int64)
    for z in zs[1:]:
        code *= 2
        code += z
    return code


def _work_buffer(m: int) -> np.ndarray:
    return np.empty((3, min(m, _CHUNK)))


@dataclass
class _Batch:
    """One pass of _draw_batch.  y and p_r0 hold all m raw draws; invalid
    marks the draws reject_invalid drops (None under the other policies).
    X and z (the level codes) are kept only for the table generator (None
    in the oracles, where p_r0 is u's array, written over)."""

    X: np.ndarray | None
    z: np.ndarray | None
    u: np.ndarray
    y: np.ndarray
    p_r0: np.ndarray
    invalid: np.ndarray | None
    n_invalid: int


def _draw_batch(
    family: str,
    m: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
    work: np.ndarray,
    keep: bool,
) -> _Batch:
    """m latent draws with the clamp policy applied, streamed through work.

    The phases sit in the stream in a fixed order: X (2 m words), U, each
    instrument's uniforms (m words each), the outcome noise.  Each uniform
    phase takes one 64-bit word per draw, so it is drawn from a generator
    placed at its own counter position (_placed), _CHUNK rows at a time,
    beside the other phases.  U is drawn whole, first: on the single family
    it is a ziggurat normal, whose word count is known only once it is
    drawn, and the instrument phases start after it.  The outcome noise,
    also a ziggurat normal, is drawn from rng itself, in order, a chunk at
    a time, so rng ends where the noise ends, as if each phase had been
    drawn in one call in turn.  Each chunk's formulas run in cache, in
    work, a _work_buffer.

    keep (the table generator) returns X, the level codes, U, Y and
    P(R = 0), each in its own array.  Otherwise (the oracles) the batch
    holds two float64 columns: P(R = 0) is written over U, chunk by chunk,
    and Y has a column of its own.
    """
    law = _LAWS[family]
    x_rng = _placed(rng, 0)
    _skip(rng.bit_generator, 2 * m)
    u = law.draw_u(rng, np.empty(m))
    z_rngs = [_placed(rng, k * m) for k in range(len(law.instrument_probs))]
    _skip(rng.bit_generator, len(z_rngs) * m)

    X, z = (np.empty((m, 2)), np.empty(m, dtype=np.int64)) if keep else (None, None)
    y = np.empty(m)
    p_r0 = np.empty(m) if keep else u
    invalid = np.empty(m, dtype=bool) if clamp_policy == "reject_invalid" else None
    x_rows = None if keep else np.empty((min(m, _CHUNK), 2))
    z_bits = np.empty((len(z_rngs), min(m, _CHUNK)), dtype=bool)
    n_invalid = 0
    for a, b in _chunks(m):
        c = b - a
        Xc = x_rng.random(out=X[a:b] if keep else x_rows[:c])
        uc = u[a:b]
        zc = []
        for k, (z_rng, prob) in enumerate(zip(z_rngs, law.instrument_probs)):
            p = prob(Xc, out=work[0, :c])
            zc.append(np.less(z_rng.random(out=work[1, :c]), p, out=z_bits[k, :c]))
        if keep:
            z[a:b] = _level_code(zc)
        yc = _draw_outcome(Xc, uc, rng, work[0, :c], work[1, :c])
        pc = law.alpha_z(zc, Xc, parameters, out=work[1, :c])
        pc += law.alpha_u(uc, out=work[2, :c])
        np.exp(pc, out=pc)
        bad = _apply_clamp(pc, clamp_policy,
                           lambda: (_level_code(zc), uc, Xc[:, 0], Xc[:, 1]))
        n_invalid += int(bad.sum())
        if invalid is not None:
            invalid[a:b] = bad
        y[a:b] = yc
        p_r0[a:b] = pc
    return _Batch(X, z, u, y, p_r0, invalid, n_invalid)


def _generate_family(
    family: str,
    n: int,
    seed: int | np.random.SeedSequence,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
) -> tuple[ObservationTable, LatentRecord]:
    rng = _rng(seed)
    work = _work_buffer(n)
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
        batch = _draw_batch(family, n - have, rng, clamp_policy, parameters, work,
                            keep=True)
        cols = {"X": batch.X, "z": batch.z, "u": batch.u, "y": batch.y,
                "p_r0": batch.p_r0}
        if batch.invalid is not None and batch.n_invalid:
            keep = ~batch.invalid
            cols = {k: v[keep] for k, v in cols.items()}
        total_drawn += n - have
        total_invalid += batch.n_invalid
        got.append(cols)
        have += cols["y"].shape[0]

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


# Raw draws per oracle batch.  Each batch draws its phases in order, so the
# batch size sets where each phase starts in the stream and changing it
# changes the draws; cutting a phase into chunks within a batch does not.
_ORACLE_BATCH = 1_000_000


def _oracle_batches(
    family: str,
    draws: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
) -> Iterator[tuple[np.ndarray, np.ndarray, int, int]]:
    """Batches of at most _ORACLE_BATCH raw draws, draws in all, via _draw_batch.

    Yields (y0, free, accepted, n_invalid): the outcomes of the batch's
    R = 0 rows, in row order; the batch's outcome column, which nothing
    reads any more and the caller may write over; the batch's row count
    after the clamp policy; its invalid count.  Only one batch of draws is
    alive at a time: a batch is released before the next one is drawn, and
    the caller sees only those two columns.  The batch size fixes where
    each phase of the stream starts, so changing it changes the draws.
    """
    work = _work_buffer(draws)
    done = 0
    while done < draws:
        m = min(_ORACLE_BATCH, draws - done)
        yield _missing_rows(family, m, rng, clamp_policy, parameters, work)
        done += m


def _missing_rows(family, m, rng, clamp_policy, parameters, work):
    """One batch of _oracle_batches: its two columns and its counts.

    The R = 0 uniforms are the batch's last phase, drawn from rng, where
    the outcome noise ended, for the accepted rows in chunks.  The chosen
    outcomes are packed into the front of the P(R = 0) column, over rows
    whose P(R = 0) has been read, so y0 is a view of that column.
    """
    batch = _draw_batch(family, m, rng, clamp_policy, parameters, work, keep=False)
    y, p_r0, invalid = batch.y, batch.p_r0, batch.invalid
    n0 = 0
    for a, b in _chunks(m):
        yc, pc = y[a:b], p_r0[a:b]
        if invalid is not None:
            keep = ~invalid[a:b]
            yc, pc = yc[keep], pc[keep]
        y0 = yc[rng.random(out=work[0, :pc.shape[0]]) < pc]
        p_r0[n0:n0 + y0.shape[0]] = y0
        n0 += y0.shape[0]
    accepted = m if invalid is None else m - batch.n_invalid
    return p_r0[:n0], y, accepted, batch.n_invalid


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
    for y0, free, n_accepted, n_invalid in _oracle_batches(
        spec.family, draws, _oracle_rng(spec, seed), spec.clamp_policy, spec.parameters,
    ):
        n0 = y0.shape[0]
        h = evaluate_h(functional, y0, out=free[:n0])
        tot_n0 += n0
        s1 += float(np.sum(h))
        s2 += float(np.sum(np.multiply(h, h, out=y0)))     # y0 is read no more
        invalid += n_invalid
        accepted += n_accepted
        del y0, free, h  # released before the next batch is drawn
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
    y0 = np.concatenate([  # copies, so no batch's column outlives it
        y.copy() for y, _, _, _ in _oracle_batches(
            spec.family, draws, _oracle_rng(spec, seed), spec.clamp_policy,
            spec.parameters,
        )
    ])
    return float(_linear_quantiles(y0, (1.0 - q,))[0])     # np.quantile(y0, 1 - q)


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


# BLAS reads its thread count from these when it loads.  A pool worker gets
# one thread: the workers already share the cores, and workers that each ran
# BLAS's own threads were slower than one process.
_WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


@contextmanager
def _worker_blas_env() -> Iterator[None]:
    """Sets _WORKER_BLAS_ENV for the processes started inside, then restores
    the environment.  This process's BLAS is loaded already and keeps its
    threads."""
    saved = {k: os.environ.get(k) for k in _WORKER_BLAS_ENV}
    os.environ.update(_WORKER_BLAS_ENV)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _pool_chunksize(replications: int, threads: int) -> int:
    """Replications per task of a pool of `threads` workers: as many as
    keeps every worker busy when replications >= threads, since a worker
    takes a whole task at a time."""
    return max(1, replications // threads)


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
                    mode, trim, winsorize, master_seed) -> dict:
    from .crossfit import crossfit_beta
    from .general import beta_id_general
    from .nuisance import fit_nuisance_set

    data_ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_DATA, r))
    table, _ = generate(dgp, seed=data_ss)
    out: dict = {"r": r}
    # a replication whose nuisance fit degenerates counts as failed for
    # that estimator; it must not bring down the whole study
    try:
        ns = fit_nuisance_set(table, functional, cfg, mode=mode)
        out["id"] = beta_id_general(table, ns, trim=trim)
    except (EstimationError, FitError) as e:
        out["id_error"] = str(e)
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
    mode: str = "marginalize",
    trim: str = "floor",
    winsorize: float | None = None,
    threads: int = 1,
    master_seed: int | None = None,
) -> MonteCarloReport:
    """Repeated draw-estimate cycles summarised against a known oracle.

    Each replication runs both estimators: "id", the plug-in on one
    in-sample nuisance fit, and "if", the missing report of crossfit_beta
    with n_folds, repetitions, ci_level, mode, trim and winsorize.
    Replication r draws its data from SeedSequence(master_seed,
    spawn_key=(1, r)) and its folds from an independently derived stream,
    so results are identical for any threads value and any scheduling.
    threads > 1 runs the replications in that many spawned processes, each
    with one BLAS thread.
    Failed replications are counted per estimator, not silently dropped.
    The warnings the replications raise are tallied into fit_warnings,
    first-seen in replication order, so they too are thread-independent.
    """
    if replications < 1:
        raise ConfigurationError("replications must be at least 1")
    master = dgp.seed if master_seed is None else master_seed
    payloads = [
        (r, dgp, cfg, functional, n_folds, repetitions, ci_level,
         mode, trim, winsorize, master)
        for r in range(replications)
    ]
    if threads > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked, workers load BLAS afresh under the pinned env
        with _worker_blas_env(), ProcessPoolExecutor(
                max_workers=min(threads, replications),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(_mc_worker, payloads,
                                 chunksize=_pool_chunksize(replications, threads)))
    else:
        rows = [_mc_worker(p) for p in payloads]
    rows.sort(key=lambda d: d["r"])

    s_id = _summarise("id", [d["id"] for d in rows if "id" in d], oracle)
    s_id.n_failed = sum(1 for d in rows if "id_error" in d)
    tuples = [d["if"] for d in rows if "if" in d]
    s_if = _summarise("if", [t[0] for t in tuples], oracle)
    s_if.n_failed = sum(1 for d in rows if "if_error" in d)
    if tuples:
        s_if.mean_if_variance = float(np.mean([t[1] for t in tuples]))
        s_if.coverage = float(np.mean([
            1.0 if (t[2] <= oracle <= t[3]) else 0.0 for t in tuples
        ]))
    return MonteCarloReport(
        family=dgp.family,
        n=dgp.n,
        replications=replications,
        oracle=oracle,
        master_seed=master,
        n_folds=n_folds,
        repetitions=repetitions,
        ci_level=ci_level,
        summaries={"id": s_id, "if": s_if},
        fit_warnings=_tally_messages(m for d in rows for m in d["warnings"]),
    )
