"""Synthetic data generators, the brute-force oracle, and the Monte Carlo harness.

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

Both selection exponents are additively separable into a (Z, X) part and
the U part _B U with _B = -1/4 (selection_alpha_z_* and selection_alpha_u),
but the raw exponent can be positive on part of the support, i.e. the
printed formula is not a probability there.  clamp_policy decides what the
generator does: "clamp_to_one_minus_eps" caps P(R=0) at 1 - 1e-9 and
reports the clamped fraction, "reject_invalid" redraws offending records,
"as_printed_error" raises on the first offender.

Each family is one _Law entry in _LAWS: U's law and its partial
exponential moment, the instrument probabilities, the selection exponent,
the parameters it reads and its design value.  The table generator and the
brute-force oracle (oracle_beta) read it, with the clamp (_selection_prob)
and the phase order, so the oracle is the truth of the generated law under
the chosen clamp policy; both are tested bit for bit against one unchunked
reference of the draws.  The closed forms in oracles read the same entry
and nothing else of a family (the identified value there is a quadrature
and draws nothing), so a new family is one more entry.

A batch's phases sit in the stream in a fixed order: X, U, the instrument
uniforms, the outcome noise, then the R = 0 uniforms.  That order, not the
order or sizes of the RNG calls, fixes the stream.  generate draws each
phase whole, in that order (_draw_table_batch).  The oracle draws in
batches of _ORACLE_BATCH raw draws (_oracle_batches), one pass of _CHUNK
rows at a time per batch, each batch into the same columns.  Philox is
counter-based, and each uniform phase takes one 64-bit word per draw, so X,
the instrument uniforms and the dual family's U are drawn chunk by chunk
from generators placed at their own counter positions (_placed).  The
single family's U and the outcome noise are ziggurat normals, whose word
counts are known only once drawn, so they are drawn whole, in order, from
the caller's generator; the R = 0 uniforms follow, chunk by chunk, and the
generator ends where drawing each phase in one call would leave it.  Y is
formed only at the R = 0 rows and packed over the noise column, so the
dual family's oracle holds one float64 column of a batch and the single
family's two (U and the noise).  The batch size fixes where each phase
starts, so it stays fixed.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Literal, Mapping

import numpy as np

from .data import EstimationConfig, FunctionalSpec, ObservationTable, evaluate_h
from .exceptions import ConfigurationError, EstimationError, FitError, _tally_messages
from .learners import LearnerConfig, expit

CLAMP_EPS = 1e-9
ClampPolicy = Literal["clamp_to_one_minus_eps", "reject_invalid", "as_printed_error"]

FAMILY_SINGLE = "single_binary_iv"
FAMILY_DUAL = "dual_binary_iv"

# domain tags for deterministic seed derivation
_DOMAIN_DATA = 1
_DOMAIN_ORACLE = 3

# the constants both families share
_B = -0.25          # U's coefficient in the selection exponent
_Y_DIV = 6.0        # the outcome mean is (X1 + X2) exp(U / _Y_DIV)
_U_MEAN = 4.0       # the single family's U ~ N(_U_MEAN, _U_SD^2)
_U_SD = 0.5


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
        allowed = _LAWS[self.family].parameters
        unknown = sorted(set(self.parameters) - set(allowed))
        if unknown:
            raise ConfigurationError(
                f"unknown simulation parameter {', '.join(map(repr, unknown))} for "
                f"{self.family}; it allows "
                f"{', '.join(map(repr, allowed)) if allowed else 'none'}")
        for name, value in self.parameters.items():
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")


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
# Each takes an optional out array for the result; the oracle's chunked pass
# passes its reused buffers there.  The in-place steps are the printed formula's
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


def selection_alpha_u(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """_B u = -u / 4, the U part of both families' exponents."""
    return np.multiply(u, _B, out=out)


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


def _outcome(X: np.ndarray, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Y = (X1 + X2) exp(U / 6) + 0.5 noise, noise a standard normal draw
    (overwritten): rng.normal(loc, 0.5) is loc + 0.5 * standard_normal."""
    y = np.divide(u, _Y_DIV)
    np.exp(y, out=y)
    y *= X[:, 0] + X[:, 1]
    noise *= 0.5
    y += noise
    return y


def _u_single(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """U ~ N(4, 0.5^2) into out, as rng.normal(4.0, 0.5) draws it."""
    u = rng.standard_normal(out=out)
    u *= _U_SD
    u += _U_MEAN
    return u


def _u_dual(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """U ~ U(0, 1) into out, as rng.uniform(0.0, 1.0) draws it."""
    return rng.random(out=out)


# --------------------------------------------------------------------------
# U's partial exponential moments (the closed forms in oracles)
# --------------------------------------------------------------------------

def normal_partial_exp(a: float, mean: float, sd: float,
                       lo: np.ndarray | float, hi: np.ndarray | float) -> np.ndarray:
    """E[e^{aU} 1{lo < U < hi}] for U ~ N(mean, sd^2)."""
    # imported here, not at module level, so that loading mivest does not
    # load scipy: only the single family's closed forms need the normal CDF
    from scipy.special import ndtr

    scale = np.exp(a * mean + 0.5 * a * a * sd * sd)
    shift = mean + a * sd * sd
    upper = ndtr((np.asarray(hi, dtype=float) - shift) / sd)
    lower = ndtr((np.asarray(lo, dtype=float) - shift) / sd)
    return scale * (upper - lower)


def uniform_partial_exp(a: float, lo: np.ndarray | float,
                        hi: np.ndarray | float) -> np.ndarray:
    """E[e^{aU} 1{lo < U < hi}] for U ~ U(0, 1); bounds are clipped."""
    lo_c = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
    hi_c = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
    hi_c = np.maximum(hi_c, lo_c)
    if a == 0.0:
        return hi_c - lo_c
    return (np.exp(a * hi_c) - np.exp(a * lo_c)) / a


# --------------------------------------------------------------------------
# the family table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Law:
    """One family: everything generate, the oracle and the closed forms in
    oracles read of it.  A new family is one more entry in _LAWS.

    Every family draws X ~ U(0, 1)^2 first, as row pairs.  draw_u(rng, out)
    then draws U; u_one_word says it takes one 64-bit word per draw (a
    uniform), so the oracle can draw it from a placed generator, and
    u_moment(a, lo, hi) is U's partial exponential moment E[e^{aU} 1{lo <
    U < hi}].  instrument_probs(X, out) give P(Z_k = 1 | X) for each binary
    instrument, drawn in this order; the level code reads the instruments
    as binary digits, the first most significant.  The selection exponent
    is alpha_z(zs, X, parameters, out) + _B U, and parameters names the
    keys of DGPSpec.parameters the family reads.  design_beta is the
    nominal target the family was designed around: clamping P(R = 0) at 1
    shifts the realized truth, so oracle_beta is authoritative and the
    design value serves only the flagged comparison in oracle reports.
    """

    draw_u: Callable[[np.random.Generator, np.ndarray], np.ndarray]
    u_one_word: bool
    u_moment: Callable[..., np.ndarray]
    instrument_probs: tuple[Callable[..., np.ndarray], ...]
    alpha_z: Callable[..., np.ndarray]
    design_beta: float
    parameters: tuple[str, ...] = ()


_LAWS: dict[str, _Law] = {
    FAMILY_SINGLE: _Law(
        draw_u=_u_single,
        u_one_word=False,
        u_moment=lambda a, lo, hi: normal_partial_exp(a, _U_MEAN, _U_SD, lo, hi),
        instrument_probs=(instrument_prob_single,),
        alpha_z=lambda zs, X, parameters, out: selection_alpha_z_single(*zs, X, out=out),
        design_beta=1.8,
    ),
    FAMILY_DUAL: _Law(
        draw_u=_u_dual,
        u_one_word=True,
        u_moment=uniform_partial_exp,
        instrument_probs=(lambda X, out: _instrument_prob_dual(X, 1, out),
                          lambda X, out: _instrument_prob_dual(X, 2, out)),
        alpha_z=lambda zs, X, parameters, out: selection_alpha_z_dual(*zs, X, parameters,
                                                                      out=out),
        design_beta=1.07,
        parameters=("selection_intercept",),
    ),
}
FAMILIES = tuple(_LAWS)
_LEVELS: dict[str, int] = {family: 2 ** len(law.instrument_probs)
                           for family, law in _LAWS.items()}

_MAX_REJECT_ROUNDS = 1000


def _level_code(zs: list[np.ndarray]) -> np.ndarray:
    code = zs[0].astype(np.int64)
    for z in zs[1:]:
        code *= 2
        code += z
    return code


def _selection_prob(
    law: _Law, zs: list[np.ndarray], X: np.ndarray, u: np.ndarray,
    clamp_policy: ClampPolicy, parameters: Mapping[str, float],
    out: np.ndarray | None = None, work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """P(R = 0 | Z, U, X) treated under the clamp policy, into out (work is
    overwritten), and the mask of the draws whose untreated value is above 1.

    as_printed_error names the first of those by its (Z, U, X1, X2);
    reject_invalid leaves the redraw to the caller.
    """
    p_r0 = law.alpha_z(zs, X, parameters, out)
    p_r0 += selection_alpha_u(u, work)
    np.exp(p_r0, out=p_r0)
    invalid = p_r0 > 1.0
    if clamp_policy == "as_printed_error":
        if invalid.any():
            i = int(np.flatnonzero(invalid)[0])
            bits = ", ".join(f"{c[i]:.6g}"
                             for c in (_level_code(zs), u, X[:, 0], X[:, 1]))
            raise GenerationError(
                f"P(R=0) = {p_r0[i]:.6g} > 1 at draw with (Z, U, X1, X2) = ({bits})"
            )
    elif clamp_policy == "clamp_to_one_minus_eps":
        np.minimum(p_r0, 1.0 - CLAMP_EPS, out=p_r0)
    return p_r0, invalid


def _draw_table_batch(
    family: str,
    m: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
) -> tuple[tuple[np.ndarray, ...], int]:
    """m latent draws for the table generator, each phase drawn whole, in
    stream order: X (as row pairs), U, each instrument's uniforms, the
    outcome noise.

    Returns (X, z, u, y, p_r0), z the level codes, without the draws
    reject_invalid drops, and the invalid count.
    """
    law = _LAWS[family]
    X = rng.random((m, 2))
    u = law.draw_u(rng, np.empty(m))
    zs = [np.less(rng.random(m), prob(X, None)) for prob in law.instrument_probs]
    y = _outcome(X, u, rng.standard_normal(m))
    p_r0, invalid = _selection_prob(law, zs, X, u, clamp_policy, parameters)
    cols = (X, _level_code(zs), u, y, p_r0)
    n_invalid = int(invalid.sum())
    if clamp_policy == "reject_invalid" and n_invalid:
        cols = tuple(c[~invalid] for c in cols)
    return cols, n_invalid


def generate(spec: DGPSpec, seed: int | np.random.SeedSequence | None = None
             ) -> tuple[ObservationTable, LatentRecord]:
    """Draw a table according to a DGPSpec (seed override for harness use)."""
    n = spec.n
    rng = _rng(spec.seed if seed is None else seed)
    got: list[tuple[np.ndarray, ...]] = []
    total_invalid = 0
    total_drawn = 0
    have = 0
    while have < n:
        if len(got) == _MAX_REJECT_ROUNDS:
            raise GenerationError(
                "reject_invalid could not find enough valid draws; the DGP's "
                "valid region is too small"
            )
        cols, n_invalid = _draw_table_batch(spec.family, n - have, rng,
                                            spec.clamp_policy, spec.parameters)
        total_drawn += n - have
        total_invalid += n_invalid
        got.append(cols)
        have += cols[3].shape[0]

    if len(got) == 1:  # every policy but reject_invalid fills the table at once
        X, z, u, y, p_r0 = got[0]
    else:
        X, z, u, y, p_r0 = (np.concatenate(c) for c in zip(*got))
    r = (rng.uniform(size=n) >= p_r0).astype(np.int64)  # R=0 with prob p_r0
    y_masked = np.where(r == 1, y, np.nan)
    table = ObservationTable.from_arrays(X, z, r, y_masked, L=_LEVELS[spec.family])
    latent = LatentRecord(
        u=u,
        y_full=y,
        p_r0=p_r0,
        clamp_fraction=total_invalid / total_drawn,
        n_rejected=total_invalid if spec.clamp_policy == "reject_invalid" else 0,
    )
    return table, latent


# --------------------------------------------------------------------------
# brute-force oracle
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

# Rows per chunk of an oracle batch's pass: a chunk's buffers and
# temporaries take about 1 MiB, so its formulas run in cache.
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


def _oracle_batches(
    family: str,
    draws: int,
    rng: np.random.Generator,
    clamp_policy: ClampPolicy,
    parameters: Mapping[str, float],
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Batches of at most _ORACLE_BATCH raw draws, draws in all, each in one
    pass over _CHUNK-row chunks.

    Yields (y0, accepted, n_invalid): the outcomes of the batch's R = 0
    rows, in row order; the batch's row count after the clamp policy; its
    invalid count.  y0 is a view of the noise column, which the caller may
    write over and which the next batch draws into, so the caller is done
    with it before asking for the next batch.

    The phases are those of _draw_table_batch, at the same stream
    positions.  X, the instrument uniforms and, when the law's U takes one
    word per draw, U are drawn by chunk from generators placed at their own
    counter positions.  A ziggurat U (the single family) and the outcome
    noise are drawn whole, in order, from rng; the R = 0 uniforms follow
    the noise, one per accepted row, drawn chunk by chunk.  Y is formed
    only at the R = 0 rows, and those outcomes are packed over the front of
    the noise column, whose rows there have been read.  So the oracle holds
    one float64 column of a batch, the noise, and on the single family a
    second, U; both are allocated once and serve every batch.  The batch
    size fixes where each phase starts, so changing it changes the draws.
    """
    law = _LAWS[family]
    n_z = len(law.instrument_probs)
    size = min(draws, _ORACLE_BATCH)
    noise_column = np.empty(size)
    u_column = None if law.u_one_word else np.empty(size)
    width = min(size, _CHUNK)
    x_rows = np.empty((width, 2))
    u_rows = np.empty(width)
    work = np.empty((2, width))
    z_bits = np.empty((n_z, width), dtype=bool)
    for start in range(0, draws, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, draws - start)
        x_rng = _placed(rng, 0)
        _skip(rng.bit_generator, 2 * m)
        if law.u_one_word:
            u_rng = _placed(rng, 0)
            _skip(rng.bit_generator, m)
        else:
            u = law.draw_u(rng, u_column[:m])
        z_rngs = [_placed(rng, k * m) for k in range(n_z)]
        _skip(rng.bit_generator, n_z * m)
        noise = rng.standard_normal(out=noise_column[:m])

        n0 = 0
        n_invalid = 0
        for a, b in _chunks(m):
            c = b - a
            Xc = x_rng.random(out=x_rows[:c])
            uc = law.draw_u(u_rng, u_rows[:c]) if law.u_one_word else u[a:b]
            zc = []
            for k, (z_rng, prob) in enumerate(zip(z_rngs, law.instrument_probs)):
                p = prob(Xc, work[0, :c])
                zc.append(np.less(z_rng.random(out=work[1, :c]), p, out=z_bits[k, :c]))
            pc, bad = _selection_prob(law, zc, Xc, uc, clamp_policy, parameters,
                                      out=work[0, :c], work=work[1, :c])
            c_bad = np.count_nonzero(bad)
            n_invalid += c_bad
            # the R = 0 rows as indices: take() gathers them faster than a mask
            if clamp_policy == "reject_invalid" and c_bad:
                kept = np.flatnonzero(~bad)
                r0 = rng.random(out=work[1, :kept.shape[0]]) < pc.take(kept)
                rows = kept.take(np.flatnonzero(r0))
            else:
                rows = np.flatnonzero(rng.random(out=work[1, :c]) < pc)
            y0 = _outcome(Xc.take(rows, axis=0), uc.take(rows), noise[a:b].take(rows))
            noise[n0:n0 + y0.shape[0]] = y0
            n0 += y0.shape[0]
        accepted = m - n_invalid if clamp_policy == "reject_invalid" else m
        yield noise[:n0], accepted, n_invalid


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
    for y0, n_accepted, n_invalid in _oracle_batches(
        spec.family, draws, _oracle_rng(spec, seed), spec.clamp_policy, spec.parameters,
    ):
        h = evaluate_h(functional, y0, out=y0)
        tot_n0 += h.shape[0]
        s1 += float(np.sum(h))
        s2 += float(np.sum(np.multiply(h, h, out=h)))
        invalid += n_invalid
        accepted += n_accepted
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


def _mc_replication(r, dgp, cfg, functional, est) -> dict:
    from .crossfit import crossfit_beta
    from .general import beta_id_general
    from .nuisance import fit_nuisance_set

    data_ss = np.random.SeedSequence(est.seed, spawn_key=(_DOMAIN_DATA, r))
    table, _ = generate(dgp, seed=data_ss)
    out: dict = {"r": r}
    # a replication whose nuisance fit degenerates counts as failed for
    # that estimator; it must not bring down the whole study
    try:
        ns = fit_nuisance_set(table, functional, cfg, mode=est.mode)
        out["id"] = beta_id_general(table, ns, trim=est.trim)
    except (EstimationError, FitError) as e:
        out["id_error"] = str(e)
    fold_seed = int(np.random.SeedSequence(
        est.seed, spawn_key=(_DOMAIN_FOLDSEED, r)
    ).generate_state(1)[0])
    try:
        rep = crossfit_beta(table, functional, cfg,
                            replace(est, seed=fold_seed))[0]
        out["if"] = (rep.estimate, rep.variance, *rep.ci)
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
    est: EstimationConfig = EstimationConfig(),
    *,
    threads: int = 1,
) -> MonteCarloReport:
    """Repeated draw-estimate cycles summarised against a known oracle.

    Each replication runs both estimators: "id", the plug-in on one
    in-sample nuisance fit in est's mode and trim policy, and "if", the
    missing report of crossfit_beta under est with the fold seed replaced.
    est.seed is the master seed: replication r draws its data from
    SeedSequence(est.seed, spawn_key=(1, r)) and its fold seed from an
    independently derived stream (dgp.seed is not read), so results are
    identical for any threads value and any scheduling.
    threads > 1 runs the replications in that many spawned processes, each
    with one BLAS thread.
    Failed replications are counted per estimator, not silently dropped.
    The warnings the replications raise are tallied into fit_warnings,
    first-seen in replication order, so they too are thread-independent.
    """
    if replications < 1:
        raise ConfigurationError("replications must be at least 1")
    payloads = [(r, dgp, cfg, functional, est) for r in range(replications)]
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
        master_seed=est.seed,
        n_folds=est.n_folds,
        repetitions=est.repetitions,
        ci_level=est.ci_level,
        summaries={"id": s_id, "if": s_if},
        fit_warnings=_tally_messages(m for d in rows for m in d["warnings"]),
    )
