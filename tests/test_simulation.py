"""Data generators, brute-force oracles, and the replication harness."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.corruption import run_robustness
from mivest.data import EstimationConfig, FunctionalSpec
from mivest.exceptions import ConfigurationError, EstimationError
from mivest.learners import LearnerConfig
from mivest.simulation import (_CHUNK, _ORACLE_BATCH, DGPSpec, GenerationError,
                               _placed, _pool_chunksize, _skip, generate, oracle_beta,
                               run_monte_carlo, selection_alpha_u, selection_alpha_z_single)

from helpers import reference_generate, reference_missing_outcomes

CFG = LearnerConfig()
MEAN = FunctionalSpec.mean()

# long-run missingness rates implied by the two designs, from closed-form
# integration of the clamped selection probability over (Z, U, X)
P_MISS_SINGLE = 0.556847
P_MISS_DUAL = 0.403005


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        DGPSpec(family="nope", n=10, seed=0)
    with pytest.raises(ConfigurationError):
        DGPSpec(family="single_binary_iv", n=0, seed=0)
    with pytest.raises(ConfigurationError):
        DGPSpec(family="single_binary_iv", n=10, seed=0,
                clamp_policy="wat")


def test_spec_refuses_parameters_the_family_does_not_read():
    DGPSpec(family="dual_binary_iv", n=10, seed=0,
            parameters={"selection_intercept": -6.0})
    with pytest.raises(ConfigurationError,
                       match="unknown simulation parameter 'selection_intercept' "
                             "for single_binary_iv; it allows none$"):
        DGPSpec(family="single_binary_iv", n=10, seed=0,
                parameters={"selection_intercept": -6.0})
    with pytest.raises(ConfigurationError,
                       match="unknown simulation parameter 'c0', 'slope' for "
                             "dual_binary_iv; it allows 'selection_intercept'$"):
        DGPSpec(family="dual_binary_iv", n=10, seed=0,
                parameters={"slope": 1.0, "c0": -8.0, "selection_intercept": -8.0})
    with pytest.raises(ConfigurationError, match="unknown simulation parameter 'c0'"):
        run_robustness("dual_binary_iv", n=100, parameters={"c0": -8.0})


def test_generate_is_deterministic():
    for family in ("single_binary_iv", "dual_binary_iv"):
        spec = DGPSpec(family=family, n=500, seed=99)
        t1, lat1 = generate(spec)
        t2, lat2 = generate(spec)
        assert np.array_equal(t1.X, t2.X)
        assert np.array_equal(t1.Z, t2.Z)
        assert np.array_equal(t1.R, t2.R)
        assert np.array_equal(t1.Y, t2.Y, equal_nan=True)
        assert np.array_equal(lat1.y_full, lat2.y_full)


def test_missing_rates_match_design():
    t, _ = generate(DGPSpec(family="single_binary_iv", n=400_000, seed=3))
    assert np.mean(t.R == 0) == pytest.approx(P_MISS_SINGLE, abs=0.004)
    td, _ = generate(DGPSpec(family="dual_binary_iv", n=400_000, seed=3))
    assert np.mean(td.R == 0) == pytest.approx(P_MISS_DUAL, abs=0.004)


def test_latent_outcome_level():
    _, lat = generate(DGPSpec(family="single_binary_iv", n=400_000, seed=7))
    # E (X1 + X2) exp(U/6) with U ~ N(4, 0.5 ** 2)
    target = np.exp(4.0 / 6.0 + 0.25 / 72.0)
    assert np.mean(lat.y_full) == pytest.approx(target, abs=0.01)


def test_clamp_policy_caps_probability():
    _, lat = generate(DGPSpec(family="single_binary_iv", n=200_000, seed=1))
    assert lat.p_r0.max() <= 1.0 - 1e-9 + 1e-15
    assert lat.clamp_fraction == pytest.approx(0.25, abs=0.01)
    _, latd = generate(DGPSpec(family="dual_binary_iv", n=200_000, seed=1))
    assert latd.clamp_fraction == pytest.approx(0.077, abs=0.01)


def test_reject_invalid_policy_redraws():
    spec = DGPSpec(family="single_binary_iv", n=5_000, seed=12,
                   clamp_policy="reject_invalid")
    t, lat = generate(spec)
    assert t.n == 5_000
    assert lat.p_r0.max() < 1.0
    assert lat.n_rejected > 0
    # the record keeps the invalid-draw rate seen before redraws
    assert lat.clamp_fraction == pytest.approx(0.25, abs=0.02)


# the full as_printed_error message for DGPSpec(family, n, seed=12): P(R=0)
# and (Z, U, X1, X2) of the first invalid draw, from generate (n = 5000)
# and from oracle_beta (1000 draws)
AS_PRINTED_ERRORS = {
    ("single_binary_iv", "generate"):
        "P(R=0) = 1.12144 > 1 at draw with (Z, U, X1, X2) = (1, 3.54156, 0.255006, 0.66551)",
    ("single_binary_iv", "oracle"):
        "P(R=0) = 1.06028 > 1 at draw with (Z, U, X1, X2) = (1, 3.76588, 0.347911, 0.566931)",
    ("dual_binary_iv", "generate"):
        "P(R=0) = 1.03694 > 1 at draw with (Z, U, X1, X2) = (1, 0.58376, 0.963417, 0.598991)",
    ("dual_binary_iv", "oracle"):
        "P(R=0) = 1.05141 > 1 at draw with (Z, U, X1, X2) = (1, 0.914286, 0.723713, 0.166307)",
}


def test_as_printed_error_policy():
    for (family, caller), message in sorted(AS_PRINTED_ERRORS.items()):
        spec = DGPSpec(family=family, n=5_000, seed=12, clamp_policy="as_printed_error")
        with pytest.raises(GenerationError) as err:
            if caller == "generate":
                generate(spec)
            else:
                oracle_beta(spec, draws=1_000)
        assert str(err.value) == message


def test_reject_invalid_gives_up_on_degenerate_design():
    spec = DGPSpec(family="dual_binary_iv", n=50, seed=4,
                   clamp_policy="reject_invalid",
                   parameters={"selection_intercept": 8.0})
    with pytest.raises(GenerationError, match="valid region"):
        generate(spec)


def test_dual_intercept_shifts_missingness():
    spec = DGPSpec(family="dual_binary_iv", n=20_000, seed=4,
                   parameters={"selection_intercept": 8.0})
    t, _ = generate(spec)
    assert np.mean(t.R == 0) > 0.99


def test_selection_exponent_is_separable():
    # on unclamped draws the stored probability factors exactly into the
    # instrument piece times the latent piece
    t, lat = generate(DGPSpec(family="single_binary_iv", n=30_000, seed=6))
    raw = np.exp(selection_alpha_z_single(t.Z, t.X)
                 + selection_alpha_u(lat.u))
    unclamped = raw < 1.0 - 1e-9
    assert unclamped.mean() > 0.5
    assert np.allclose(lat.p_r0[unclamped], raw[unclamped], rtol=1e-12)


def test_oracle_beta_single_family_value():
    res = oracle_beta(DGPSpec(family="single_binary_iv", n=1, seed=0),
                      draws=300_000)
    assert res.value == pytest.approx(2.0122, abs=0.015)
    assert res.mc_se < 0.01
    assert res.p_missing == pytest.approx(P_MISS_SINGLE, abs=0.01)
    assert res.n_missing > 100_000


def test_oracle_beta_dual_family_value():
    res = oracle_beta(DGPSpec(family="dual_binary_iv", n=1, seed=0),
                      draws=300_000)
    assert res.value == pytest.approx(1.0627, abs=0.02)


def test_oracle_quantile_consistency():
    # evaluating the indicator functional at the reported quantile over the
    # same draw stream must return a moment of essentially zero
    spec = DGPSpec(family="single_binary_iv", n=1, seed=8)
    outcomes, _, _ = reference_missing_outcomes(spec, 300_000)
    med = float(np.quantile(np.concatenate(outcomes), 0.5))
    probe = oracle_beta(spec, draws=300_000,
                        functional=FunctionalSpec.quantile(0.5, psi=med))
    assert abs(probe.value) < 1e-4


# sha256 of every generate() array, then clamp_fraction and n_rejected, for
# DGPSpec(family, n=3000, seed=21, clamp_policy); a reordered or resized
# stream changes them
GOLDEN_GENERATE = {
    ("single_binary_iv", "clamp_to_one_minus_eps"): (
        {
            "X": "b89b6aec6edb178458fb59807c2ac81eb9af5a17819b2dfa38f87411e88251fa",
            "Z": "ab1673e43f0638ace850ef68b29ac3f007a4b218df8595434251dfa1afb81303",
            "R": "b71223b52ae7f52630f36d25dfe36bb13539b33ddc1a90df5a0980248c937ec0",
            "y": "2544b875deeefeb3be5fbcaafa15d2f3f3b794b89ffc7c54d35bc1b9f7b2db37",
            "u": "6e828c9c3a4fcdbdd98140701729ac0c8cdd012fb5cc4d9abf548c67617874d9",
            "y_full": "d07a99cc55a065b9a2f6854184a8e46fbd472c1f9bb3dd22f1c7d8a94b98b691",
            "p_r0": "532345cdeb49b43f21df53635605c3f2e89b9e1ac4b268ea473b8f67049e4011",
        },
        0.264, 0,
    ),
    ("single_binary_iv", "reject_invalid"): (
        {
            "X": "a17cc4ea53296d3cffdc65f54a5a55e907d68268c3a214a026db44e9ffa62a56",
            "Z": "0b6a0873c7a28f453f72379a380c805b5b696f9e8662ab602bb8355d8347f62d",
            "R": "06b2f566e89cb38854a336745a6189a6a5a337e05fee1d6ae215a09de75334f2",
            "y": "ae8321f9fcf3d6329166b57d11c135fd00572d1b9cb166ec67264dc4010e0820",
            "u": "e1fecb34dc42d15348b16321227932c36dc594cb4fc9ad299d7ff0cc8ee91066",
            "y_full": "bc76b0fd4063c66d0b1cae21182450726543da0aa1b79f322eaba20a6d5ea9df",
            "p_r0": "6c6ddc2c0ef5a54f6f5a031aa8a777c627ce532e1415c6a280342288349a49f8",
        },
        0.2609016999260902, 1059,
    ),
    ("dual_binary_iv", "clamp_to_one_minus_eps"): (
        {
            "X": "b89b6aec6edb178458fb59807c2ac81eb9af5a17819b2dfa38f87411e88251fa",
            "Z": "7095dc5e7f962f4a6e3b8de4ee80a015c9f808f9974442c73a2f49890ee260f4",
            "R": "f52b3d20039187c217b567a4c2f637d92297245bb8aa332973b3df07a2fe71e6",
            "y": "56efbd704b3c6c71782bd1faf24806ec915f8c3c01d3d8d71e6bd304181ed935",
            "u": "aa7f1e51aa7e7ee69ccc95e1b02bf03dd9420fb5ce6a5600e38586f0720bc0e2",
            "y_full": "6fdc09d6ccd920c12b78716e25a2f679796c0fcf3e26f3c417f321e8eab28199",
            "p_r0": "fdfa7e23b8baf6f875982b582e095a91f7d9b6c457bfa3c4e7ce75ccdce7aefa",
        },
        0.08233333333333333, 0,
    ),
    ("dual_binary_iv", "reject_invalid"): (
        {
            "X": "90bbceb1f9c37ce1351f1bee2d3025b75116fa54ee81f09ee8be0e77536bccae",
            "Z": "27145f7e134051c2f6a276c5aa4582cb31cfa1c324db720413a4629df71bc102",
            "R": "b823d060be1a6f47288731c07253612ba7fb42e2c8fdb71736774894b82fa9c0",
            "y": "3c93a70c0acf38fc0b13969f47e5f87246c194273600f32f52977e690266bc06",
            "u": "bf90e68dd7a8ef992d701e4ca823ae1d98937eccee8f5ef825045307efcf0429",
            "y_full": "05041a2bcc31b424b7b96c841661692b64ff5c9fc5e8e69e84575a443ee63156",
            "p_r0": "f9dfb8a1375ec12cd598b68efcbb01e80be7bc6ffed35de03abd475c585ba91e",
        },
        0.08284928156527056, 271,
    ),
}

# oracle_beta on DGPSpec(family, n=1, seed=5, clamp_policy) with 1.1e6 draws
# (two batches): value, mc_se, n_missing, clamp_fraction, and the 0.75
# quantile of the R = 0 outcomes of the same draws (reference_missing_outcomes)
GOLDEN_ORACLE = {
    ("single_binary_iv", "clamp_to_one_minus_eps"):
        (2.0146346565806605, 0.0012300472714668617, 611781, 0.24952727272727274, 2.682111626399427),
    ("single_binary_iv", "reject_invalid"):
        (2.045581716251407, 0.001747404299520627, 337407, 0.24966454545454544, 2.758786361148496),
    ("dual_binary_iv", "clamp_to_one_minus_eps"):
        (1.0628060857831205, 0.0010062490514325393, 444016, 0.07713454545454546, 1.5202723574734514),
    ("dual_binary_iv", "reject_invalid"):
        (1.064584371001385, 0.0011413919089100547, 358228, 0.07692818181818181, 1.5326615386040152),
}

def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("family, policy", sorted(GOLDEN_GENERATE))
def test_generate_streams_are_pinned(family, policy):
    t, lat = generate(DGPSpec(family=family, n=3000, seed=21, clamp_policy=policy))
    arrays = {"X": t.X, "Z": t.Z, "R": t.R, "y": t.Y, "u": lat.u,
              "y_full": lat.y_full, "p_r0": lat.p_r0}
    hashes, clamp_fraction, n_rejected = GOLDEN_GENERATE[family, policy]
    assert {k: _sha256(v) for k, v in arrays.items()} == hashes
    assert lat.clamp_fraction == clamp_fraction
    assert lat.n_rejected == n_rejected


@pytest.mark.parametrize("family, policy", sorted(GOLDEN_ORACLE))
def test_oracle_streams_are_pinned(family, policy):
    spec = DGPSpec(family=family, n=1, seed=5, clamp_policy=policy)
    draws = 1_100_000
    res = oracle_beta(spec, draws=draws)
    value, mc_se, n_missing, clamp_fraction, quantile = GOLDEN_ORACLE[family, policy]
    assert (res.value, res.mc_se, res.n_missing, res.clamp_fraction) == (
        value, mc_se, n_missing, clamp_fraction)
    rejected = round(clamp_fraction * draws) if policy == "reject_invalid" else 0
    assert res.p_missing == n_missing / (draws - rejected)
    outcomes, _, _ = reference_missing_outcomes(spec, draws)
    assert float(np.quantile(np.concatenate(outcomes), 0.75)) == quantile


POLICIES = ("clamp_to_one_minus_eps", "reject_invalid", "as_printed_error")


def _outcome(call):
    """call()'s result, or the message of the EstimationError it raises."""
    try:
        return call()
    except EstimationError as e:
        return str(e)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
@pytest.mark.parametrize("n", [3, _CHUNK - 1, _CHUNK + 1])
def test_generate_matches_the_unchunked_draw_step(family, policy, n):
    # the streamed step cuts each phase into chunks; the draws must not move
    spec = DGPSpec(family=family, n=n, seed=21, clamp_policy=policy)
    got = _outcome(lambda: generate(spec))
    want = _outcome(lambda: reference_generate(spec))
    if isinstance(want, str):
        assert got == want
        return
    t, lat = got
    assert t.X.flags.f_contiguous       # drawn as row pairs, stored column-major
    arrays = {"X": t.X, "Z": t.Z, "R": t.R, "y_full": lat.y_full, "u": lat.u,
              "p_r0": lat.p_r0}
    ref, clamp_fraction, n_rejected = want
    for k, v in ref.items():
        assert np.array_equal(arrays[k], v), k
    assert np.array_equal(t.Y, np.where(t.R == 1, lat.y_full, np.nan),
                          equal_nan=True)
    assert (lat.clamp_fraction, lat.n_rejected) == (clamp_fraction, n_rejected)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
@pytest.mark.parametrize("draws", [3, _CHUNK - 1, _CHUNK + 1, _ORACLE_BATCH + 3])
def test_oracle_matches_the_unchunked_draw_step(family, policy, draws):
    # sums per batch in row order, as the reference's batches give them
    spec = DGPSpec(family=family, n=1, seed=5, clamp_policy=policy)
    got = _outcome(lambda: oracle_beta(spec, draws=draws))
    want = _outcome(lambda: reference_missing_outcomes(spec, draws))
    if isinstance(want, str):
        assert got == want
        return
    outcomes, accepted, n_invalid = want
    n0 = sum(y.shape[0] for y in outcomes)
    if n0 == 0:
        assert got == "oracle saw no R = 0 draws"
        return
    s1 = s2 = 0.0
    for y in outcomes:
        s1 += float(np.sum(y))
        s2 += float(np.sum(y * y))
    assert (got.n_missing, got.p_missing, got.clamp_fraction) == (
        n0, n0 / accepted, n_invalid / draws)
    mean = s1 / n0
    assert got.value == mean
    assert got.mc_se == float(np.sqrt(max(s2 / n0 - mean * mean, 0.0) / n0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drawn=st.integers(0, 41),
       ahead=st.integers(0, 41) | st.integers(0, 300_000))
def test_a_placed_generator_draws_the_words_that_follow(seed, drawn, ahead):
    # after `drawn` words (mostly part of a 4-word Philox block), a generator
    # placed `ahead` words on gives the words drawing in order reaches there,
    # and _skip moves a generator by the same words in place
    words = np.random.Philox(seed).random_raw(drawn + ahead + 9)
    rng = np.random.Generator(np.random.Philox(seed))
    rng.bit_generator.random_raw(drawn)
    placed = _placed(rng, ahead)
    assert np.array_equal(placed.bit_generator.random_raw(9), words[drawn + ahead:])
    _skip(rng.bit_generator, ahead)             # rng had not moved
    assert np.array_equal(rng.bit_generator.random_raw(9), words[drawn + ahead:])


@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_oracle_keeps_one_batch_of_draws_alive(family):
    # two full batches: the second must be drawn into the first's columns.
    # A batch keeps the outcome noise whole, with the R = 0 outcomes packed
    # over its front and h, then h^2, written over those; the single
    # family's ziggurat U is a second whole column, and the dual family's
    # uniform U is drawn by chunk.  Everything else lives in cache-sized
    # chunks, about 0.15 of a column, under every policy.
    # Measured peaks: 1.14 to 1.15 columns on the dual family, 2.14 to 2.16
    # on the single, and up to 0.09 more in a process's first oracle call;
    # the bounds leave 0.05 of headroom and more.
    column = _ORACLE_BATCH * 8  # bytes of one float64 column of a batch
    bounds = {"dual_binary_iv": (1.3, 1.3), "single_binary_iv": (2.3, 2.425)}[family]
    for policy, columns in zip(("clamp_to_one_minus_eps", "reject_invalid"), bounds):
        tracemalloc.start()
        try:
            oracle_beta(DGPSpec(family=family, n=1, seed=5, clamp_policy=policy),
                        draws=2 * _ORACLE_BATCH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= columns * column, policy


@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_oracle_p_missing_is_the_generated_missing_share(family):
    # under reject_invalid the rejected draws are not part of the data law,
    # so they count in clamp_fraction but not in p_missing's denominator
    spec = DGPSpec(family=family, n=200_000, seed=31, clamp_policy="reject_invalid")
    t, lat = generate(spec)
    res = oracle_beta(spec, draws=400_000)
    assert res.p_missing == pytest.approx(np.mean(t.R == 0), abs=0.01)
    assert res.clamp_fraction == pytest.approx(lat.clamp_fraction, abs=0.01)


def test_mc_report_shape_and_mse_decomposition():
    dgp = DGPSpec(family="single_binary_iv", n=400, seed=0)
    report = run_monte_carlo(dgp, 6, CFG, MEAN, 2.0122,
                             EstimationConfig(n_folds=3, repetitions=1, seed=17))
    d = report.as_dict()
    assert d["replications"] == 6
    assert set(d["estimators"]) == {"id", "if"}
    for s in report.summaries.values():
        assert s.n_success == 6
        assert s.mse == pytest.approx(s.bias ** 2 + s.variance, abs=1e-12)
    assert report.summaries["if"].coverage is not None
    assert 0.0 <= report.summaries["if"].coverage <= 1.0


def test_mc_replication_streams_do_not_shift():
    # adding replications must not disturb the ones already drawn
    dgp = DGPSpec(family="single_binary_iv", n=400, seed=0)
    est = EstimationConfig(n_folds=3, repetitions=1, seed=23)
    r3 = run_monte_carlo(dgp, 3, CFG, MEAN, 2.0122, est)
    r5 = run_monte_carlo(dgp, 5, CFG, MEAN, 2.0122, est)
    for name in ("id", "if"):
        a = r3.summaries[name].estimates
        b = r5.summaries[name].estimates[:3]
        assert a == b


def test_mc_thread_count_does_not_change_results():
    dgp = DGPSpec(family="single_binary_iv", n=300, seed=0)
    est = EstimationConfig(n_folds=3, repetitions=1, seed=5)
    r1 = run_monte_carlo(dgp, 4, CFG, MEAN, 2.0122, est, threads=1)
    r2 = run_monte_carlo(dgp, 4, CFG, MEAN, 2.0122, est, threads=2)
    assert r1.as_dict() == r2.as_dict()


def test_pool_tasks_reach_every_worker():
    # a worker takes a whole task at a time, so a study needs at least as
    # many tasks as workers; 8 replications in one task of 8 ran on one
    # worker whatever the thread count
    for threads in range(1, 9):
        for replications in range(1, 41):
            chunk = _pool_chunksize(replications, threads)
            tasks = -(-replications // chunk)
            assert chunk >= 1
            assert tasks >= min(threads, replications), (replications, threads)
    assert _pool_chunksize(20, 2) == 10


@pytest.mark.filterwarnings("ignore:instrument level")
def test_mc_counts_failed_replications():
    # n = 8 with a four-level instrument: most training splits lose a level
    dgp = DGPSpec(family="dual_binary_iv", n=8, seed=0)
    report = run_monte_carlo(dgp, 3, CFG, MEAN, 1.0627,
                             EstimationConfig(n_folds=4, repetitions=1, seed=2))
    s = report.summaries["if"]
    assert s.n_success + s.n_failed == 3
    assert s.n_failed >= 1


def test_mc_validation():
    dgp = DGPSpec(family="single_binary_iv", n=300, seed=0)
    with pytest.raises(ConfigurationError):
        run_monte_carlo(dgp, 0, CFG, MEAN, oracle=2.0122)
