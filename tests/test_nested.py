"""Tests for the nested filter: inner SMC, backward simulation, proper
weighting, reduction identities and the outer loop."""

import dataclasses
import zlib

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare, kstest, multivariate_normal, norm

from nsmc.exceptions import InnerCollapseError, InvalidInputError, WeightCollapseError
from nsmc.exact import fapf_run, ffbs_forward, kalman_run
from nsmc.model import IndependentSsmSpec, StssmSpec, make_model, simulate
from nsmc.nested import (
    STAGE_PROPOSALS,
    ExactFfbsProcedure,
    ExactTransitionProcedure,
    GaussianStageTarget,
    ImportanceProcedure,
    InnerSmcProcedure,
    InnerState,
    SelfNestedProcedure,
    backward_simulate,
    conditional_oracle,
    empirical_draw,
    general_nsmc_step,
    inner_smc,
    make_procedure,
    nsmc_init,
    nsmc_run,
    nsmc_step,
    proper_weighting_check,
)
from nsmc.smc import (
    ParticleSystem,
    ProperWeightingProcedure,
    _categorical_rows,
    _row_weights,
    _search_rows,
    normalize_logweights,
)

from oracles import dense_conditional


class Gaussian1dTarget:
    """Duck-typed single-stage target with analytic mass: ``p_0`` is
    ``mass * Normal(loc, scale)``, proposed from
    ``Normal(prop_loc, prop_scale)``.  Every stage has that law, and
    ``propagate(None, ...)`` stacks the stage-by-stage draws."""

    markov_order = 0

    def __init__(self, loc, scale, mass, prop_loc, prop_scale, batch=()):
        self.loc, self.scale, self.mass = loc, scale, mass
        self.prop_loc, self.prop_scale = prop_loc, prop_scale
        self.n_stages = 1
        self.batch_shape = batch

    def propagate(self, d, prev, m, rng):
        if d is None:
            stages = [self.propagate(e, None, m, rng) for e in range(self.n_stages)]
            return tuple(np.stack(a) for a in zip(*stages))
        x = self.prop_loc + self.prop_scale * rng.standard_normal(
            self.batch_shape + (m,)
        )
        log_p = np.log(self.mass) + norm.logpdf(x, self.loc, self.scale)
        return x, log_p - norm.logpdf(x, self.prop_loc, self.prop_scale)


class TestInnerSmc:
    def test_perfect_proposal_zero_variance(self):
        target = Gaussian1dTarget(0.0, 1.0, 1.0, 0.0, 1.0)
        state = inner_smc(target, 16, np.random.default_rng(0))
        np.testing.assert_array_equal(state.logw, np.zeros((1, 16)))
        assert float(state.log_tau) == 0.0

    def test_tau_estimates_target_mass(self):
        # E[tau] = integral of the unnormalized target, here an explicit
        # Gaussian mass; checked at 3 SE over 10^5 replicates.
        rng = np.random.default_rng(1)
        mass = 2.7
        target = Gaussian1dTarget(0.5, 0.8, mass, 0.0, 1.5, batch=(10**5,))
        state = inner_smc(target, 5, rng)
        taus = np.exp(state.log_tau)
        se = taus.std(ddof=1) / np.sqrt(taus.size)
        assert abs(taus.mean() - mass) < 3 * se

    def test_tau_unbiased_at_m_equal_one(self):
        rng = np.random.default_rng(2)
        mass = 0.6
        target = Gaussian1dTarget(-0.3, 1.2, mass, 0.2, 1.0, batch=(10**5,))
        state = inner_smc(target, 1, rng)
        taus = np.exp(state.log_tau)
        se = taus.std(ddof=1) / np.sqrt(taus.size)
        assert abs(taus.mean() - mass) < 3 * se

    def test_log_tau_matches_recomputation(self):
        spec = StssmSpec.chain(n_x=6, tau=1.0, lam=1.0, obs_var=0.25)
        model = make_model(spec)
        rng = np.random.default_rng(3)
        target = model.inner_target(2, rng.standard_normal((8, 6)), rng.standard_normal(6))
        state = inner_smc(target, 12, rng)
        recomputed = np.sum(logsumexp(state.logw, axis=-1) - np.log(12), axis=0)
        np.testing.assert_allclose(state.log_tau, recomputed, atol=1e-12)

    def test_collapse_carries_stage_index(self):
        class DoomedTarget(Gaussian1dTarget):
            def __init__(self):
                super().__init__(0.0, 1.0, 1.0, 0.0, 1.0)
                self.n_stages = 3

            def propagate(self, d, prev, m, rng):
                x, lw = super().propagate(d, prev, m, rng)
                # At d = None the stacked stages already hold the edit.
                return x, lw if d is None or d < 2 else np.full_like(lw, -np.inf)

        with pytest.raises(InnerCollapseError) as err:
            inner_smc(DoomedTarget(), 8, np.random.default_rng(4))
        assert err.value.stage == 3

    def test_nonstrict_mode_marks_dead_rows(self):
        class HalfDoomed(Gaussian1dTarget):
            def __init__(self):
                super().__init__(0.0, 1.0, 1.0, 0.0, 1.0, batch=(2,))

            def propagate(self, d, prev, m, rng):
                x, lw = super().propagate(d, prev, m, rng)
                if d is not None:  # else the stacked stages hold the edit
                    lw[0] = -np.inf
                return x, lw

        state = inner_smc(HalfDoomed(), 4, np.random.default_rng(5), strict=False)
        assert state.log_tau[0] == -np.inf and np.isfinite(state.log_tau[1])


class TestGenericDefaults:
    """The stage target's hooks against generic densities from scipy:
    scalar normal densities for the stage increment, the dense joint
    Gaussian of the transition noise for the backward kernel.  Neither
    reads the package's chain factorization."""

    SPEC = StssmSpec.chain(n_x=4, tau=1.0, lam=0.8, obs_var=0.3, a_coef=0.5)

    def _target_and_state(self, proposal="prior"):
        rng = np.random.default_rng(6)
        x_prev = rng.standard_normal(4)
        y = rng.standard_normal(4)
        target = make_model(self.SPEC).inner_target(2, x_prev, y, proposal)
        state = inner_smc(target, 6, rng)
        return target, state, x_prev, y, rng

    def test_increment_matches_generic(self):
        # The stage-2 weight is f(x_2 | x_1) g(y_2 | x_2) / r_2(x_2), with
        # f the conditional of the dense noise covariance and r_2 that
        # law (prior) or that law times g(y_2 | .), normalized (optimal).
        cov = np.linalg.inv(self.SPEC.noise_precision.dense())
        a, obs_sd = self.SPEC.a_coef, np.sqrt(self.SPEC.obs_var)
        for proposal in ("prior", "optimal"):
            target, state, x_prev, y, rng = self._target_and_state(proposal)
            prev = state.particles[1]
            x_d, log_w = target.propagate(2, prev, prev.shape[-1], rng)
            mean = a * x_prev[2] + cov[2, 1] / cov[1, 1] * (prev - a * x_prev[1])
            var = cov[2, 2] - cov[2, 1] ** 2 / cov[1, 1]
            r_mean, r_var = mean, var
            if proposal == "optimal":
                r_var = 1.0 / (1.0 / var + 1.0 / self.SPEC.obs_var)
                r_mean = r_var * (mean / var + y[2] / self.SPEC.obs_var)
            oracle = (
                norm.logpdf(x_d, mean, np.sqrt(var))
                + norm.logpdf(y[2], x_d, obs_sd)
                - norm.logpdf(x_d, r_mean, np.sqrt(r_var))
            )
            np.testing.assert_allclose(log_w, oracle, atol=1e-10)

    def test_suffix_ratio_matches_generic_up_to_constant(self):
        # log p_3((x_{0:1}^j, suffix)) - log p_1(x_{0:1}^j): the noise's
        # dense joint density minus its dense prefix marginal (the
        # observation factors of the prefix cancel, those of the suffix
        # do not depend on j).
        target, state, x_prev, _, rng = self._target_and_state()
        suffix = rng.standard_normal(2)
        x0 = state.particles[0][state.ancestors[0]]
        x1 = state.particles[1]
        prefix = np.stack([x0, x1], axis=-1)
        full = np.concatenate([prefix, np.broadcast_to(suffix, (x1.size, 2))], axis=-1)
        cov = np.linalg.inv(self.SPEC.noise_precision.dense())
        a = self.SPEC.a_coef
        oracle = multivariate_normal(cov=cov).logpdf(full - a * x_prev) - (
            multivariate_normal(cov=cov[:2, :2]).logpdf(prefix - a * x_prev[:2])
        )
        diff = target.log_suffix_ratio(1, x1, np.asarray(suffix[0])) - oracle
        # Particle-independent offset is allowed; differences must agree.
        np.testing.assert_allclose(diff - diff[..., :1], 0.0, atol=1e-10)


class TestBackwardSimulate:
    def test_single_stage_reduces_to_categorical(self):
        rng = np.random.default_rng(7)
        target = Gaussian1dTarget(0.0, 1.0, 1.0, 0.0, 2.0)
        state = inner_smc(target, 4, rng)
        probs, _ = _normalize(state.logw[0])
        draws = np.array(
            [backward_simulate(state, target, rng)[0] for _ in range(10**4)]
        )
        counts = np.array([(draws == v).sum() for v in state.particles[0]])
        result = chisquare(counts, f_exp=probs * 10**4)
        assert result.pvalue > 0.01

    def test_single_particle_returns_unique_trajectory(self):
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.5)
        model = make_model(spec)
        rng = np.random.default_rng(8)
        target = model.inner_target(2, np.zeros(3), np.ones(3))
        state = inner_smc(target, 1, rng)
        x = backward_simulate(state, target, rng)
        np.testing.assert_array_equal(x, state.particles[:, 0])
        x2 = empirical_draw(state, rng)
        np.testing.assert_array_equal(x2, state.particles[:, 0])

    def test_marginal_close_to_oracle_for_large_m(self):
        # Fresh inner run per draw: the unconditional law of the first
        # component approaches the oracle marginal at rate 1/M, so with
        # M = 2000 a KS test at the oracle distribution passes while a
        # mis-specified reference (inflated spread) is clearly worse.
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        model = make_model(spec)
        x_prev = np.array([0.4, -0.2])
        y = np.array([0.8, 0.1])
        rng = np.random.default_rng(9)
        n_draws, chunk = 10**4, 500
        draws = []
        for _ in range(n_draws // chunk):
            tiled = np.broadcast_to(x_prev, (chunk, 2))
            target = model.inner_target(2, tiled, y)
            state = inner_smc(target, 2000, rng, strict=False)
            draws.append(backward_simulate(state, target, rng)[:, 0])
        draws = np.concatenate(draws)
        _, mean_x, cov = dense_conditional(spec, x_prev, y)
        sd = np.sqrt(cov[0, 0])
        good = kstest(draws, "norm", args=(mean_x[0], sd))
        bad = kstest(draws, "norm", args=(mean_x[0], 1.5 * sd))
        assert good.statistic < bad.statistic
        assert good.pvalue > 0.01

    @pytest.mark.parametrize("strict", [True, False])
    def test_nan_backward_weight_is_a_value_error(self, strict):
        # A NaN in a stage-0 log-weight makes that backward log-weight
        # NaN: an invalid input, not a collapse, in either mode.
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.5)
        target = make_model(spec).inner_target(2, np.zeros(3), np.ones(3))
        state = inner_smc(target, 4, np.random.default_rng(12))
        logw = state.logw.copy()
        logw[0, 1] = np.nan
        bad = InnerState(state.particles, state.ancestors, logw, state.w, state.log_tau)
        with pytest.raises(ValueError, match="NaN"):
            backward_simulate(bad, target, np.random.default_rng(13), strict=strict)

    def test_vanished_backward_weights_collapse_in_strict_mode(self):
        # Stage-0 log-weights of -inf leave no backward weight at d = 0:
        # a collapse at stage 1, not an invalid input.
        spec = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.5)
        target = make_model(spec).inner_target(2, np.zeros(3), np.ones(3))
        state = inner_smc(target, 4, np.random.default_rng(12))
        logw = state.logw.copy()
        logw[0] = -np.inf
        dead = InnerState(state.particles, state.ancestors, logw, state.w, state.log_tau)
        with pytest.raises(InnerCollapseError) as err:
            backward_simulate(dead, target, np.random.default_rng(13), strict=True)
        assert err.value.stage == 1


class TestEmpiricalDraw:
    def test_frequencies_match_final_weights(self):
        rng = np.random.default_rng(10)
        target = Gaussian1dTarget(0.3, 1.0, 1.0, 0.0, 1.4)
        state = inner_smc(target, 5, rng)
        probs, _ = _normalize(state.logw[0])
        draws = np.array([empirical_draw(state, rng)[0] for _ in range(10**4)])
        counts = np.array([(draws == v).sum() for v in state.particles[0]])
        result = chisquare(counts, f_exp=probs * 10**4)
        assert result.pvalue > 0.01


class TestOrderZeroDraw:
    """At Markov order 0 no inner stage resamples, and both draws pick
    each component from its own stage's weights, bitwise as backward
    simulation with all suffix ratios zero."""

    SPEC = IndependentSsmSpec(n_x=6, a_coef=0.5, init_mean=0.3, obs_var=0.4)

    def _inputs(self):
        rng = np.random.default_rng(31)
        return rng.standard_normal((4, 6)), rng.standard_normal(6)

    def _aux(self, kappa, t=2, proposal="prior"):
        x_prev, y = self._inputs()
        proc = InnerSmcProcedure(5, kappa, proposal)
        return proc.prepare(self.SPEC, t, x_prev, y, np.random.default_rng(30))

    @pytest.mark.parametrize("proposal", STAGE_PROPOSALS)
    @pytest.mark.parametrize("t", [1, 2])
    def test_draw_equals_backward_simulation_bitwise(self, t, proposal):
        aux = self._aux("backward", t, proposal)
        x = aux.draw(np.random.default_rng(32))
        ref = backward_simulate(aux.state, aux.target, np.random.default_rng(32), strict=False)
        np.testing.assert_array_equal(x, ref)
        assert x.shape == (4, 6) and x.flags.c_contiguous

    def test_empirical_draw_equals_backward_simulation_bitwise(self):
        aux = self._aux("empirical")
        ref = backward_simulate(aux.state, aux.target, np.random.default_rng(33), strict=False)
        x = empirical_draw(aux.state, np.random.default_rng(33))
        np.testing.assert_array_equal(x, ref)
        assert x.flags.c_contiguous
        np.testing.assert_array_equal(aux.draw(np.random.default_rng(33)), ref)

    @pytest.mark.parametrize("kappa", ["backward", "empirical"])
    def test_nan_stage_weight_is_a_value_error(self, kappa):
        # The draw reads the stored stage weights, so both are poisoned.
        aux = self._aux(kappa)
        logw, w = aux.state.logw.copy(), aux.state.w.copy()
        logw[2, 1, 3] = w[2, 1, 3] = np.nan
        bad = dataclasses.replace(aux.state, logw=logw, w=w)
        with pytest.raises(ValueError, match="NaN"):
            dataclasses.replace(aux, state=bad).draw(np.random.default_rng(34))
        with pytest.raises(ValueError, match="NaN"):
            empirical_draw(bad, np.random.default_rng(34))

    def test_inner_smc_records_no_ancestors_and_replays_the_stage_draws(self):
        x_prev, y = self._inputs()
        target = make_model(self.SPEC).inner_target(2, x_prev, y)
        state = inner_smc(target, 5, np.random.default_rng(35), strict=False)
        assert state.ancestors.shape == (0, 4, 5)
        replay = np.random.default_rng(35)
        for d in range(self.SPEC.n_x):
            x, log_w = target.propagate(d, None, 5, replay)
            np.testing.assert_array_equal(state.particles[d], x)
            np.testing.assert_array_equal(state.logw[d], log_w)

    def test_backward_and_empirical_filters_coincide(self):
        data = simulate(self.SPEC, 3, seed=36)
        bs = nsmc_run(self.SPEC, data, 20, 4, "smc+bs", np.random.default_rng(37))
        emp = nsmc_run(self.SPEC, data, 20, 4, "smc+empirical", np.random.default_rng(37))
        for field in ("filter_means", "filter_vars", "logz_increments", "ess_trace"):
            np.testing.assert_array_equal(getattr(bs, field), getattr(emp, field))

    @pytest.mark.parametrize(
        "proc",
        [
            InnerSmcProcedure(4, "backward", "prior"),
            InnerSmcProcedure(4, "backward", "optimal"),
            InnerSmcProcedure(4, "empirical", "prior"),
            SelfNestedProcedure(4, 3),
        ],
        ids=["smc+bs-prior", "smc+bs-optimal", "smc+empirical", "self-nested"],
    )
    def test_zero_coupling_chain_runs_as_its_independent_twin(self, proc):
        # A chain with lambda = 0 has phi = 0, so its stage target reads
        # Markov order 0 and its nested filter is the independent one.
        spec = IndependentSsmSpec(n_x=5, a_coef=0.5, obs_var=0.25)
        twin = spec.to_stssm()
        data = simulate(spec, 3, seed=38)
        out = nsmc_run(spec, data, 20, 4, proc, np.random.default_rng(39))
        ref = nsmc_run(twin, data, 20, 4, proc, np.random.default_rng(39))
        for field in ("method", "filter_means", "filter_vars", "logz_increments", "ess_trace"):
            np.testing.assert_array_equal(getattr(out, field), getattr(ref, field))


class TestProperWeighting:
    """Definition-level audit: E[tau * phi(x)] = nu * E_q[phi] for every
    inner procedure, against the dense conditional oracle."""

    SPEC = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
    X_PREV = np.array([0.3, -0.8])
    Y = np.array([0.7, 0.1])

    @pytest.mark.parametrize(
        "kind,m",
        [
            ("smc+bs", 1),
            ("smc+bs", 5),
            ("smc+empirical", 5),
            ("is", 1),
            ("is", 5),
            ("self-nested", 5),
        ],
    )
    def test_procedures_properly_weighted(self, kind, m):
        proc = make_procedure(kind, m)
        rng = np.random.default_rng(zlib.crc32(repr((kind, m)).encode()))
        checks = proper_weighting_check(
            proc, self.SPEC, self.X_PREV, self.Y, 30000, rng
        )
        for phi, (est, truth, z) in checks.items():
            assert abs(z) <= 3.5, f"{kind} M={m} phi={phi}: z={z:.2f}"

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("kind", ["smc+bs", "smc+empirical"])
    def test_order_zero_procedures_properly_weighted(self, kind, m):
        # The independent model's inner stages never resample; its chain
        # twin, ``to_stssm``, supplies the dense oracle.
        spec = IndependentSsmSpec(n_x=2, a_coef=0.5, obs_var=0.25)
        n_reps = 30000
        rng = np.random.default_rng(zlib.crc32(repr(("order-0", kind, m)).encode()))
        tiled = np.broadcast_to(self.X_PREV, (n_reps, 2))
        aux = make_procedure(kind, m).prepare(spec, 2, tiled, self.Y, rng)
        xs, tau = aux.draw(rng), np.exp(aux.log_tau)
        log_nu, mean, cov = conditional_oracle(spec.to_stssm(), self.X_PREV, self.Y)
        phis = {
            "1": (np.ones(n_reps), 1.0),
            "x1": (xs[:, 0], mean[0]),
            "x1^2": (xs[:, 0] ** 2, mean[0] ** 2 + cov[0, 0]),
            "x1*x2": (xs[:, 0] * xs[:, 1], mean[0] * mean[1] + cov[0, 1]),
        }
        for phi, (vals, expectation) in phis.items():
            prods = tau * vals
            se = prods.std(ddof=1) / np.sqrt(n_reps)
            z = (prods.mean() - np.exp(log_nu) * expectation) / se
            assert abs(z) <= 3.5, f"{kind} M={m} phi={phi}: z={z:.2f}"

    @pytest.mark.parametrize("n_x", [1, 2, 3])
    def test_exact_procedure_zero_variance(self, n_x):
        spec = StssmSpec.chain(n_x=n_x, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        x_prev, y = np.resize(self.X_PREV, n_x), np.resize(self.Y, n_x)
        rng = np.random.default_rng(13)
        checks = proper_weighting_check(ExactFfbsProcedure(), spec, x_prev, y, 5000, rng)
        est, truth, z = checks["1"]
        np.testing.assert_allclose(est, truth, rtol=1e-9)
        # tau is the same float in every replicate, whose standard
        # deviation need not round to zero.
        assert z == 0.0

    def test_optimal_stage_proposal_properly_weighted(self):
        proc = InnerSmcProcedure(5, kappa="backward", stage_proposal="optimal")
        rng = np.random.default_rng(14)
        checks = proper_weighting_check(proc, self.SPEC, self.X_PREV, self.Y, 30000, rng)
        for phi, (est, truth, z) in checks.items():
            assert abs(z) <= 3.5

    def test_unknown_stage_proposal_rejected_at_construction(self):
        with pytest.raises(ValueError, match="stage proposal"):
            InnerSmcProcedure(5, stage_proposal="bogus")

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: InnerSmcProcedure(0), "m must be"),
            (lambda: InnerSmcProcedure(2, kappa="bogus"), "unknown kappa"),
            (lambda: ImportanceProcedure(0), "m must be"),
            (lambda: SelfNestedProcedure(2, 0), "m_inner must be a positive integer"),
            (lambda: make_procedure("bogus", 2), "unknown procedure kind"),
            (
                lambda: inner_smc(
                    Gaussian1dTarget(0.0, 1.0, 1.0, 0.0, 1.0), 0, np.random.default_rng(0)
                ),
                "m must be",
            ),
            (
                lambda: make_model(TestProperWeighting.SPEC).inner_target(
                    2, np.zeros(2), np.ones(2), proposal="bogus"
                ),
                "unknown stage proposal",
            ),
            (
                lambda: make_model(TestProperWeighting.SPEC).inner_target(
                    2, np.zeros(2), np.ones(2)
                ).propagate(None, None, 3, np.random.default_rng(0)),
                "Markov order 0",
            ),
        ],
        ids=[
            "smc-m", "kappa", "is-m", "self-nested-m", "kind", "inner-smc-m", "target-proposal",
            "whole-pass-at-order-1",
        ],
    )
    def test_bad_arguments_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        StssmSpec.chain(n_x=4, tau=1.0, lam=0.8, obs_var=0.3),
        IndependentSsmSpec(n_x=4, a_coef=0.6, init_mean=0.8, init_var=1.7, obs_var=0.4),
    ],
    ids=["chain", "independent"],
)
def test_importance_weight_is_the_likelihood(spec, t):
    # The transition density cancels from target over proposal, so the
    # weight is log g(y_t | x_t) itself, to the bit.
    rng = np.random.default_rng(17)
    x_prev = rng.standard_normal((3, spec.n_x))
    y_t = rng.standard_normal(spec.n_x)
    aux = ImportanceProcedure(5).prepare(spec, t, x_prev, y_t, rng)
    np.testing.assert_array_equal(aux.logw, spec.log_obs(y_t, aux.candidates))


class TestSelfNested:
    def test_m_inner_one_still_unbiased(self):
        spec = TestProperWeighting.SPEC
        proc = SelfNestedProcedure(6, 1)
        rng = np.random.default_rng(15)
        checks = proper_weighting_check(
            proc, spec, TestProperWeighting.X_PREV, TestProperWeighting.Y, 30000, rng
        )
        for phi, (est, truth, z) in checks.items():
            assert abs(z) <= 3.5

    def test_perfect_stage_proposals_zero_variance(self):
        # Observation noise so large the likelihood factors are nearly
        # flat: stage weights become almost deterministic and tau's
        # variance tiny relative to its mean.
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=0.0, obs_var=1e8, a_coef=0.5)
        model = make_model(spec)
        proc = SelfNestedProcedure(4, 4)
        rng = np.random.default_rng(16)
        tiled = np.zeros((2000, 2))
        aux = proc.prepare(model, 2, tiled, np.zeros(2), rng)
        taus = np.exp(aux.log_tau)
        assert taus.std() / taus.mean() < 1e-3

    def test_rejects_a_batch_that_is_not_1d(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.5)
        with pytest.raises(ValueError, match="1-d particle batch"):
            SelfNestedProcedure(2, 2).prepare(
                make_model(spec), 2, np.zeros((2, 3, 2)), np.zeros(2), np.random.default_rng(0)
            )


def _logmeanexp_reference(logw):
    m = np.max(logw, axis=-1)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(
            np.sum(np.exp(logw - shift[..., None]), axis=-1)
        ) - np.log(logw.shape[-1])
    return np.where(np.isfinite(m), out, -np.inf)


def _self_nested_reference(proc, model, t, x_prev, y_t, rng):
    """The self-nested stage loop written as a whole-row gather: the
    chosen systems' candidates and log-weights are gathered with
    ``take_along_axis`` and ``_categorical_rows`` re-weights them.
    Returns the inner state and the stage target."""
    target = model.inner_target(t, x_prev, y_t)
    n, batch = target.n_stages, target.batch_shape
    mo, mi = proc.m, proc.m_inner
    tiled = target.take(np.broadcast_to(np.arange(batch[0])[:, None], batch + (mo,)))
    particles = np.empty((n,) + batch + (mo,))
    ancestors = np.zeros((max(n - 1, 0),) + batch + (mo,), dtype=np.intp)
    log_tau = np.zeros(batch)
    for d in range(n):
        prev = particles[d - 1][..., None] if d and target.markov_order else None
        cand, lw = tiled.propagate(d, prev, mi, rng)
        stage_log_tau = _logmeanexp_reference(lw)
        log_tau = log_tau + _logmeanexp_reference(stage_log_tau)
        idx = _search_rows(_row_weights(stage_log_tau)[0], mo, rng)
        if d > 0:
            ancestors[d - 1] = idx
        cand = np.take_along_axis(cand, idx[..., None], axis=-2)
        lw = np.take_along_axis(lw, idx[..., None], axis=-2)
        pick = _categorical_rows(lw, rng)
        particles[d] = np.take_along_axis(cand, pick[..., None], axis=-1)[..., 0]
    shape = (n,) + batch + (mo,)
    state = InnerState(particles, ancestors, np.zeros(shape), np.ones(shape), log_tau)
    return state, target


class _CollapsingTarget(GaussianStageTarget):
    """Self-nested stage law with collapsed weight rows: at stage 1 the
    first system of every batch row, at stage 2 every system of batch
    row 2."""

    def propagate(self, d, prev, m, rng):
        x, lw = super().propagate(d, prev, m, rng)
        if d == 1:
            lw[:, 0] = -np.inf
        if d == 2:
            lw[2] = -np.inf
        return x, lw


class _PoisonedTarget(GaussianStageTarget):
    """Stage law whose stage-1 log-weights hold ``bad`` at the last
    candidate of system 0 of batch row 1."""

    def propagate(self, d, prev, m, rng):
        x, lw = super().propagate(d, prev, m, rng)
        if d == 1:
            lw[1, 0, -1] = self.bad
        return x, lw


class _TargetClassModel:
    """A model whose inner targets are its spec's, as instances of
    ``cls`` carrying the attributes ``attrs``."""

    def __init__(self, spec, cls, **attrs):
        self.spec, self.cls, self.attrs = spec, cls, attrs

    def inner_target(self, t, x_prev, y_t):
        target = self.spec.inner_target(t, x_prev, y_t)
        target.__class__ = self.cls
        vars(target).update(self.attrs)
        return target


SELF_NESTED_CHAIN = StssmSpec.chain(n_x=5, tau=1.0, lam=0.8, obs_var=0.25)
SELF_NESTED_INDEPENDENT = IndependentSsmSpec(n_x=4, a_coef=0.5, init_mean=0.7, obs_var=1.0)
SELF_NESTED_PIN_MODELS = {
    "chain": (SELF_NESTED_CHAIN, 2),
    "independent": (SELF_NESTED_INDEPENDENT, 1),
    "collapsed": (_TargetClassModel(SELF_NESTED_CHAIN, _CollapsingTarget), 2),
}


@pytest.mark.parametrize("mo,mi", [(2, 1), (4, 3), (5, 20), (20, 20), (3, 33)])
@pytest.mark.parametrize("case", sorted(SELF_NESTED_PIN_MODELS))
def test_self_nested_stage_is_bitwise_pinned(case, mo, mi):
    # Pins the random-draw order of the self-nested stage (propagate,
    # system resampling, one uniform per system for the pick) and the
    # bits of every field against the whole-row gather formulation, and
    # the draw, at every row and at chosen rows, on the unit stage
    # weights (the order-0 draw reads them).
    model, t = SELF_NESTED_PIN_MODELS[case]
    n_x = 5 if case != "independent" else 4
    x_prev = np.random.default_rng(7).standard_normal((3, n_x))
    y_t = np.linspace(-0.5, 1.0, n_x)
    proc = SelfNestedProcedure(mo, mi)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    aux = proc.prepare(model, t, x_prev, y_t, rng)
    ref_state, ref_target = _self_nested_reference(proc, model, t, x_prev, y_t, ref_rng)
    for field in ("particles", "ancestors", "logw", "w", "log_tau"):
        np.testing.assert_array_equal(getattr(aux.state, field), getattr(ref_state, field))
    if case == "collapsed":
        assert np.isneginf(aux.state.log_tau[2])
        assert np.all(np.isfinite(aux.state.log_tau[:2]))
    np.testing.assert_array_equal(
        aux.draw(rng), backward_simulate(ref_state, ref_target, ref_rng, strict=False)
    )
    rows = np.array([2, 0, 2, 2])
    np.testing.assert_array_equal(
        aux.draw(rng, rows),
        backward_simulate(ref_state, ref_target, ref_rng, strict=False, rows=rows),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spec", [SELF_NESTED_CHAIN, SELF_NESTED_INDEPENDENT], ids=["chain", "independent"])
def test_self_nested_rejects_nan_or_plus_inf_stage_weight(spec, bad):
    model = _TargetClassModel(spec, _PoisonedTarget, bad=bad)
    with pytest.raises(ValueError, match=r"NaN or \+inf"):
        SelfNestedProcedure(4, 3).prepare(
            model, 2, np.zeros((3, spec.n_x)), np.zeros(spec.n_x), np.random.default_rng(0)
        )


class TestNsmcStep:
    SPEC = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)

    def test_weights_stay_uniform(self):
        model = make_model(self.SPEC)
        data = simulate(self.SPEC, 3, seed=17)
        rng = np.random.default_rng(18)
        system = nsmc_init(model, 20)
        for t in range(3):
            system = nsmc_step(
                system, model, InnerSmcProcedure(4), data.observations[t], rng
            )
            np.testing.assert_array_equal(system.logw, np.zeros(20))
            assert system.t == t + 1 and system.ancestors.shape == (20,)

    def test_smallest_instance_runs(self):
        model = make_model(self.SPEC)
        data = simulate(self.SPEC, 4, seed=19)
        rng = np.random.default_rng(20)
        out = nsmc_run(self.SPEC, data, 1, 1, "smc+bs", rng)
        assert np.isfinite(out.logZ)

    def test_smallest_instance_unbiased(self):
        data = simulate(self.SPEC, 2, seed=21)
        kal = kalman_run(self.SPEC, data).logZ
        rng = np.random.default_rng(22)
        ratios = np.array(
            [np.exp(nsmc_run(self.SPEC, data, 1, 1, "smc+bs", rng).logZ - kal) for _ in range(3000)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_all_zero_tau_collapses_with_step_index(self):
        class ZeroTauProc(ProperWeightingProcedure):
            def prepare(self, model, t, x_prev, y_t, rng):
                class Dead:
                    log_tau = np.full(x_prev.shape[0], -np.inf)

                return Dead()

        model = make_model(self.SPEC)
        data = simulate(self.SPEC, 2, seed=23)
        system = nsmc_init(model, 8)
        with pytest.raises(WeightCollapseError) as err:
            nsmc_step(system, model, ZeroTauProc(), data.observations[0], np.random.default_rng(24))
        assert err.value.step == 1

    def test_partial_zero_tau_is_legal(self):
        class HalfDead(InnerSmcProcedure):
            def prepare(self, model, t, x_prev, y_t, rng):
                aux = super().prepare(model, t, x_prev, y_t, rng)
                aux.state.log_tau[::2] = -np.inf
                return aux

        model = make_model(self.SPEC)
        data = simulate(self.SPEC, 1, seed=25)
        system = nsmc_init(model, 16)
        out = nsmc_step(
            system, model, HalfDead(4), data.observations[0], np.random.default_rng(26)
        )
        # Dead rows can never be selected as ancestors.
        assert np.all(out.ancestors % 2 == 1)

    def test_shared_ancestor_draws_are_independent(self):
        # Force one dominant tau so all particles share an ancestor, and
        # check the propagation draws still differ.
        class OneHot(InnerSmcProcedure):
            def prepare(self, model, t, x_prev, y_t, rng):
                aux = super().prepare(model, t, x_prev, y_t, rng)
                aux.state.log_tau[1:] = -np.inf
                return aux

        model = make_model(self.SPEC)
        data = simulate(self.SPEC, 1, seed=27)
        system = nsmc_init(model, 10)
        out = nsmc_step(
            system, model, OneHot(8), data.observations[0], np.random.default_rng(28)
        )
        np.testing.assert_array_equal(out.ancestors, np.zeros(10, dtype=int))
        assert len({tuple(row) for row in out.states}) > 1


class TestReductionIdentities:
    SPEC = StssmSpec.chain(n_x=3, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)

    def test_exact_procedure_reproduces_fapf_bitwise(self):
        data = simulate(self.SPEC, 4, seed=29)
        model = make_model(self.SPEC)
        out = fapf_run(self.SPEC, data, 32, np.random.default_rng(30))
        rng = np.random.default_rng(30)
        system = nsmc_init(model, 32)
        for t in range(4):
            system = nsmc_step(
                system, model, ExactFfbsProcedure(), data.observations[t], rng
            )
        assert system.logZ == out.logZ
        np.testing.assert_allclose(
            system.states.mean(axis=0), out.filter_means[-1], rtol=0, atol=0
        )

    def test_zero_variance_tau_matches_fapf_categoricals_bitwise(self):
        data = simulate(self.SPEC, 1, seed=31)
        model = make_model(self.SPEC)
        states = np.asarray(np.random.default_rng(32).standard_normal((16, 3)))
        cache = ffbs_forward(self.SPEC, states, data.observations[0])
        proc = ExactFfbsProcedure()
        aux = proc.prepare(model, 2, states, data.observations[0], np.random.default_rng(33))
        np.testing.assert_array_equal(aux.log_tau, cache.log_nu)

    def test_general_fa_mode_weights_uniform(self):
        data = simulate(self.SPEC, 4, seed=34)
        model = make_model(self.SPEC)
        rng = np.random.default_rng(35)
        system = nsmc_init(model, 16)
        for t in range(4):
            system = general_nsmc_step(
                system,
                model,
                InnerSmcProcedure(4),
                "gamma-ratio",
                "tau",
                data.observations[t],
                rng,
            )
            np.testing.assert_array_equal(system.logw, np.zeros(16))

    def test_general_bootstrap_reduction_bitwise(self):
        from nsmc.smc import bootstrap_pf

        data = simulate(self.SPEC, 5, seed=38)
        model = make_model(self.SPEC)
        out = bootstrap_pf(self.SPEC, data, 40, np.random.default_rng(39))
        rng = np.random.default_rng(39)
        system = nsmc_init(model, 40)
        for t in range(5):
            system = general_nsmc_step(
                system,
                model,
                ExactTransitionProcedure(),
                "transition",
                "one",
                data.observations[t],
                rng,
            )
        assert system.logZ == out.logZ

    def test_general_fa_mode_unbiased(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        data = simulate(spec, 2, seed=40)
        model = make_model(spec)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(41)
        vals = []
        for _ in range(400):
            system = nsmc_init(model, 50)
            for t in range(2):
                system = general_nsmc_step(
                    system, model, InnerSmcProcedure(5), "gamma-ratio", "tau",
                    data.observations[t], rng,
                )
            vals.append(np.exp(system.logZ - kal))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize(
        "n_x,make_proc",
        [
            (3, lambda: InnerSmcProcedure(4)),
            (10, ExactFfbsProcedure),
            # log nu is about -1000 here, so exp(log nu) underflows.
            (800, ExactFfbsProcedure),
        ],
        ids=["smc-bs-n3", "exact-n10", "exact-n800"],
    )
    def test_general_fa_mode_equals_nsmc_step_bitwise(self, n_x, make_proc):
        spec = StssmSpec.chain(n_x=n_x, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        data = simulate(spec, 3, seed=42)
        model = make_model(spec)
        fa_rng, gen_rng = np.random.default_rng(43), np.random.default_rng(43)
        fa = gen = nsmc_init(model, 12)
        for y in data.observations:
            fa = nsmc_step(fa, model, make_proc(), y, fa_rng)
            gen = general_nsmc_step(gen, model, make_proc(), "gamma-ratio", "tau", y, gen_rng)
            np.testing.assert_array_equal(gen.ancestors, fa.ancestors)
        assert np.isfinite(gen.logZ)
        assert gen.logZ == fa.logZ
        np.testing.assert_array_equal(gen.states, fa.states)

    @pytest.mark.parametrize(
        "log_r,nu_hat",
        [
            ("gamma_ratio", "tau"),
            ("gamma-ratio", "ones"),
            ("gamma-ratio", lambda x_prev: np.zeros(len(x_prev))),
            (lambda x_prev, x, y_t: np.zeros(len(x)), "tau"),
        ],
        ids=["typo-log-r", "typo-nu-hat", "callable-nu-hat", "callable-log-r"],
    )
    def test_general_rejects_unknown_forms(self, log_r, nu_hat):
        model = make_model(self.SPEC)
        with pytest.raises(ValueError):
            general_nsmc_step(
                nsmc_init(model, 4), model, InnerSmcProcedure(2), log_r, nu_hat,
                np.zeros(3), np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "logw,dead_tau,nu_hat,y,detail",
        [
            # Previous weights all zero, with constant multipliers.
            (-np.inf, False, "one", 0.0, "t=2$"),
            # Every tau zero, so every adjusted weight is.
            (0.0, True, "tau", 0.0, "all adjusted weights are zero"),
            # An observation so far out that every likelihood underflows.
            (0.0, False, "one", 1e200, "all carried weights zero"),
        ],
        ids=["previous", "adjusted", "carried"],
    )
    def test_general_collapse_carries_step_index(self, logw, dead_tau, nu_hat, y, detail):
        class DeadTau(ExactTransitionProcedure):
            def prepare(self, model, t, x_prev, y_t, rng):
                class Dead:
                    log_tau = np.full(x_prev.shape[0], -np.inf)

                return Dead()

        model = make_model(self.SPEC)
        system = ParticleSystem(np.zeros((4, 3)), (), np.full(4, logw), 0.0, 1)
        proc = DeadTau() if dead_tau else ExactTransitionProcedure()
        with pytest.raises(WeightCollapseError, match=detail) as err:
            general_nsmc_step(
                system, model, proc, "transition", nu_hat, np.full(3, y),
                np.random.default_rng(0),
            )
        assert err.value.step == 2

    @pytest.mark.parametrize(
        "step",
        [
            lambda model, system, y, rng: general_nsmc_step(
                system, model, InnerSmcProcedure(3), "transition", "tau", y, rng
            ),
            lambda model, system, y, rng: general_nsmc_step(
                system, model, ExactTransitionProcedure(), "gamma-ratio", "one", y, rng
            ),
            lambda model, system, y, rng: nsmc_step(
                system, model, ExactTransitionProcedure(), y, rng
            ),
        ],
        ids=["smc-bs-as-transition", "transition-as-gamma-ratio", "nsmc_step-transition"],
    )
    def test_a_procedure_runs_only_for_its_own_proposal(self, step):
        model = make_model(self.SPEC)
        with pytest.raises(InvalidInputError, match="^log_r must be '"):
            step(model, nsmc_init(model, 4), np.zeros(3), np.random.default_rng(0))

    def test_nsmc_run_weighs_transition_draws_for_the_transition(self):
        data = simulate(self.SPEC, 4, seed=36)
        model = make_model(self.SPEC)
        out = nsmc_run(self.SPEC, data, 30, 5, ExactTransitionProcedure(), np.random.default_rng(37))
        rng = np.random.default_rng(37)
        system = nsmc_init(model, 30)
        for t, y in enumerate(data.observations):
            system = general_nsmc_step(
                system, model, ExactTransitionProcedure(), "transition", "tau", y, rng
            )
            probs = normalize_logweights(system.logw)[0]
            mean = probs @ system.states
            assert out.logz_increments[t] == system.log_increment
            np.testing.assert_array_equal(out.filter_means[t], mean)
            np.testing.assert_array_equal(out.filter_vars[t], probs @ (system.states - mean) ** 2)
        assert out.logZ == system.logZ
        assert out.logZ != 0.0
        assert out.method == "nsmc-exact-transition"

    def test_nsmc_run_with_transition_draws_unbiased(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        data = simulate(spec, 2, seed=40)
        kal = kalman_run(spec, data).logZ
        rng = np.random.default_rng(41)
        vals = np.array(
            [
                np.exp(nsmc_run(spec, data, 50, 1, ExactTransitionProcedure(), rng).logZ - kal)
                for _ in range(400)
            ]
        )
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_fully_adapted_step_rejects_non_uniform_weights(self):
        model = make_model(self.SPEC)
        system = ParticleSystem(np.zeros((4, 3)), (), np.array([0.0, -1.0, 0.0, 0.0]), 0.0, 1)
        with pytest.raises(ValueError, match="uniform"):
            nsmc_step(system, model, ExactFfbsProcedure(), np.zeros(3), np.random.default_rng(0))


class TestNsmcRun:
    def test_deterministic_given_seed(self):
        spec = StssmSpec.chain(n_x=4, tau=1.0, lam=1.0, obs_var=0.25)
        data = simulate(spec, 5, seed=42)
        a = nsmc_run(spec, data, 30, 5, "smc+bs", np.random.default_rng(43))
        b = nsmc_run(spec, data, 30, 5, "smc+bs", np.random.default_rng(43))
        np.testing.assert_array_equal(a.filter_means, b.filter_means)
        assert a.logZ == b.logZ

    def test_independent_model_unbiased(self):
        from oracles import independent_loglik

        spec = IndependentSsmSpec(n_x=3, a_coef=0.5, init_var=1.0, trans_var=1.0, obs_var=0.5)
        data = simulate(spec, 3, seed=44)
        truth = independent_loglik(spec, data.observations)
        rng = np.random.default_rng(45)
        ratios = np.array(
            [np.exp(nsmc_run(spec, data, 50, 5, "smc+empirical", rng).logZ - truth) for _ in range(500)]
        )
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_exact_procedure_rejects_the_independent_model(self):
        spec = IndependentSsmSpec(n_x=2, a_coef=0.5)
        data = simulate(spec, 2, seed=48)
        with pytest.raises(InvalidInputError, match="exact-ffbs needs a StssmSpec"):
            nsmc_run(spec, data, 4, 1, ExactFfbsProcedure(), np.random.default_rng(49))

    def test_ess_trace_present(self):
        spec = StssmSpec.chain(n_x=2, tau=1.0, lam=1.0, obs_var=0.5)
        data = simulate(spec, 3, seed=46)
        out = nsmc_run(spec, data, 25, 4, "is", np.random.default_rng(47))
        assert out.ess_trace is not None and np.all(out.ess_trace >= 1.0)


def _normalize(logw):
    from nsmc.smc import normalize_logweights

    return normalize_logweights(logw)
