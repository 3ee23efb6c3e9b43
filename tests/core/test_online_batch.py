"""Bit-exactness of the online controller's batch kernel.

``run_online_batch`` is the online scheme's only kernel; the
per-interval ``run_online_interval`` is a one-element call to it.  So
it is checked against an oracle that shares no batching code with it:
the original per-interval controller, kept here verbatim except that
it solves with the scalar ``solve_synts_poly_reference`` and returns a
plain namespace.  Every field of every outcome must match under
``float.hex``, whether each cell owns its stream (the engine's
``cell_seed``) or cells share one (``sampling_budget``).
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import PlatformConfig, SynTSProblem, ThreadParams
from repro.core.online import OnlineKnobs, run_online_batch
from repro.core.schemes import SCHEME_REGISTRY, _online_knobs
from repro.engine.cells import (
    _interval_problems,
    _resolve_theta,
    cached_interval_problems,
    cell_seed,
)
from repro.errors.estimation import SamplingPlan, estimate_error_function
from repro.experiments import fig_6_18
from repro.experiments.common import STAGES

from .conftest import random_problem
from .poly_reference import solve_synts_poly_reference


# ----------------------------------------------------------------------
# the oracle: the per-interval controller as it was written originally
# ----------------------------------------------------------------------
def _sampling_overheads(thread, plan, config):
    counts = plan.instructions_per_level()
    ratios = np.asarray(plan.ratios, dtype=float)
    tnom_s = config.tnom(plan.v_samp)
    p = np.clip(thread.err.curve(ratios), 0.0, 1.0)
    cpi = p * config.c_penalty + thread.cpi_base
    chunk_times = counts * ratios * tnom_s * cpi
    time = float(np.sum(chunk_times))
    energy = float(np.sum(config.alpha * plan.v_samp**2 * counts * cpi))
    if config.leakage:
        energy += float(
            np.sum(config.leakage * config.alpha * plan.v_samp * chunk_times)
        )
    return time, energy


def online_oracle(problem, theta, rng, knobs=None):
    knobs = knobs or OnlineKnobs()
    cfg = problem.config
    v_samp = knobs.v_samp if knobs.v_samp is not None else cfg.voltages[0]
    if v_samp not in cfg.tnom_table:
        raise ValueError(f"v_samp {v_samp} is not a platform voltage level")
    estimates, records, s_times, s_energies, remaining = [], [], [], [], []
    for thread in problem.threads:
        n_samp = knobs.budget_for(thread.n_instructions, cfg.n_tsr)
        plan = SamplingPlan(
            ratios=tuple(cfg.tsr_levels), n_samp=n_samp, v_samp=v_samp
        )
        estimate, record = estimate_error_function(thread.err, plan, rng)
        t_s, e_s = _sampling_overheads(thread, plan, cfg)
        estimates.append(estimate)
        records.append(record)
        s_times.append(t_s)
        s_energies.append(e_s)
        remaining.append(
            ThreadParams(
                n_instructions=max(1, thread.n_instructions - n_samp),
                cpi_base=thread.cpi_base,
                err=estimate,
            )
        )
    estimated_problem = SynTSProblem(config=cfg, threads=tuple(remaining))
    decision = solve_synts_poly_reference(estimated_problem, theta)
    actual_problem = SynTSProblem(
        config=cfg,
        threads=tuple(
            ThreadParams(rt.n_instructions, rt.cpi_base, orig.err)
            for rt, orig in zip(remaining, problem.threads)
        ),
    )
    evaluation = actual_problem.evaluate_indices(decision.indices)
    thread_times = [s + r for s, r in zip(s_times, evaluation.times)]
    return SimpleNamespace(
        estimates=tuple(estimates),
        records=tuple(records),
        sampling_times=tuple(s_times),
        sampling_energies=tuple(s_energies),
        decision=decision,
        remaining_evaluation=evaluation,
        theta=theta,
        total_energy=sum(s_energies) + evaluation.total_energy,
        texec=max(thread_times),
    )


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def image(outcome):
    """Every outcome field as exact, comparable plain data."""
    d = outcome.decision
    return {
        "estimates": [(_hex(e.ratios), _hex(e.probs)) for e in outcome.estimates],
        "records": [
            (
                r.plan.ratios,
                r.plan.n_samp,
                float(r.plan.v_samp).hex(),
                r.instructions.dtype.str,
                r.instructions.tolist(),
                r.errors.dtype.str,
                r.errors.tolist(),
            )
            for r in outcome.records
        ],
        "sampling_times": _hex(outcome.sampling_times),
        "sampling_energies": _hex(outcome.sampling_energies),
        "decision": (
            d.indices,
            d.assignment,
            _hex(d.evaluation.energies),
            _hex(d.evaluation.times),
            d.cost.hex(),
            d.theta.hex(),
            d.critical_thread,
        ),
        "remaining": (
            _hex(outcome.remaining_evaluation.energies),
            _hex(outcome.remaining_evaluation.times),
        ),
        "theta": float(outcome.theta).hex(),
        "totals": (float(outcome.total_energy).hex(), float(outcome.texec).hex()),
    }


def assert_matches_oracle(problems, thetas, rngs, oracle_rngs, knobs):
    outcomes = run_online_batch(problems, thetas, rngs, knobs)
    expected = [
        online_oracle(p, t, r, k)
        for p, t, r, k in zip(problems, thetas, oracle_rngs, knobs)
    ]
    assert len(outcomes) == len(expected)
    for got, want in zip(outcomes, expected):
        assert image(got) == image(want)


def _cell_rngs(specs):
    return [np.random.default_rng(cell_seed(s)) for s in specs]


# ----------------------------------------------------------------------
# the kernel against the oracle
# ----------------------------------------------------------------------
class TestKernelMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fig_6_18_online_cells(self, seed):
        """Every online cell of Fig. 6.18, one stream per cell, batched
        as the engine batches them; the scheme's totals agree too."""
        online = SCHEME_REGISTRY.get("online")
        n_cells = 0
        for stage in STAGES:
            for (name, scheme), specs in fig_6_18._stage_specs(
                stage, seed
            ).items():
                if scheme != "online":
                    continue
                problems = cached_interval_problems(name, stage)
                cells = [problems[s.interval] for s in specs]
                thetas = [_resolve_theta(s, problems) for s in specs]
                knobs = [_online_knobs(s) for s in specs]
                assert_matches_oracle(
                    cells, thetas, _cell_rngs(specs), _cell_rngs(specs), knobs
                )
                expected = [
                    online_oracle(p, t, r, k)
                    for p, t, r, k in zip(cells, thetas, _cell_rngs(specs), knobs)
                ]
                assert online.evaluate_batch(cells, thetas, specs) == [
                    (float(o.total_energy), float(o.texec)) for o in expected
                ]
                n_cells += len(specs)
        assert n_cells == 63

    @pytest.mark.parametrize("n_samp", [2_000, 10_000, 50_000, 150_000])
    def test_sampling_budget_shared_stream(self, n_samp):
        """One generator drawn across the intervals in order, as
        ``ablation_sampling_budget`` draws it."""
        problems = cached_interval_problems("radix", "decode")
        theta = problems[0].equal_weight_theta()
        n = len(problems)
        shared, oracle_shared = (np.random.default_rng(3) for _ in range(2))
        assert_matches_oracle(
            problems,
            [theta] * n,
            [shared] * n,
            [oracle_shared] * n,
            [OnlineKnobs(n_samp=n_samp)] * n,
        )

    @pytest.mark.parametrize("share", [False, True])
    def test_mixed_shape_batch(self, share):
        """Thread counts, voltage and TSR level counts differ across
        the batch (ten levels exercise numpy's pairwise row sums); a
        problem may repeat.  Cell order, not group order, sets the
        draws."""
        gen = np.random.default_rng(42)
        radix = cached_interval_problems("radix", "decode")[0]
        small = random_problem(gen, m=3, n_volts=3, n_tsr=3)
        wide = random_problem(gen, m=2, n_volts=2, n_tsr=10)
        fmm = cached_interval_problems("fmm", "complex_alu")[1]
        # levels out of ascending order: sampled in visit order,
        # projected in ratio order
        shuffled = SynTSProblem(
            config=replace(small.config, tsr_levels=(0.82, 1.0, 0.64)),
            threads=small.threads,
        )
        problems = [small, radix, wide, fmm, shuffled, small, radix]
        thetas = [p.equal_weight_theta() * f for p, f in zip(
            problems, (1.0, 0.5, 2.0, 1.0, 1.0, 3.0, 1.0)
        )]
        knobs = [None, OnlineKnobs(n_samp=20_000), None,
                 OnlineKnobs(sampling_fraction=0.2), None, None, None]
        n = len(problems)
        if share:
            rng, oracle_rng = (np.random.default_rng(5) for _ in range(2))
            rngs, oracle_rngs = [rng] * n, [oracle_rng] * n
        else:
            rngs = [np.random.default_rng(s) for s in range(n)]
            oracle_rngs = [np.random.default_rng(s) for s in range(n)]
        assert_matches_oracle(problems, thetas, rngs, oracle_rngs, knobs)

    def test_platform_overrides(self):
        """A replay-penalty and leakage override (the leakage term of
        both the tables and the sampling energy)."""
        problems = _interval_problems("radix", "decode", 8.0, 0.3, None)
        thetas = [problems[0].equal_weight_theta()] * len(problems)
        seeds = range(len(problems))
        assert_matches_oracle(
            problems,
            thetas,
            [np.random.default_rng(s) for s in seeds],
            [np.random.default_rng(s) for s in seeds],
            [OnlineKnobs(n_samp=10_000)] * len(problems),
        )

    def test_non_default_v_samp(self):
        problems = cached_interval_problems("cholesky", "simple_alu")
        cfg = problems[0].config
        thetas = [problems[0].equal_weight_theta()] * len(problems)
        knobs = [
            OnlineKnobs(n_samp=20_000, v_samp=cfg.voltages[2 + k % 3])
            for k in range(len(problems))
        ]
        seeds = range(len(problems))
        assert_matches_oracle(
            problems,
            thetas,
            [np.random.default_rng(s) for s in seeds],
            [np.random.default_rng(s) for s in seeds],
            knobs,
        )


class TestKernelInputs:
    def test_misaligned_inputs_rejected(self):
        problems = cached_interval_problems("radix", "decode")[:2]
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="generators"):
            run_online_batch(problems, [1.0, 1.0], [rng], [None, None])

    def test_duplicate_tsr_levels_rejected(self):
        problem = random_problem(np.random.default_rng(1), m=2)
        cfg = problem.config
        dup = PlatformConfig(
            voltages=cfg.voltages,
            tnom_table=dict(cfg.tnom_table),
            tsr_levels=(0.64, 0.64, 1.0),
        )
        problem = SynTSProblem(config=dup, threads=problem.threads)
        with pytest.raises(ValueError, match="distinct"):
            run_online_batch(
                [problem], [1.0], [np.random.default_rng(0)], [None]
            )
