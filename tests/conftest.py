"""Session fixtures shared by the unit and acceptance tests.

The expensive runs (the three preset experiments and a 500-step invariant
trace) are executed once per session and reused everywhere.
"""
import time

import numpy as np
import pytest

from dvssgt import algo, cli, oracle, theory


def preset(name, command="run"):
    """A preset resolved against the config schema, every default filled in."""
    cfg, errors = cli.resolve_config(cli.load_config(name), command)
    assert errors == []
    return cfg


@pytest.fixture(scope="session")
def fig1_cfg():
    return preset("fig1")


@pytest.fixture(scope="session")
def fig1_instance(fig1_cfg):
    return cli.build_instance(fig1_cfg)


@pytest.fixture(scope="session")
def fig1_run(fig1_cfg, fig1_instance):
    """(RunResult, wall seconds) for the fig1 preset."""
    problem, g, mix = fig1_instance
    start = time.perf_counter()
    result = cli.run_experiment(fig1_cfg, problem=problem, g=g, mix=mix)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig2_run():
    return cli.run_experiment(preset("fig2"))


@pytest.fixture(scope="session")
def fig3_runs():
    cfg = preset("fig3", "compare")
    problem, g, mix = cli.build_instance(cfg)
    return {algorithm: cli.run_experiment(cfg, problem=problem, g=g, mix=mix,
                                          algorithm=algorithm)
            for algorithm in cli.ALGORITHMS}


@pytest.fixture(scope="session")
def fig1_alpha_star(fig1_instance):
    problem, _g, mix = fig1_instance
    return theory.find_alpha(problem.eta, problem.lips, mix.sigma_A,
                             problem.n, mix.norm_A_minus_I)


@pytest.fixture(scope="session")
def zero_noise_trace(fig1_instance, fig1_alpha_star):
    """Deterministic-oracle run at a feasible step size, 400 iterations."""
    problem, g, mix = fig1_instance
    alpha_star, _rho = fig1_alpha_star
    det = oracle.deterministic(problem)
    return algo.run_path(det, mix, g, "dvss-sgt", alpha_star / 2.0,
                         algo.geometric_schedule(0.98),
                         algo.StopRule("max_iters", 400), seed=2024), alpha_star / 2.0


@pytest.fixture(scope="session")
def long_invariant_run(fig1_instance):
    """500 hand-stepped engine iterations recording per-step identity deviations."""
    problem, _g, mix = fig1_instance
    sched = algo.geometric_schedule(0.98)
    streams = oracle.StreamFactory(2024, 0)
    x0 = algo.default_x0(problem, streams)
    st = algo.start(problem, x0, sched, streams)
    alpha = 0.01
    track_dev = [float(np.linalg.norm(st.y.mean(axis=0) - st.g_prev.mean(axis=0)))]
    avg_dev = []
    for _ in range(500):
        prev = st
        st = algo.step(st, mix, problem, alpha, sched, streams)
        track_dev.append(float(np.linalg.norm(
            st.y.mean(axis=0) - st.g_prev.mean(axis=0))))
        avg_dev.append(float(np.linalg.norm(
            st.x.mean(axis=0) - (prev.x.mean(axis=0) - alpha * prev.y.mean(axis=0)))))
    return st, np.array(track_dev), np.array(avg_dev)
