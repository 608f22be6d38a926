"""Session fixtures shared by the unit and acceptance tests.

The expensive runs (the three preset experiments and a 500-step invariant
trace) are executed once per session and reused everywhere.
"""
import math
import signal
import time

import numpy as np
import pytest

from dvssgt import algo, cli, oracle, theory

TEST_TIMEOUT_S = 60   # per test; the slowest takes a few seconds


class TestTimeout(BaseException):
    """A test ran past TEST_TIMEOUT_S. A BaseException, so that no `except
    Exception` in the code under test swallows it and hypothesis does not
    replay it as a failing example."""


@pytest.fixture(autouse=True)
def per_test_timeout():
    """Fail a test that runs past TEST_TIMEOUT_S instead of hanging the
    suite. Session fixtures are built before it is armed. Where SIGALRM is
    missing (Windows) tests run unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(_signum, _frame):
        raise TestTimeout(f"test ran past {TEST_TIMEOUT_S} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    """(algo.Run, wall seconds) for the fig1 preset."""
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
    """500 engine iterations from algo.iterate: the network's samples at k =
    500 and the per-step identity deviations."""
    problem, _g, mix = fig1_instance
    streams = oracle.StreamFactory(2024)
    x0 = algo.default_x0(problem, streams, 1)
    alpha = 0.01
    states = [(x[0], y[0], g[0], samples) for block in algo.iterate(
        problem, mix, alpha, algo.geometric_schedule(0.98), streams, x0, True, 500, math.inf)
        for x, y, g, samples in zip(*block)]
    track_dev = [float(np.linalg.norm(y.mean(axis=0) - g.mean(axis=0)))
                 for _x, y, g, _n in states]
    avg_dev = [float(np.linalg.norm(x.mean(axis=0) - (px.mean(axis=0) - alpha * py.mean(axis=0))))
               for (px, py, _pg, _pn), (x, _y, _g, _n) in zip(states, states[1:])]
    assert len(states) == 501
    return states[-1][3], np.array(track_dev), np.array(avg_dev)
