import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodgp import prior, se3, solver
from rodgp.prior import PriorHyperparams, StateNode

from conftest import random_pose
from oracles import linearize_one, prior_terms, sensors, stack_nodes

rng = np.random.default_rng(1)

HYPER = PriorHyperparams(np.eye(6), np.array([1.0, 0, 0, 0, 0, 0]))


def rollout_node(eps, ds, T_prev=None):
    T_prev = np.eye(4) if T_prev is None else T_prev
    return StateNode(ds, se3.exp_se3(ds * eps) @ T_prev, eps)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        PriorHyperparams(np.eye(5), np.zeros(6))
    with pytest.raises(ValueError):
        PriorHyperparams(-np.eye(6), np.zeros(6))
    asym = np.eye(6)
    asym[0, 1] = 0.1
    with pytest.raises(ValueError):
        PriorHyperparams(asym, np.zeros(6))
    with pytest.raises(ValueError):
        PriorHyperparams(np.eye(6), np.zeros(5))


def test_state_node_copy_is_independent():
    node = StateNode(0.0, np.eye(4), np.zeros(6))
    other = node.copy()
    other.T[0, 3] = 5.0
    other.eps[0] = 5.0
    assert node.T[0, 3] == 0.0
    assert node.eps[0] == 0.0


def test_uniform_grid():
    grid = prior.uniform_grid(2.0, 4)
    np.testing.assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        prior.uniform_grid(2.0, 0)
    with pytest.raises(ValueError):
        prior.uniform_grid(-1.0, 4)


def test_validate_grid_rejects_non_increasing():
    with pytest.raises(ValueError):
        prior.validate_grid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        prior.validate_grid(np.array([0.0, 2.0, 1.0]))


def test_transition_identity_and_structure():
    np.testing.assert_array_equal(prior.transition(1.3, 1.3), np.eye(12))
    Phi = prior.transition(2.0, 1.0)
    np.testing.assert_array_equal(Phi[:6, 6:], np.eye(6))
    np.testing.assert_array_equal(Phi[:6, :6], np.eye(6))
    np.testing.assert_array_equal(Phi[6:, 6:], np.eye(6))
    with pytest.raises(ValueError):
        prior.transition(0.9, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 2.0, allow_nan=False),
    st.floats(0.0, 2.0, allow_nan=False),
    st.floats(0.0, 2.0, allow_nan=False),
)
def test_transition_semigroup(a, b, c):
    s0, s1, s2 = sorted([a, b, c])
    np.testing.assert_allclose(
        prior.transition(s2, s1) @ prior.transition(s1, s0),
        prior.transition(s2, s0),
        atol=1e-12,
    )


def test_process_cov_blocks():
    Q = prior.process_cov(1.0, HYPER)
    np.testing.assert_allclose(Q[:6, :6], np.eye(6) / 3.0)
    np.testing.assert_allclose(Q[:6, 6:], np.eye(6) / 2.0)
    np.testing.assert_allclose(Q[6:, 6:], np.eye(6))
    with pytest.raises(ValueError):
        prior.process_cov(0.0, HYPER)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 1.0, allow_nan=False))
def test_process_cov_inverse(ds):
    Q = prior.process_cov(ds, HYPER)
    Qi = prior.process_cov_inv(ds, HYPER)
    np.testing.assert_allclose(Q @ Qi, np.eye(12), atol=1e-8)
    eigvals = np.linalg.eigvalsh(Q)
    assert eigvals.min() > 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 6),
    st.floats(0.01, 0.5, allow_nan=False),
)
def test_prior_error_zero_on_constant_strain(eps_tuple, ds):
    eps = np.array(eps_tuple)
    prev = StateNode(0.0, np.eye(4), eps)
    cur = rollout_node(eps, ds)
    np.testing.assert_allclose(prior_terms(prev, cur)[0], np.zeros(12), atol=1e-10)


def test_prior_error_zero_on_identical_nodes():
    node = StateNode(0.3, random_pose(rng), np.array([1.0, 0, 0, 0.1, 0, 0]))
    np.testing.assert_allclose(
        prior_terms(node, StateNode(0.3, node.T, node.eps))[0],
        np.zeros(12),
        atol=1e-14,
    )


def test_prior_error_matches_local_variable_form():
    # Rebuild the error from the local Markov variables: gamma holds the
    # relative pose twist and the body-velocity-corrected strain.
    prev = StateNode(0.1, random_pose(rng, 0.4), rng.uniform(-0.3, 0.3, 6))
    cur = StateNode(0.35, random_pose(rng, 0.4), rng.uniform(-0.3, 0.3, 6))
    xi = se3.log_se3(cur.T @ se3.pose_inverse(prev.T))
    gamma_prev = np.concatenate([np.zeros(6), prev.eps])
    gamma_cur = np.concatenate([xi, se3.left_jacobian_inv(xi) @ cur.eps])
    expected = gamma_cur - prior.transition(cur.s, prev.s) @ gamma_prev
    np.testing.assert_allclose(prior_terms(prev, cur)[0], expected, atol=1e-12)


def test_prior_error_jacobian_blocks_at_rest():
    prev = StateNode(0.0, np.eye(4), np.zeros(6))
    cur = StateNode(1.0, np.eye(4), np.zeros(6))
    E = prior_terms(prev, cur)[1]
    assert E.shape == (12, 24)
    np.testing.assert_allclose(E[:6, :6], -np.eye(6), atol=1e-12)
    np.testing.assert_allclose(E[:6, 6:12], -np.eye(6), atol=1e-12)
    np.testing.assert_allclose(E[:6, 12:18], np.eye(6), atol=1e-12)
    np.testing.assert_allclose(E[6:, 18:24], np.eye(6), atol=1e-12)


def test_prior_error_jacobian_finite_difference():
    # The strain rows are exact only to first order in the relative pose
    # twist, so the check lives in the small-step regime where that
    # modeling error sits below the finite-difference tolerance.
    h = 1e-6
    worst = 0.0
    for _ in range(40):
        ds = rng.uniform(1e-3, 0.015)
        eps = np.array([1.0, 0, 0, 0, 0, 0]) + rng.normal(0.0, 0.01, 6)
        prev = StateNode(0.0, random_pose(rng, 0.5), eps + rng.normal(0.0, 1e-5, 6))
        cur = rollout_node(eps, ds, prev.T)
        cur.eps = cur.eps + rng.normal(0.0, 1e-5, 6)
        e, E = prior_terms(prev, cur)
        assert np.abs(e).max() < 1.0
        num = np.zeros((12, 24))
        for j in range(24):
            node_idx, local = divmod(j, 12)
            for sign in (1.0, -1.0):
                p = prev.copy()
                c = cur.copy()
                node = p if node_idx == 0 else c
                if local < 6:
                    node.T = se3.exp_se3(sign * h * np.eye(6)[local]) @ node.T
                else:
                    node.eps = node.eps + sign * h * np.eye(6)[local - 6]
                num[:, j] += sign * prior_terms(p, c)[0] / (2.0 * h)
        denom = max(1.0, np.abs(num).max())
        worst = max(worst, np.abs(E - num).max() / denom)
    assert worst < 1e-4


def test_prior_cost_values():
    # linearize prices one interval of length 1 whose prior error is x
    # times the first unit vector: at rest the node poses differ by
    # exp(x e_0), so the cost is 0.5 * 12 x^2 under Qc = I.
    grid = np.array([0.0, 1.0])

    def cost(x):
        T = se3.exp_se3(x * np.eye(6)[0])
        nodes = [StateNode(0.0, np.eye(4), np.zeros(6)), StateNode(1.0, T, np.zeros(6))]
        np.testing.assert_allclose(prior_terms(*nodes)[0], x * np.eye(12)[0], atol=1e-15)
        stack = stack_nodes(nodes)
        return linearize_one(solver.Problem(grid, HYPER, sensors([]), stack), stack)[3]

    assert cost(0.0) == 0.0
    np.testing.assert_allclose(cost(1.0), 6.0, atol=1e-12)
    np.testing.assert_allclose(cost(2.0), 24.0)


def test_sample_prior_reproducible():
    grid = prior.uniform_grid(0.5, 10)
    a = prior.sample_prior(HYPER, grid, 3, np.random.default_rng(4))
    b = prior.sample_prior(HYPER, grid, 3, np.random.default_rng(4))
    assert a.T.shape == (3, 11, 4, 4) and a.eps.shape == (3, 11, 6)
    np.testing.assert_array_equal(a.s, np.broadcast_to(grid, (3, 11)))
    np.testing.assert_array_equal(a.T, b.T)
    np.testing.assert_array_equal(a.eps, b.eps)


def test_sample_prior_tiny_noise_follows_mean():
    hyper = PriorHyperparams(1e-18 * np.eye(6), np.array([1.0, 0, 0, 0, 0, 0]))
    grid = prior.uniform_grid(2.0, 8)
    (sample,) = prior.sample_prior(hyper, grid, 1, np.random.default_rng(2))
    assert len(sample) == grid.size
    for s_val, node in zip(grid, sample):
        np.testing.assert_allclose(node.T[:3, 3], [s_val, 0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(node.eps, hyper.eps_bar, atol=1e-8)


def test_sample_prior_respects_root_pose():
    root = random_pose(rng)
    grid = prior.uniform_grid(0.5, 4)
    samples = prior.sample_prior(HYPER, grid, 2, np.random.default_rng(3), root_pose=root)
    np.testing.assert_array_equal(samples.T[:, 0], np.broadcast_to(root, (2, 4, 4)))


def test_sample_prior_covariance_matches_process_noise():
    # Empirical covariance of the first-interval pose twist against the
    # top-left process noise block, 20000 draws, 5% of the largest entry.
    qc = np.diag([0.04, 0.03, 0.02, 0.05, 0.01, 0.02])
    hyper = PriorHyperparams(qc, np.zeros(6))
    grid = np.array([0.0, 0.5])
    samples = prior.sample_prior(hyper, grid, 20000, np.random.default_rng(7))
    xis = se3.log_se3(samples.T[:, 1] @ se3.pose_inverse(samples.T[:, 0]))
    emp = np.cov(xis.T)
    expected = prior.process_cov(0.5, hyper)[:6, :6]
    assert np.abs(emp - expected).max() < 0.05 * np.abs(expected).max()


def test_sample_prior_long_rod_lateral_spread():
    # Bending-dominant PSD on a length-10 rod: 300 samples fan the tips
    # out by well over a unit sideways.
    hyper = PriorHyperparams(
        np.diag([0.01, 0.01, 0.01, 0.001, 0.001, 0.001]),
        np.array([1.0, 0, 0, 0, 0, 0]),
    )
    grid = prior.uniform_grid(10.0, 50)
    samples = prior.sample_prior(hyper, grid, 300, np.random.default_rng(0))
    tips = samples.T[:, -1, :3, 3]
    spread = tips.std(axis=0)
    assert spread[1] > 1.0 and spread[2] > 1.0


def random_chain(gen, n):
    """n nodes on increasing arclengths, each a small random step from the last."""
    s = np.cumsum(gen.uniform(0.005, 0.02, n))
    nodes = [StateNode(s[0], random_pose(gen, 0.5), gen.uniform(-0.5, 0.5, 6))]
    for k in range(1, n):
        step = np.concatenate([gen.uniform(-0.02, 0.02, 3), gen.uniform(-0.4, 0.4, 3)])
        nodes.append(StateNode(s[k], se3.exp_se3(step) @ nodes[-1].T, gen.uniform(-0.5, 0.5, 6)))
    return nodes


def test_stacked_prior_terms_equal_unstacked_rows():
    nodes = random_chain(np.random.default_rng(11), 12)
    chain = stack_nodes(nodes)
    prev = StateNode(chain.s[:-1], chain.T[:-1], chain.eps[:-1])
    cur = StateNode(chain.s[1:], chain.T[1:], chain.eps[1:])
    errors, jacobians = prior_terms(prev, cur)
    assert errors.shape == (11, 12) and jacobians.shape == (11, 12, 24)
    for k in range(11):
        error, jacobian = prior_terms(nodes[k], nodes[k + 1])
        np.testing.assert_allclose(errors[k], error, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(jacobians[k], jacobian, rtol=1e-14, atol=1e-15)


def test_stacked_interval_matrices_equal_unstacked():
    ds = np.array([0.01, 0.2, 1.5])
    for fn in (prior.process_cov, prior.process_cov_inv):
        stacked = fn(ds, HYPER)
        for k in range(ds.size):
            np.testing.assert_array_equal(stacked[k], fn(ds[k], HYPER))
    with pytest.raises(ValueError):
        prior.process_cov(np.array([0.1, 0.0]), HYPER)
    stacked = prior.transition(ds + 1.0, np.ones(3))
    for k in range(ds.size):
        np.testing.assert_array_equal(stacked[k], prior.transition(ds[k] + 1.0, 1.0))
    np.testing.assert_array_equal(prior.transition_coeffs(ds), [[[1.0, d], [0.0, 1.0]] for d in ds])


def test_stacked_state_node_acts_as_a_node_list():
    gen = np.random.default_rng(12)
    nodes = [StateNode(0.1 * k, random_pose(gen), gen.standard_normal(6)) for k in range(5)]
    stack = stack_nodes(nodes)
    assert len(stack) == 5
    with pytest.raises(TypeError):
        len(nodes[0])
    for k in (0, 3, -1, -5):
        node = stack[k]
        assert isinstance(node.s, float) and node.s == nodes[k].s
        np.testing.assert_array_equal(node.T, nodes[k].T)
        np.testing.assert_array_equal(node.eps, nodes[k].eps)
    assert [node.s for node in stack] == [node.s for node in nodes]
    np.testing.assert_array_equal(stack[1:3].T, stack.T[1:3])
    assert stack_nodes(stack) is stack
    again = stack_nodes(list(stack))
    for field in ("s", "T", "eps"):
        np.testing.assert_array_equal(getattr(again, field), getattr(stack, field))

    # A node read out is a copy; item assignment writes into the stack.
    copy = stack.copy()
    node = stack[2]
    node.T[0, 3] += 1.0
    np.testing.assert_array_equal(stack.T, copy.T)
    stack[2] = node
    assert stack.T[2, 0, 3] == copy.T[2, 0, 3] + 1.0
    np.testing.assert_array_equal(stack.T[[0, 1, 3, 4]], copy.T[[0, 1, 3, 4]])
    stack[2] = copy[2]
    np.testing.assert_array_equal(stack.T, copy.T)
    # copy() owns its arrays.
    copy.eps[0] += 1.0
    assert not np.array_equal(copy.eps, stack.eps)
