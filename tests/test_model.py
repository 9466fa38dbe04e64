import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet.model import (
    HawkesParams,
    SparseInteractionMatrix,
    build_subclass_instance,
    number,
    params_from_json,
    params_to_json,
    permute_params,
    require_subcritical,
    sample_random_instance,
    support_of,
    validate,
)


def scalar_params(theta: float, mu: float = 1.0, beta: float = 1.0) -> HawkesParams:
    rows = ((((0, theta),),) if theta > 0 else ((),))
    return HawkesParams(
        mu=np.array([mu]),
        theta=SparseInteractionMatrix(d=1, rows=rows),
        beta=beta,
        k=1,
        alpha=theta if theta > 0 else 1.0,
        w_minus=1.0,
        w_plus=1.0,
    )


class TestValidate:
    def test_scalar_subcritical_is_valid(self):
        assert validate(scalar_params(0.5)) == []

    def test_supercritical_flags_gamma(self):
        violations = validate(scalar_params(1.5))
        assert [v.code for v in violations] == ["subcritical"]

    def test_row_sparsity_violation_points_at_row(self):
        theta = SparseInteractionMatrix(d=2, rows=(((0, 0.1), (1, 0.1)), ()))
        params = HawkesParams(
            mu=np.ones(2), theta=theta, beta=1.0, k=1,
            alpha=0.1, w_minus=1.0, w_plus=1.0,
        )
        codes = {(v.code, v.where) for v in validate(params)}
        assert ("row-sparsity", 0) in codes

    def test_weight_and_rate_bounds(self):
        theta = SparseInteractionMatrix(d=2, rows=(((1, 0.3),), ()))
        params = HawkesParams(
            mu=np.array([1.0, 5.0]), theta=theta, beta=1.0, k=1,
            alpha=0.1, w_minus=1.0, w_plus=1.0, mu_minus=0.5, mu_plus=2.0,
        )
        codes = {v.code for v in validate(params)}
        assert codes == {"weight-bound", "rate-bound"}


    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bounds", [{}, {"mu_minus": 0.5, "mu_plus": 1.5}],
                             ids=["unbounded", "bounded"])
    def test_non_finite_rate_flags_rate_bound(self, mu, bounds):
        params = HawkesParams(
            mu=np.array([mu, 1.0]), theta=SparseInteractionMatrix(d=2, rows=((), ())),
            beta=1.0, k=1, alpha=0.1, w_minus=1.0, w_plus=1.0, **bounds,
        )
        assert [(v.code, v.where) for v in validate(params)] == [("rate-bound", 0)]

    def test_nonpositive_beta_is_not_subcritical(self):
        for beta in (0.0, -1.0):
            violations = validate(scalar_params(0.5, beta=beta))
            assert [v.code for v in violations] == ["subcritical"]
            assert "beta" in violations[0].detail


class TestSampleRandomInstance:
    def test_deterministic_in_seed(self):
        kwargs = dict(d=20, k=2, alpha=0.1, w_minus=0.5, w_plus=1.0,
                      mu_minus=0.5, mu_plus=1.5, beta=1.0)
        a = sample_random_instance(seed=7, **kwargs)
        b = sample_random_instance(seed=7, **kwargs)
        assert params_to_json(a) == params_to_json(b)
        c = sample_random_instance(seed=8, **kwargs)
        assert params_to_json(a) != params_to_json(c)

    def test_k_zero_gives_empty_interaction(self):
        p = sample_random_instance(d=5, k=0, alpha=0.1, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=0)
        assert p.theta.rows == ((),) * 5

    def test_sampled_instances_validate_clean(self):
        for seed in range(10):
            p = sample_random_instance(d=100, k=2, alpha=0.2, w_minus=0.5,
                                       w_plus=1.0, mu_minus=0.5, mu_plus=1.5,
                                       beta=1.0, seed=seed)
            assert validate(p) == []
            assert all(len(row) == 2 for row in p.theta.rows)

    def test_rejects_supercritical_request(self):
        with pytest.raises(ValueError, match="subcriticality"):
            sample_random_instance(d=5, k=2, alpha=1.0, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=0)


class TestSubclassInstance:
    def test_single_edge_construction(self):
        p = build_subclass_instance(d=3, k=1, i_star=0, S=[2], theta_minus=0.4,
                                    mu_bar=1.0, mu_bar_star=2.0, beta=1.0)
        assert p.theta.rows == (((2, 0.4),), (), ())
        assert p.mu[0] == 2.0 and p.mu[1] == 1.0

    def test_rejects_target_in_support(self):
        with pytest.raises(ValueError, match="exclude the target"):
            build_subclass_instance(d=3, k=1, i_star=0, S=[0], theta_minus=0.4,
                                    mu_bar=1.0, mu_bar_star=1.0, beta=1.0)

    def test_rejects_wrong_support_size(self):
        with pytest.raises(ValueError, match="support size"):
            build_subclass_instance(d=5, k=2, i_star=0, S=[1], theta_minus=0.2,
                                    mu_bar=1.0, mu_bar_star=1.0, beta=1.0)

    def test_validates_clean_when_subcritical(self):
        for k, d in [(1, 4), (2, 6), (3, 10)]:
            p = build_subclass_instance(d=d, k=k, i_star=1,
                                        S=list(range(2, 2 + k)), theta_minus=0.2,
                                        mu_bar=1.0, mu_bar_star=1.0, beta=1.0)
            assert validate(p) == []


def test_support_round_trip_through_json():
    p = sample_random_instance(d=30, k=3, alpha=0.1, w_minus=0.5, w_plus=1.0,
                               mu_minus=0.5, mu_plus=1.5, beta=2.0, seed=11)
    q = params_from_json(params_to_json(p))
    assert support_of(q) == support_of(p)
    assert params_to_json(q) == params_to_json(p)


def test_rate_bounds_round_trip_through_json():
    p = sample_random_instance(d=5, k=2, alpha=0.2, w_minus=0.5, w_plus=1.0,
                               mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=0)
    q = params_from_json(params_to_json(p))
    assert (q.mu_minus, q.mu_plus) == (0.5, 1.5)
    assert params_to_json(q) == params_to_json(p)
    # the rate-bound check survives the round trip
    low = HawkesParams(mu=q.mu * 0.1, theta=q.theta, beta=q.beta, k=q.k,
                       alpha=q.alpha, w_minus=q.w_minus, w_plus=q.w_plus,
                       mu_minus=q.mu_minus, mu_plus=q.mu_plus)
    assert {v.code for v in validate(low)} == {"rate-bound"}
    # files without the optional bounds still load
    unbounded = scalar_params(0.5)
    assert params_from_json(params_to_json(unbounded)).mu_minus is None


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hawkes_params(draw):
    # Any finite values, in the class or not: the file format has to keep them all.
    d = draw(st.integers(1, 6))
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    entries = [(i, j, draw(weight)) for i in range(d)
               for j in sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))]
    bound = st.none() | FINITE
    return HawkesParams(
        mu=np.array(draw(st.lists(FINITE, min_size=d, max_size=d)), dtype=float),
        theta=SparseInteractionMatrix.from_entries(d, entries),
        beta=draw(FINITE), k=draw(st.integers(0, d)), alpha=draw(FINITE),
        w_minus=draw(FINITE), w_plus=draw(FINITE),
        mu_minus=draw(bound), mu_plus=draw(bound),
    )


@settings(max_examples=100, deadline=None)
@given(p=hawkes_params())
def test_model_json_round_trip_keeps_every_field(p):
    text = params_to_json(p)
    q = params_from_json(text)
    assert q.mu.tobytes() == p.mu.tobytes()
    assert q.theta.rows == p.theta.rows
    assert (q.beta, q.k, q.alpha, q.w_minus, q.w_plus) == (p.beta, p.k, p.alpha, p.w_minus, p.w_plus)
    assert (q.mu_minus, q.mu_plus) == (p.mu_minus, p.mu_plus)
    assert params_to_json(q) == text


def test_permutation_equivariance():
    p = sample_random_instance(d=8, k=2, alpha=0.1, w_minus=0.5, w_plus=1.0,
                               mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=3)
    rng = np.random.default_rng(0)
    pi = rng.permutation(8)
    q = permute_params(p, pi)
    assert np.array_equal(q.theta.to_dense()[np.ix_(pi, pi)], p.theta.to_dense())
    assert np.array_equal(q.mu[pi], p.mu)
    # A numpy permutation still gives a model that saves and loads.
    r = params_from_json(params_to_json(q))
    assert r.theta.rows == q.theta.rows and r.mu.tobytes() == q.mu.tobytes()
    bounds = ("beta", "k", "alpha", "w_minus", "w_plus", "mu_minus", "mu_plus")
    assert [getattr(r, b) for b in bounds] == [getattr(p, b) for b in bounds]
    with pytest.raises(ValueError, match="pi must hold integers"):
        permute_params(p, pi.astype(float))
    sup_p, sup_q = support_of(p), support_of(q)
    for i in range(8):
        assert sup_q.rows[pi[i]] == frozenset(pi[j] for j in sup_p.rows[i])


def test_sparse_matrix_rejects_malformed_rows():
    with pytest.raises(ValueError, match="sorted"):
        SparseInteractionMatrix(d=2, rows=(((1, 0.1), (0, 0.1)), ()))
    with pytest.raises(ValueError, match="> 0"):
        SparseInteractionMatrix(d=1, rows=(((0, 0.0),),))
    with pytest.raises(ValueError, match="out of range"):
        SparseInteractionMatrix(d=1, rows=(((1, 0.5),),))


@pytest.mark.parametrize("value, kwargs, message", [
    (True, {}, "x must be a number, got True"),
    ("1", {}, "x must be a number"),
    (1.5, {"integer": True}, "x must be an integer"),
    pytest.param(10**400, {}, "x is too large for a float", id="401-digits"),
    pytest.param(-10**400, {"integer": True}, "x is too large for a float",
                 id="minus-401-digits-integer"),
    (0.0, {"positive": True}, "x must be positive and finite"),
    (math.inf, {"positive": True}, "x must be positive and finite"),
    (math.nan, {"positive": True}, "x must be positive and finite"),
    (-math.inf, {"finite": True}, "x must be finite"),
    (math.nan, {"finite": True}, "x must be finite"),
])
def test_number_rejects(value, kwargs, message):
    with pytest.raises(ValueError, match=message):
        number("x", value, **kwargs)


@pytest.mark.parametrize("value, kwargs", [
    (math.nan, {}), (-math.inf, {}), (-3, {"integer": True}),
    pytest.param(2**1000, {}, id="2**1000"),
    (np.float64(0.5), {"positive": True}), (-1.0, {"finite": True}),
])
def test_number_accepts(value, kwargs):
    assert number("x", value, **kwargs) is value


@pytest.mark.parametrize("k, theta_plus, beta", [
    (2, 0.5, 1.0), (1, 3.0, 1.0), (1, 0.1, 0.0), (1, 0.1, -1.0), (1, 0.1, math.nan),
    (1, 0.1, math.inf), (1, math.nan, 1.0),
])
def test_require_subcritical_rejects(k, theta_plus, beta):
    with pytest.raises(ValueError, match="subcriticality"):
        require_subcritical(k, theta_plus, beta)


def test_model_size_is_checked_before_allocating():
    # 150 bytes asking for a million nodes, with two rates.
    doc = json.dumps({"d": 10**6, "beta": 1.0, "mu": [1.0, 1.0], "edges": [], "k": 1,
                      "alpha": 0.3, "w_minus": 1.0, "w_plus": 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="d=1000000"):
            params_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
