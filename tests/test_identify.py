import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obsnode.errors import DataError
from obsnode.identify import (KERNELS, QUERY_CELLS, DiscreteScm, InterventionQuery,
                              _query_axes, _reduce, adjustment_estimate, collapse_states,
                              enumerate_joint, filter_distribution,
                              interventional_truth, linear_gaussian_refinement,
                              nonidentifiability_witness, observational_law,
                              random_observable_scm, random_query, tv_distance)
from support import (cellwise_observable_scm, enumerated_filter, enumerated_query,
                     full_joint_reduce, naive_conditional, per_kernel_check, product_joint)


def point(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def deterministic_scm(T=3):
    """Everything a point mass: z cycles under a=1, stays under a=0;
    emission y = z; policy always a=1; single confounder value."""
    n = 2
    z_trans = np.zeros((2, n, n))
    z_trans[0] = np.eye(n)
    z_trans[1] = np.roll(np.eye(n), 1, axis=1)
    emission = np.eye(n)[:, None, :]
    policy = np.zeros((n, 1, 2))
    policy[:, :, 1] = 1.0
    return DiscreteScm(eps_init=[1.0], eps_trans=np.eye(1),
                       z_init=point(n, 0), z_trans=z_trans,
                       emission=emission, policy=policy, T=T)


class TestEnumerateJoint:
    def test_deterministic_single_trajectory(self):
        joint = enumerate_joint(deterministic_scm())
        flat = joint.ravel()
        assert np.count_nonzero(flat) == 1
        assert flat.sum() == pytest.approx(1.0, abs=1e-14)

    def test_uniform_product(self):
        u2 = np.full(2, 0.5)
        scm = DiscreteScm(eps_init=u2, eps_trans=np.full((2, 2), 0.5),
                          z_init=u2, z_trans=np.full((2, 2, 2), 0.5),
                          emission=np.full((2, 2, 2), 0.5),
                          policy=np.full((2, 2, 2), 0.5), T=2)
        joint = enumerate_joint(scm)
        # T=2: 2 eps, 2 z, 2 y, 1 a -> 2^7 = 128 equally likely trajectories
        assert joint.size == 128
        np.testing.assert_allclose(joint, 1.0 / 128, atol=1e-15)

    def test_random_scm_total_mass(self):
        for seed in range(10):
            scm = random_observable_scm(np.random.default_rng(seed))
            assert abs(enumerate_joint(scm).sum() - 1.0) < 1e-12

    def test_blowup_guard(self):
        scm = replace(random_observable_scm(np.random.default_rng(0)), T=8)
        with pytest.raises(DataError) as e:
            enumerate_joint(scm)
        assert "trajectories" in str(e.value)

    def test_guard_counts_only_the_conditioned_cells(self):
        # the full T=5 joint has 537M cells and is refused; conditioned on
        # y_0 and the four actions it has 8.4M, which are enumerated
        scm = replace(random_observable_scm(np.random.default_rng(0)), T=5)
        q = random_query(np.random.default_rng(1), scm)
        with pytest.raises(DataError, match="trajectories"):
            enumerate_joint(scm)
        np.testing.assert_allclose(interventional_truth(scm, q),
                                   adjustment_estimate(scm, q), rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.integers(0, 2 ** 32 - 1), st.data())
    def test_fixed_axes_cut_the_full_joint(self, T, seed, data):
        # cutting each kernel to the fixed values before the product builds
        # the bytes of the full joint at those values; the reduced law agrees
        # to rounding (numpy groups a sum by memory layout, which the cut
        # changes), and a zero-probability condition fails alike
        rng = np.random.default_rng(seed)
        scm = replace(random_observable_scm(rng), T=T)
        y_axes, a_axes = range(2 * T, 3 * T), range(3 * T, 4 * T - 1)
        fixed = {ax: data.draw(st.integers(0, 3 if ax in y_axes else 1), label=f"axis {ax}")
                 for ax in data.draw(st.sets(st.sampled_from([*y_axes, *a_axes])),
                                     label="fixed axes")}
        overrides = data.draw(st.dictionaries(st.integers(0, T - 2), st.integers(0, 1)),
                              label="overrides")
        keep = data.draw(st.sampled_from([ax for ax in range(4 * T - 1)
                                          if ax not in fixed]), label="keep")
        cut = tuple(slice(fixed[ax], fixed[ax] + 1) if ax in fixed else slice(None)
                    for ax in range(4 * T - 1))
        joint = enumerate_joint(scm, overrides, fixed)
        assert joint.tobytes() == enumerate_joint(scm, overrides)[cut].tobytes()
        try:
            ref = full_joint_reduce(scm, overrides, fixed, keep)
        except DataError as e:
            with pytest.raises(DataError, match=re.escape(str(e))):
                _reduce(joint, keep)
        else:
            np.testing.assert_allclose(_reduce(joint, keep), ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("T", [2, 3])
    def test_truth_has_the_full_joint_bytes(self, T):
        # up to the instances' own horizon, every query's truth is the full
        # joint sliced and reduced byte for byte, for 3 and 4 latent states
        rng = np.random.default_rng(0)
        by_states = {}
        while len(by_states) < 2:
            scm = replace(random_observable_scm(rng), T=T)
            by_states[scm.z_init.size] = scm
        for scm in by_states.values():
            for t in range(T - 1):
                for target in range(t + 1, T):
                    q = InterventionQuery(rng.integers(4, size=t + 1), rng.integers(2, size=t),
                                          rng.integers(2, size=target - t))
                    fixed, keep = _query_axes(scm, q)
                    overrides = {q.t + k: a for k, a in enumerate(q.intervention)}
                    assert (interventional_truth(scm, q).tobytes()
                            == full_joint_reduce(scm, overrides, fixed, keep).tobytes())

    def test_query_cells_bound_the_family(self):
        # QUERY_CELLS, which bounds verify-identification's work, is the
        # largest joint a random instance enumerates for its query
        rng = np.random.default_rng(5)
        sizes = set()
        for _ in range(20):
            scm = random_observable_scm(rng)
            q = random_query(rng, scm)
            fixed, _ = _query_axes(scm, q)
            overrides = {q.t + k: a for k, a in enumerate(q.intervention)}
            sizes.add(enumerate_joint(scm, overrides, fixed).size)
        assert max(sizes) == QUERY_CELLS and len(sizes) == 2

    @pytest.mark.parametrize("T", [2, 3])
    def test_cells_are_the_trajectory_products(self, T):
        # every cell, of the full or the cut joint, with and without severed
        # steps, is bitwise its trajectory's product of kernel entries
        rng = np.random.default_rng(T)
        for overrides, fixed in [({}, {}), ({0: 1}, {}), ({}, {2 * T: 1, 3 * T: 0}),
                                 ({T - 2: 0}, {2 * T: 2, 2 * T + 1: 3, 4 * T - 2: 1})]:
            scm = replace(random_observable_scm(rng), T=T)
            joint, ref = enumerate_joint(scm, overrides, fixed), product_joint(scm, overrides, fixed)
            assert joint.shape == ref.shape and joint.tobytes() == ref.tobytes()

    def test_instances_are_the_cellwise_draws(self):
        # drawing kernels as arrays takes the same numbers from the stream,
        # in the same order, as drawing them one row or cell at a time
        for seed in range(500):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            scm, ref = random_observable_scm(rng), cellwise_observable_scm(ref_rng)
            assert scm.T == ref.T
            for name in KERNELS:
                assert getattr(scm, name).tobytes() == getattr(ref, name).tobytes(), name
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_kernel_validation(self):
        with pytest.raises(DataError):
            DiscreteScm(eps_init=[0.6, 0.6], eps_trans=np.eye(2),
                        z_init=[1.0], z_trans=np.ones((2, 1, 1)),
                        emission=np.ones((1, 2, 1)),
                        policy=np.full((1, 2, 2), 0.5), T=2)


class TestKernelCheck:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNELS), st.integers(0, 63),
           st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_names_its_kernel(self, seed, name, index, value):
        # NaN fails every comparison, so a check written as "fail if below
        # -1e-12" would let it through to the query draw
        scm = random_observable_scm(np.random.default_rng(seed))
        kernels = {k: getattr(scm, k).copy() for k in KERNELS}
        kernels[name].flat[index % kernels[name].size] = value
        with pytest.raises(DataError, match=f"^{name}: non-finite probability$"):
            DiscreteScm(**kernels, T=scm.T)

    # entries set at and around the negative bound, and row sums moved to
    # and around the deviation bound, where a check that summed the rows in
    # another order would decide otherwise
    EDGE = [1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), 5e-13, 2e-12, 1e-9]
    SET_VALUES = st.one_of(st.sampled_from([-e for e in EDGE] + [0.0, -0.0, 1.0]),
                           st.floats(-2e-12, 2e-12))
    ADD_VALUES = st.one_of(st.sampled_from(EDGE + [-e for e in EDGE]),
                           st.floats(-2e-12, 2e-12))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.sampled_from(KERNELS), st.integers(0, 63),
                              st.one_of(st.tuples(st.just("set"), SET_VALUES),
                                        st.tuples(st.just("add"), ADD_VALUES))),
                    min_size=1, max_size=3))
    def test_one_pass_raises_as_the_per_kernel_checks(self, seed, edits):
        # on finite kernels the one-pass check raises exactly when the six
        # per-kernel checks did, with the first failing kernel's message
        scm = random_observable_scm(np.random.default_rng(seed))
        kernels = {k: getattr(scm, k).copy() for k in KERNELS}
        for name, index, (op, value) in edits:
            arr = kernels[name].reshape(-1)
            i = index % arr.size
            arr[i] = value if op == "set" else arr[i] + value
        expected = per_kernel_check(kernels)
        try:
            DiscreteScm(**kernels, T=scm.T)
        except DataError as e:
            assert str(e) == expected
        else:
            assert expected is None

    def test_kernels_without_entries_fail_as_the_per_kernel_checks(self):
        # the one pass has nothing to take a minimum of, and eps_init's one
        # empty row sums to 0
        kernels = dict(eps_init=np.zeros(0), eps_trans=np.zeros((0, 0)), z_init=np.zeros(0),
                       z_trans=np.zeros((0, 0, 0)), emission=np.zeros((0, 0, 0)),
                       policy=np.zeros((0, 0, 0)))
        with pytest.raises(DataError, match=re.escape(per_kernel_check(kernels))):
            DiscreteScm(**kernels, T=2)


class TestInterventionalTruth:
    def test_normalized(self):
        scm = random_observable_scm(np.random.default_rng(1))
        q = random_query(np.random.default_rng(2), scm)
        assert abs(interventional_truth(scm, q).sum() - 1.0) < 1e-12

    def test_null_intervention_equals_observational(self):
        # the policy is a point mass on a=1, so intervening a=1 changes nothing
        scm = deterministic_scm()
        q = InterventionQuery((0,), (), (1, 1))
        truth = interventional_truth(scm, q)
        naive = naive_conditional(scm, q)
        adj = adjustment_estimate(scm, q)
        assert tv_distance(truth, naive) < 1e-12
        assert tv_distance(adj, naive) < 1e-12

    def test_action_free_dynamics_ignore_intervention(self):
        rng = np.random.default_rng(3)
        scm = random_observable_scm(rng)
        scm.z_trans[1] = scm.z_trans[0]
        q0 = InterventionQuery((0,), (), (0, 0))
        q1 = InterventionQuery((0,), (), (1, 1))
        assert tv_distance(interventional_truth(scm, q0),
                           interventional_truth(scm, q1)) < 1e-12

    def test_zero_probability_prefix_rejected(self):
        scm = deterministic_scm()
        # y_0 = 1 is impossible (z_0 = 0 emits 0)
        with pytest.raises(DataError):
            interventional_truth(scm, InterventionQuery((1,), (), (1,)))

    def test_deterministic_invertible_case(self):
        scm = deterministic_scm()
        q = InterventionQuery((0,), (), (1, 0))
        truth = interventional_truth(scm, q)
        adj = adjustment_estimate(scm, q)
        np.testing.assert_allclose(truth, point(2, 1), atol=1e-14)
        np.testing.assert_allclose(adj, truth, atol=1e-14)


def generic_scm(rng, n_e, n_z, n_y, n_a, T, persistence):
    """Random SCM with every emission overlapping and every kernel positive,
    except that the confounder chain is eps_trans = persistence * I +
    (1 - persistence) * (random rows): identity at persistence 1."""
    def dist(*shape):
        x = rng.uniform(0.05, 1.0, size=shape)
        return x / x.sum(axis=-1, keepdims=True)

    eps_trans = persistence * np.eye(n_e) + (1.0 - persistence) * dist(n_e, n_e)
    return DiscreteScm(eps_init=dist(n_e), eps_trans=eps_trans,
                       z_init=dist(n_z), z_trans=dist(n_a, n_z, n_z),
                       emission=dist(n_z, n_e, n_y), policy=dist(n_y, n_e, n_a), T=T)


class TestFilter:
    def test_filter_normalized(self):
        for seed in range(5):
            scm = random_observable_scm(np.random.default_rng(seed))
            law = observational_law(scm)
            y0 = int(np.argmax(law.reshape(law.shape[0], -1).sum(axis=1)))
            f = filter_distribution(scm, (y0,), ())
            assert abs(f.sum() - 1.0) < 1e-12

    def test_disjoint_alphabets_pin_down_state(self):
        # each state owns its own outcome symbols, so y_0 names the state
        for seed in range(6):
            scm = random_observable_scm(np.random.default_rng(seed))
            for y0 in range(4):
                (owner,) = np.nonzero(scm.emission[:, 0, y0])[0]
                f = filter_distribution(scm, (y0,), ())
                assert f[owner] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([0.0, 0.5, 0.999, 1.0]), st.integers(0, 2 ** 32 - 1))
    def test_matches_enumeration(self, n_e, n_z, n_y, T, persistence, seed):
        # keep each enumeration small: (nE nZ nY)^T nA^(T-1) cells
        assume((n_e * n_z * n_y) ** T * 2 ** (T - 1) <= 500_000)
        rng = np.random.default_rng(seed)
        scm = generic_scm(rng, n_e, n_z, n_y, 2, T, persistence)
        for t in range(T):
            y_prefix = rng.integers(n_y, size=t + 1)
            a_prefix = rng.integers(2, size=t)
            np.testing.assert_allclose(filter_distribution(scm, y_prefix, a_prefix),
                                       enumerated_filter(scm, y_prefix, a_prefix),
                                       rtol=1e-12, atol=0.0)

    def test_prefix_to_the_last_step(self):
        # z cycles 0 -> 1 -> 0 under the policy's a=1, and y = z
        scm = deterministic_scm(T=3)
        f = filter_distribution(scm, (0, 1, 0), (1, 1))
        np.testing.assert_array_equal(f, point(2, 0))
        np.testing.assert_array_equal(f, enumerated_filter(scm, (0, 1, 0), (1, 1)))

    @pytest.mark.parametrize("y_prefix, a_prefix", [((1,), ()), ((0, 0), (1,)),
                                                    ((0, 1, 1), (1, 1))])
    def test_zero_probability_prefix_rejected(self, y_prefix, a_prefix):
        with pytest.raises(DataError, match="zero probability"):
            filter_distribution(deterministic_scm(T=3), y_prefix, a_prefix)

    @pytest.mark.parametrize("y_prefix, a_prefix", [((0,), (1,)), ((0, 1, 0, 1), (1, 1, 1))])
    def test_malformed_prefix_rejected(self, y_prefix, a_prefix):
        with pytest.raises(DataError):
            filter_distribution(deterministic_scm(T=3), y_prefix, a_prefix)


class TestAdjustmentEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_query_matches_enumeration(self, seed):
        # the CLI's instances for this seed: the forward query law picks the
        # query the enumerated law picks, and the adjustment holds on each
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            scm = random_observable_scm(rng)
            random_observable_scm(ref_rng)
            q = random_query(rng, scm)
            assert q == enumerated_query(ref_rng, scm)
            worst = max(worst, np.max(np.abs(adjustment_estimate(scm, q)
                                             - interventional_truth(scm, q))))
        assert worst < 1e-10

    def test_matches_truth_on_observable_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(30):
            scm = random_observable_scm(rng)
            q = random_query(rng, scm)
            dev = np.max(np.abs(adjustment_estimate(scm, q)
                                - interventional_truth(scm, q)))
            worst = max(worst, dev)
        assert worst < 1e-10

    def test_confounding_is_real(self):
        rng = np.random.default_rng(7)
        hits = 0
        n = 40
        for _ in range(n):
            scm = random_observable_scm(rng)
            q = random_query(rng, scm)
            if tv_distance(naive_conditional(scm, q),
                           interventional_truth(scm, q)) >= 0.02:
                hits += 1
        assert hits >= 0.8 * n


def relabel(scm: DiscreteScm, kind, perm):
    """The instance with its latent states, outcomes, actions or confounder
    values renamed: new symbol j is old symbol perm[j]."""
    k = {name: getattr(scm, name) for name in KERNELS}
    if kind == "state":
        k.update(z_init=k["z_init"][perm], z_trans=k["z_trans"][:, perm][:, :, perm],
                 emission=k["emission"][perm])
    elif kind == "outcome":
        k.update(emission=k["emission"][:, :, perm], policy=k["policy"][perm])
    elif kind == "action":
        k.update(z_trans=k["z_trans"][perm], policy=k["policy"][:, :, perm])
    else:
        k.update(eps_init=k["eps_init"][perm], eps_trans=k["eps_trans"][perm][:, perm],
                 emission=k["emission"][:, perm], policy=k["policy"][:, perm])
    return DiscreteScm(**k, T=scm.T)


class TestOracleLabels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["state", "outcome", "action", "confounder"]), st.data())
    def test_relabeling_permutes_or_keeps_the_answers(self, seed, kind, data):
        # names carry no meaning: relabeled kernels with the query mapped to
        # the new names give the same answers, permuted for outcomes; a
        # zero-probability prefix stays one
        rng = np.random.default_rng(seed)
        scm = random_observable_scm(rng)
        n = {"state": scm.z_init.size, "outcome": 4, "action": 2, "confounder": 2}[kind]
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
        inv = np.argsort(perm)
        new = relabel(scm, kind, perm)
        ys, acts = (inv if kind == "outcome" else range(4)), (inv if kind == "action" else range(2))
        drawn = InterventionQuery(*(tuple(int(v) for v in rng.integers(hi, size=size))
                                    for hi, size in ((4, 2), (2, 1), (2, 1))))
        for q in (random_query(rng, scm), drawn):
            q_new = InterventionQuery(tuple(int(ys[y]) for y in q.y_prefix),
                                      tuple(int(acts[a]) for a in q.a_prefix),
                                      tuple(int(acts[a]) for a in q.intervention))
            for fn in (interventional_truth, adjustment_estimate):
                try:
                    want = fn(scm, q)
                except DataError as e:
                    with pytest.raises(DataError, match=re.escape(str(e))):
                        fn(new, q_new)
                    continue
                want = want[perm] if kind == "outcome" else want
                np.testing.assert_allclose(fn(new, q_new), want, rtol=0.0, atol=1e-13)


class TestQuerySymbols:
    # (y_prefix, a_prefix, intervention, the message): a negative value and
    # one past the range, for an outcome and for an action, and a target past
    # the horizon; the random instances have outcomes 0..3, actions 0..1 and
    # horizon 2
    CASES = [pytest.param((-1,), (), (0, 1), "outcome -1 is outside the model's range 0..3",
                          id="outcome-negative"),
             pytest.param((4,), (), (0, 1), "outcome 4 is outside the model's range 0..3",
                          id="outcome-past-range"),
             pytest.param((0, 0), (-1,), (0,), "action -1 is outside the model's range 0..1",
                          id="past-action-negative"),
             pytest.param((0, 0), (2,), (0,), "action 2 is outside the model's range 0..1",
                          id="past-action-past-range"),
             pytest.param((0,), (), (0, -1), "action -1 is outside the model's range 0..1",
                          id="intervened-action-negative"),
             pytest.param((0,), (), (2, 0), "action 2 is outside the model's range 0..1",
                          id="intervened-action-past-range"),
             pytest.param((0, 0), (0,), (1, 1), "query target step 3 exceeds horizon 2",
                          id="target-past-horizon")]

    @pytest.mark.parametrize("fn", [_query_axes, interventional_truth, adjustment_estimate])
    @pytest.mark.parametrize("y_prefix, a_prefix, intervention, message", CASES)
    def test_query_values_are_checked(self, fn, y_prefix, a_prefix, intervention, message):
        scm = random_observable_scm(np.random.default_rng(0))
        with pytest.raises(DataError, match=f"^{message}$"):
            fn(scm, InterventionQuery(y_prefix, a_prefix, intervention))

    @pytest.mark.parametrize("y_prefix, a_prefix, intervention, message", CASES[:4])
    def test_filter_values_are_checked(self, y_prefix, a_prefix, intervention, message):
        scm = random_observable_scm(np.random.default_rng(0))
        with pytest.raises(DataError, match=f"^{message}$"):
            filter_distribution(scm, y_prefix, a_prefix)


class TestWitness:
    def test_report_thresholds(self):
        _, _, _, report = nonidentifiability_witness()
        assert report["observational_tv"] < 1e-12
        assert report["interventional_tv"] >= 0.05
        assert report["collapsed_adjustment_error"] < 1e-10
        # any estimator reading only the shared observational law gives one
        # answer for both models, so it must miss at least one truth by half
        # the interventional gap; here the echo-state model carries the error
        assert max(report["adjustment_error_a"],
                   report["adjustment_error_b"]) >= 0.025

    def test_witness_is_fully_separated(self):
        scm_a, scm_b, query, _ = nonidentifiability_witness()
        truth_a = interventional_truth(scm_a, query)
        truth_b = interventional_truth(scm_b, query)
        np.testing.assert_allclose(truth_a, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(truth_b, [0.0, 1.0], atol=1e-14)

    def test_collapse_rejects_heterogeneous_group(self):
        scm_a, _, _, _ = nonidentifiability_witness()
        with pytest.raises(DataError):
            collapse_states(scm_a, [[0, 3], [1], [2]])


class TestRefinement:
    def test_deviation_shrinks_under_refinement(self):
        devs = linear_gaussian_refinement()
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 5e-3
