import numpy as np
import pytest

import leveltopo.nonsingular as nonsingular
from leveltopo import (RELU, SIGMOID, Layer, Network, Window, check_injective_on_grid,
                       decompose, forward_batch, init_weights, is_nonsingular,
                       make_nonsingular, one_to_one_relu, pad_to_width, scaled_det)
from leveltopo.nonsingular import (_KEY_MIX, DEFAULT_MIN_SEP, INJECTIVITY_QUANT,
                                   NonSingularizationError, _mix_keys, _row_norms)


def narrow_net(widths=(2, 1, 2, 1), activation=SIGMOID, seed=11):
    return init_weights(list(widths), activation, seed)


class TestScaledDet:
    def test_identity(self):
        assert scaled_det(np.eye(3)) == 1.0

    def test_zero_row(self):
        assert scaled_det(np.array([[1.0, 2.0], [0.0, 0.0]])) == 0.0

    def test_scale_invariance(self):
        m = np.array([[3.0, -1.0], [2.0, 5.0]])
        assert scaled_det(m) == pytest.approx(scaled_det(1e6 * m), rel=1e-12)

    def test_near_singular_example(self):
        # det([[1,1],[1,1+1e-14]]) = 1e-14, far below the 1e-9 tolerance
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        assert scaled_det(m) < 1e-9
        assert scaled_det(m) == pytest.approx(1e-14, rel=0.5)

    def test_matches_library_det_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            scale = np.prod(np.max(np.abs(m), axis=1))
            assert scaled_det(m) == pytest.approx(abs(np.linalg.det(m)) / scale, rel=1e-9)


class TestPadToWidth:
    def test_uniform_net_returned_unchanged(self):
        net = narrow_net((2, 2, 2, 1))
        assert pad_to_width(net, 2) is net

    def test_forward_preserved_exactly(self):
        net = narrow_net((2, 1, 2, 1))
        padded = pad_to_width(net, 2)
        assert all(layer.n_out == 2 for layer in padded.layers[:-1])
        xs = np.random.default_rng(0).normal(scale=3.0, size=(1000, 2))
        np.testing.assert_array_equal(forward_batch(net, xs), forward_batch(padded, xs))

    def test_padded_layer_is_singular(self):
        net = narrow_net((2, 1, 2, 1))
        padded = pad_to_width(net, 2)
        report = is_nonsingular(padded)
        assert not report.verdict
        assert min(report.determinants) == 0.0

    def test_rejects_overwide_hidden_layer(self):
        net = narrow_net((2, 3, 1))
        with pytest.raises(ValueError):
            pad_to_width(net, 2)

    def test_rejects_input_dim_mismatch(self):
        net = narrow_net((2, 2, 1))
        with pytest.raises(ValueError):
            pad_to_width(net, 3)


class TestIsNonsingular:
    def test_identity_layers_pass(self):
        net = Network(2, (Layer(np.eye(2), np.zeros(2)),
                          Layer(np.eye(2), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), SIGMOID)
        report = is_nonsingular(net)
        assert report.verdict
        assert report.determinants == (1.0, 1.0)
        assert report.widths_uniform and report.activation_one_to_one

    def test_duplicated_row_fails(self):
        net = Network(2, (Layer(np.array([[1.0, 2.0], [1.0, 2.0]]), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), SIGMOID)
        assert not is_nonsingular(net).verdict

    def test_relu_activation_fails(self):
        from leveltopo import RELU

        net = Network(2, (Layer(np.eye(2), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), RELU)
        report = is_nonsingular(net)
        assert not report.activation_one_to_one and not report.verdict

    def test_nonuniform_width_fails(self):
        net = narrow_net((2, 1, 2, 1))
        assert not is_nonsingular(net).widths_uniform

    def test_verdict_formula(self):
        net = narrow_net((2, 2, 2, 1))
        report = is_nonsingular(net)
        assert report.verdict == (report.widths_uniform and report.activation_one_to_one
                                  and all(d >= report.tolerance_used
                                          for d in report.determinants))

    def test_zero_head_warns(self):
        net = Network(2, (Layer(np.eye(2), np.zeros(2)),
                          Layer(np.zeros((1, 2)), np.zeros(1))), SIGMOID)
        with pytest.warns(UserWarning, match="head"):
            is_nonsingular(net)


class TestMakeNonsingular:
    def test_untouched_when_already_nonsingular(self):
        net = narrow_net((2, 2, 2, 1))
        assert is_nonsingular(net).verdict
        assert make_nonsingular(net, 1e-3, seed=0) is net

    def test_zero_matrix_perturbed_within_delta(self):
        net = Network(2, (Layer(np.zeros((2, 2)), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), SIGMOID)
        fixed = make_nonsingular(net, 1e-3, seed=4)
        assert is_nonsingular(fixed).verdict
        assert np.max(np.abs(fixed.layers[0].weights)) <= 1e-3

    def test_idempotent(self):
        net = pad_to_width(narrow_net((2, 1, 2, 1)), 2)
        once = make_nonsingular(net, 1e-4, seed=9)
        assert make_nonsingular(once, 1e-4, seed=10) is once

    def test_forward_deviation_shrinks_with_delta(self):
        net = pad_to_width(narrow_net((2, 1, 1, 1), seed=3), 2)
        xs = np.random.default_rng(1).uniform(-3, 3, size=(1000, 2))
        base = forward_batch(net, xs)
        devs = []
        for delta in (1e-2, 1e-4):
            fixed = make_nonsingular(net, delta, seed=5)
            devs.append(np.max(np.abs(forward_batch(fixed, xs) - base)))
        assert devs[1] < devs[0]
        assert devs[1] > 0

    def test_requires_uniform_widths(self):
        with pytest.raises(ValueError):
            make_nonsingular(narrow_net((2, 1, 2, 1)), 1e-3, seed=0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_delta_must_be_finite_and_positive(self, delta):
        net = Network(2, (Layer(np.zeros((2, 2)), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), SIGMOID)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            make_nonsingular(net, delta, seed=4)

    def test_gives_up_with_failing_layer_index(self, monkeypatch):
        import leveltopo.nonsingular as ns

        monkeypatch.setattr(ns, "MAX_ATTEMPTS", 0)
        net = Network(2, (Layer(np.zeros((2, 2)), np.zeros(2)),
                          Layer(np.ones((1, 2)), np.zeros(1))), SIGMOID)
        with pytest.raises(NonSingularizationError) as err:
            make_nonsingular(net, 1e-3, seed=0)
        assert err.value.layer_index == 0


class TestConstructionPipeline:
    @pytest.mark.parametrize("activation", [SIGMOID, one_to_one_relu(5)])
    def test_pad_then_perturb_passes_membership(self, activation):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            depth = int(rng.integers(1, 5))
            widths = [2] + [int(rng.integers(1, 3)) for _ in range(depth)] + [1]
            net = init_weights(widths, activation, int(rng.integers(2 ** 31)))
            fixed = make_nonsingular(pad_to_width(net, 2), 1e-3,
                                     seed=int(rng.integers(2 ** 31)))
            assert is_nonsingular(fixed).verdict


class TestInjectivityOnGrid:
    def window(self):
        return Window(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))

    def test_identity_trunk(self):
        # an output box diagonal of at most 1: every failing pair would lie
        # within one quantization cell, so the witness checks all of them
        trunk = Network(2, (Layer(np.eye(2), np.zeros(2)),), SIGMOID,
                        final_activation=False)
        window = Window(np.array([-0.3, -0.3]), np.array([0.3, 0.3]))
        assert window.diagonal <= 1.0
        assert check_injective_on_grid(trunk, window, 41)

    def test_constant_trunk_fails(self):
        trunk = Network(2, (Layer(np.zeros((2, 2)), np.zeros(2)),), SIGMOID)
        assert not check_injective_on_grid(trunk, self.window(), 41)

    def test_rank_deficient_trunk_fails(self):
        # projects onto the x axis: whole columns of the grid collide
        trunk = Network(2, (Layer(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2)),),
                        SIGMOID, final_activation=False)
        assert not check_injective_on_grid(trunk, self.window(), 41)

    def test_random_nonsingular_sigmoid_trunk(self):
        net = make_nonsingular(pad_to_width(narrow_net((2, 2, 2, 1), seed=8), 2),
                               1e-3, seed=1)
        trunk, _ = decompose(net)
        assert check_injective_on_grid(trunk, self.window(), 101)

    def test_constant_first_output_trunk_at_201(self):
        # every output shares its first coordinate: one sorted axis holds a
        # single run of all 40 401 points, yet no two outputs are close
        window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
        assert check_injective_on_grid(constant_first_output_trunk(), window, 201)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_identity_trunk_other_dims(self, dim):
        window = Window(np.full(dim, -3.0), np.full(dim, 3.0))
        assert check_injective_on_grid(affine_trunk(np.eye(dim)), window, 11)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_collapsed_trunk_fails_other_dims(self, dim):
        window = Window(np.full(dim, -3.0), np.full(dim, 3.0))
        assert not check_injective_on_grid(affine_trunk(np.zeros((dim, dim))), window, 11)

    def test_pair_across_odd_cell_boundary_fails(self):
        # the two outputs of each column sit in cells 1 and 2, which share a
        # cell only on the grid shifted by one
        trunk = affine_trunk(np.diag([2.0, 1e-13]), [0.0, 2e-12])
        window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
        assert not check_injective_on_grid(trunk, window, 2)
        assert not reference_injective(trunk, window, 2)

    def test_pair_in_adjacent_cells_of_one_axis_fails(self):
        # the only output axis has distinct cells, 0 and 1: one apart is not
        # far enough to rule the pair out, and the pair is far too close
        trunk = affine_trunk([[1e-27]], [INJECTIVITY_QUANT])
        window = Window(np.array([-1.0]), np.array([1.0]))
        outputs = forward_batch(trunk, window.lattice((2,)))
        assert np.floor(outputs / INJECTIVITY_QUANT).ravel().tolist() == [0.0, 1.0]
        assert not check_injective_on_grid(trunk, window, 2)
        assert not reference_injective(trunk, window, 2)

    def test_fold_fails_beyond_lag_one(self):
        # 1e-13 * |x| puts the whole line in one cell; neighbours in sorted
        # order pass, mirrored points (lag 2 and more) coincide
        fold = Network(1, (Layer(np.array([[1.0], [-1.0]]), np.zeros(2)),
                           Layer(np.array([[1e-13, 1e-13]]), np.zeros(1))),
                       RELU, final_activation=False)
        window = Window(np.array([-4.0]), np.array([4.0]))
        assert not check_injective_on_grid(fold, window, 11)
        assert not reference_injective(fold, window, 11)

    @pytest.mark.parametrize("flat", [True, False], ids=["flat-pair", "increasing"])
    def test_failing_pair_past_the_first_block_fails(self, flat):
        # on the integer lattice 0, 1, ..., n - 1, f(x) = 2^-40 * (x - relu(x - k)
        # + relu(x - k - 1)) is exact: it rises by 2^-40 per point, about 0.9
        # quantization cells, except that k and k + 1 share one output.  Each
        # lag-1 run pairs two or three points, so about 0.55 k candidate
        # pairs of equal mix sort before the failing one
        n = 4 * nonsingular.PAIR_BLOCK
        k = 3 * nonsingular.PAIR_BLOCK if flat else n
        trunk = Network(1, (Layer(np.ones((3, 1)), np.array([0.0, -k, -k - 1.0])),
                            Layer(2.0 ** -40 * np.array([[1.0, -1.0, 1.0]]), np.zeros(1))),
                        RELU, final_activation=False)
        window = Window(np.array([0.0]), np.array([n - 1.0]))
        outputs = forward_batch(trunk, window.lattice((n,)))[:, 0]
        assert np.count_nonzero(np.diff(outputs) == 0.0) == flat
        assert check_injective_on_grid(trunk, window, n) is not flat

    @pytest.mark.parametrize("weights, bias, cause", [
        (np.eye(2), [np.nan, 0.0], "NaN or infinite"),
        (np.eye(2), [np.inf, 0.0], "NaN or infinite"),
        (np.diag([1e7, 1.0]), None, "int64 cells"),
    ])
    def test_unquantizable_outputs_are_refused(self, weights, bias, cause):
        # such outputs would all be cast to one int64 cell and alias
        with pytest.raises(ValueError, match=cause):
            check_injective_on_grid(affine_trunk(weights, bias), self.window(), 11)


def affine_trunk(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    bias = np.zeros(weights.shape[0]) if bias is None else np.asarray(bias, dtype=float)
    return Network(weights.shape[1], (Layer(weights, bias),), SIGMOID,
                   final_activation=False)


def constant_first_output_trunk():
    return affine_trunk([[0.0, 0.0], [1.0, np.sqrt(2.0)]])


def construction_trunk(arch, activation, init_seed, perturb_seed):
    """Criterion-7 construction: init, pad to width 2, perturb, split off the head."""
    net = init_weights(list(arch), activation, init_seed)
    trunk, _ = decompose(make_nonsingular(pad_to_width(net, 2), 1e-3, perturb_seed))
    return trunk


def zeroed_first_layer(trunk):
    first = trunk.layers[0]
    return Network(trunk.input_dim, (Layer(np.zeros_like(first.weights), first.bias),)
                   + trunk.layers[1:], trunk.activation, trunk.final_activation)


def reference_injective(trunk, window, resolution, min_sep=DEFAULT_MIN_SEP):
    """Brute force over all pairs of lattice points: every pair whose quantized
    outputs differ by at most one cell on each axis is checked on its own."""
    points = window.lattice((resolution,) * window.dim)
    outputs = forward_batch(trunk, points)
    extent = outputs.max(axis=0) - outputs.min(axis=0)
    scale = max(float(np.linalg.norm(extent)), INJECTIVITY_QUANT)
    quantized = np.floor(outputs / INJECTIVITY_QUANT).astype(np.int64)
    first, second = np.triu_indices(len(points), 1)
    near = np.all(np.abs(quantized[first] - quantized[second]) <= 1, axis=1)
    return all(
        float(np.linalg.norm(outputs[i] - outputs[j]))
        >= min_sep * (float(np.linalg.norm(points[i] - points[j])) / window.diagonal) * scale
        for i, j in zip(first[near], second[near]))


def lexsort_injective(trunk, window, resolution):
    """The witness's candidate search before keys were mixed: per shifted
    grid one ``np.lexsort`` of the per-axis keys, then equal keys compared at
    lag 1, 2, ... in sorted order.  It reaches 201^2, where the brute force
    cannot."""
    points = window.lattice((resolution,) * window.dim)
    outputs = forward_batch(trunk, points)
    extent = outputs.max(axis=0) - outputs.min(axis=0)
    scale = max(float(np.linalg.norm(extent)), INJECTIVITY_QUANT)
    cells = np.floor(outputs / INJECTIVITY_QUANT).astype(np.int64).T
    n = len(points)
    for shift in np.ndindex(*(2,) * len(cells)):
        keys = (cells + np.array(shift)[:, None]) // 2
        order = np.lexsort(keys)
        keys = np.take(keys, order, axis=1)
        run = np.arange(n)
        lag = 1
        while True:
            run = run[run + lag < n]
            for axis_keys in keys:
                run = run[axis_keys[run] == axis_keys[run + lag]]
            if run.size == 0:
                break
            i, j = order[run], order[run + lag]
            d_out = _row_norms(outputs[i] - outputs[j])
            d_in = _row_norms(points[i] - points[j])
            if np.any(d_out < DEFAULT_MIN_SEP * (d_in / window.diagonal) * scale):
                return False
            lag += 1
    return True


def tight_trunks():
    """Non-singular trunks that the witness rejects at 201^2 on [-4, 4]^2
    and accepts at 11, 20 and 31.  In the two one_to_one_relu trunks every
    output is distinct but a pair falls under the separation floor; the
    sigmoid trunk contracts below float64 resolution and maps two lattice
    points to bitwise-equal outputs (``test_tight_trunk_outputs``)."""
    return [(f"tight-{init_seed}", construction_trunk(arch, activation, init_seed, perturb_seed))
            for arch, activation, init_seed, perturb_seed in [
                ((2, 2, 1, 1, 1, 1, 1, 1), one_to_one_relu(4), 1571591827, 602593144),
                ((2, 2, 2, 2, 2, 1, 2, 1), one_to_one_relu(6), 539028366, 502887052),
                ((2, 1, 1, 1, 1, 1, 2, 1), SIGMOID, 669710604, 315022845)]]


@pytest.mark.parametrize("index, distinct", [(0, 201 ** 2), (1, 201 ** 2), (2, 201 ** 2 - 1)],
                         ids=["one_to_one_relu4", "one_to_one_relu6", "sigmoid"])
def test_tight_trunk_outputs(index, distinct):
    # two lattice points share one float64 output under the sigmoid trunk,
    # so rejecting it is right in float64 at any separation floor
    _, trunk = tight_trunks()[index]
    window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    outputs = forward_batch(trunk, window.lattice((201, 201)))
    assert len(np.unique(outputs, axis=0)) == distinct


def audit_construct_trunks():
    """Trunks built as the oracle-audit benchmark builds them (sigmoid,
    depth 1-6, hidden width 2 but for one width-1 layer), each followed by
    its copy with the first layer zeroed, which maps every point to one
    output."""
    rng = np.random.default_rng(728)
    trunks = []
    for k in range(6):
        depth = int(rng.integers(1, 7))
        hidden = [2] * depth
        hidden[int(rng.integers(depth))] = 1
        trunk = construction_trunk([2, *hidden, 1], SIGMOID, int(rng.integers(2 ** 31)),
                                   int(rng.integers(2 ** 31)))
        trunks += [(f"construct-{k}", trunk), (f"construct-{k}-zeroed", zeroed_first_layer(trunk))]
    return trunks


def equivalence_trunks():
    rng = np.random.default_rng(515)
    trunks = []
    for k in range(8):
        activation = SIGMOID if k % 2 == 0 else one_to_one_relu(3 + k % 4)
        depth = int(rng.integers(1, 7))
        arch = [2] + [int(rng.integers(1, 3)) for _ in range(depth)] + [1]
        trunk = construction_trunk(arch, activation, int(rng.integers(2 ** 31)),
                                   int(rng.integers(2 ** 31)))
        trunks.append((f"random-{activation.kind.value}-{k}", trunk))
    trunks.append(("zeroed-first-layer", zeroed_first_layer(trunks[0][1])))
    trunks.append(("projection", affine_trunk([[1.0, 0.0], [0.0, 0.0]])))
    trunks.append(("constant-first-output", constant_first_output_trunk()))
    # injective, but several outputs share each quantization cell
    trunks.append(("contracted-identity",
                   affine_trunk(2e-12 * np.eye(2), [0.5e-12, -0.3e-12])))
    # squashes y so that at 11^2 each failing pair straddles two adjacent cells
    trunks.append(("cross-cell-squash", affine_trunk(np.diag([2.0, 1.25e-12]),
                                                     [0.0, 0.5e-12])))
    return trunks + tight_trunks()


@pytest.mark.parametrize("resolution", [11, 20, 31])
@pytest.mark.parametrize("trunk", [pytest.param(trunk, id=name)
                                   for name, trunk in equivalence_trunks()])
def test_witness_matches_brute_force(trunk, resolution):
    window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    assert (check_injective_on_grid(trunk, window, resolution)
            == reference_injective(trunk, window, resolution))


@pytest.mark.parametrize("dim, resolution", [(1, 31), (3, 11)])
@pytest.mark.parametrize("weights", ["rank-one", "contracted"])
def test_witness_matches_brute_force_other_dims(dim, resolution, weights):
    # "contracted" puts several outputs in one quantization cell
    matrix = {"rank-one": np.ones((dim, dim)), "contracted": 2e-12 * np.eye(dim)}[weights]
    window = Window(np.full(dim, -2.0), np.full(dim, 2.0))
    trunk = affine_trunk(matrix, np.linspace(-0.3e-12, 0.5e-12, dim))
    assert (check_injective_on_grid(trunk, window, resolution)
            == reference_injective(trunk, window, resolution))


@pytest.mark.parametrize("trunk, must_reject", [
    pytest.param(trunk, name.endswith("-zeroed") or name.startswith("tight-"), id=name)
    for name, trunk in audit_construct_trunks() + tight_trunks()])
def test_witness_matches_lexsort_reference_at_201(trunk, must_reject):
    window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    verdict = check_injective_on_grid(trunk, window, 201)
    assert verdict == lexsort_injective(trunk, window, 201)
    if must_reject:
        assert not verdict


def count_calls(monkeypatch, name):
    """Wrap ``nonsingular.<name>`` so each call records its first argument's length."""
    seen = []
    real = getattr(nonsingular, name)
    monkeypatch.setattr(nonsingular, name, lambda v: seen.append(len(v)) or real(v))
    return seen


BOX4 = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))


@pytest.mark.parametrize("trunk, window, resolution", [
    pytest.param(dict(audit_construct_trunks())["construct-1"], BOX4, 201, id="construct-1"),
    pytest.param(dict(audit_construct_trunks())["construct-5"], BOX4, 201, id="construct-5"),
    pytest.param(constant_first_output_trunk(), BOX4, 201, id="constant-first-output"),
    pytest.param(affine_trunk(np.eye(1)), Window(np.array([-3.0]), np.array([3.0])), 41,
                 id="identity-1d"),
])
def test_spread_axis_passes_without_keys(trunk, window, resolution, monkeypatch):
    # some output axis has its sorted cells all at least two apart: no pair
    # is within one cell on it, so no shifted grid is keyed
    mixed = count_calls(monkeypatch, "_mix_keys")
    assert check_injective_on_grid(trunk, window, resolution)
    assert mixed == []


@pytest.mark.parametrize("trunk, verdict", [
    # rows of equal x share a cell on the first output axis, columns on the
    # second, but no two points share one on both
    pytest.param(affine_trunk([[1.0, 1e-14], [1e-14, 1.0]]), True, id="close-per-axis"),
    pytest.param(affine_trunk(np.diag([2.0, 1.25e-12]), [0.0, 0.5e-12]), False,
                 id="cross-cell-squash"),
])
def test_unspread_trunks_reach_the_shifted_grids(trunk, verdict, monkeypatch):
    mixed = count_calls(monkeypatch, "_mix_keys")
    assert check_injective_on_grid(trunk, BOX4, 11) is verdict
    assert mixed
    assert reference_injective(trunk, BOX4, 11) is verdict


def test_collapsed_trunk_fails_on_its_first_block(monkeypatch):
    # every lattice point maps to one output, so the first 64 pairs already
    # fail and no larger block is measured
    trunk = zeroed_first_layer(dict(audit_construct_trunks())["construct-0"])
    measured = count_calls(monkeypatch, "_row_norms")
    assert not check_injective_on_grid(trunk, BOX4, 201)
    assert measured == [64, 64]  # output distances, then input distances


def quantized_to(cell):
    """A float whose ``floor(value / INJECTIVITY_QUANT)`` is ``cell``."""
    value = cell * INJECTIVITY_QUANT
    while np.floor(value / INJECTIVITY_QUANT) > cell:
        value = np.nextafter(value, -np.inf)
    while np.floor(value / INJECTIVITY_QUANT) < cell:
        value = np.nextafter(value, np.inf)
    return value


@pytest.mark.parametrize("folded", [False, True])
def test_colliding_mixed_keys_are_filtered(folded, monkeypatch):
    # keys (0, 0) and (2^49, k) with k = 2^49 * _KEY_MIX, wrapped to int64,
    # differ but mix to the same int64, k0 * _KEY_MIX ^ k1, on every shifted
    # grid, since their cells (0, 0) and (2^50, 2k) are even
    wrapped = 2 ** 49 * int(_KEY_MIX) % 2 ** 64
    k = wrapped - 2 ** 64 if wrapped >= 2 ** 63 else wrapped
    assert abs(k) < 2 ** 62  # so the cell 2k can be quantized
    keys = [np.array([0, 2 ** 49]), np.array([0, k])]
    mix = _mix_keys(keys)
    assert mix[0] == mix[1]
    far = np.array([quantized_to(2 ** 50), quantized_to(2 * k)])
    window = Window(np.array([-1.0]), np.array([1.0]))
    if folded:
        # x = -1 and x = 1 both map to `far`, x = 0 to the origin: a run of
        # three equal mixes, in whichever order the sort puts them, holds a
        # coincident pair and one colliding pair on each side of it
        trunk = Network(1, (Layer(np.array([[1.0], [-1.0]]), np.zeros(2)),
                            Layer(np.stack([far, far], axis=1), np.zeros(2))),
                        RELU, final_activation=False)
        resolution = 3
    else:
        # x = -1 maps to the origin and x = 1 to `far`: only a colliding pair
        trunk = affine_trunk((far / 2)[:, None], far / 2)
        resolution = 2
    cells = np.floor(forward_batch(trunk, window.lattice((resolution,))) / INJECTIVITY_QUANT)
    far_cells, origin_cells = [2 ** 50, 2 * k], [0, 0]
    assert cells.astype(np.int64).tolist() == ([far_cells, origin_cells, far_cells] if folded
                                               else [origin_cells, far_cells])
    # only the coincident pair reaches a distance, one row for outputs and
    # one for inputs; the colliding pairs are dropped on their keys
    rows_measured = []
    monkeypatch.setattr(nonsingular, "_row_norms",
                        lambda v: rows_measured.append(len(v)) or _row_norms(v))
    assert check_injective_on_grid(trunk, window, resolution) is not folded
    assert sum(rows_measured) == (2 if folded else 0)
    assert reference_injective(trunk, window, resolution) is not folded
