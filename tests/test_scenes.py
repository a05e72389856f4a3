import math

import numpy as np
import pytest

from sgineq.lattice import Ordering
from sgineq.scenes import (
    RotationScene,
    ShiftScene,
    run_rotation_example,
    run_shift_example,
)


class TestShiftScene:
    def test_grid_mirror_symmetry(self):
        x = ShiftScene(t=1.0).grid()
        assert np.array_equal(x[::-1], -x)
        assert x[0] == -6.0 and x[-1] == 6.0
        assert x.size == 241

    def test_alignment_errors(self):
        with pytest.raises(ValueError):
            ShiftScene(t=0.503)
        with pytest.raises(ValueError):
            ShiftScene(t=6.0)
        with pytest.raises(ValueError):
            ShiftScene(t=-0.5)

    def test_mirror_is_involution(self):
        m = ShiftScene(t=0.5).mirror_matrix()
        assert np.array_equal(m @ m, np.eye(m.shape[0]))
        assert np.array_equal(m.sum(axis=1), np.ones(m.shape[0]))

    def test_shift_matrix_substochastic(self):
        scene = ShiftScene(t=2.0)
        mat = scene.shift_matrix()
        assert np.min(mat) >= 0.0
        sums = mat.sum(axis=1)
        k = scene.shift_steps
        assert np.array_equal(sums[: mat.shape[0] - k], np.ones(mat.shape[0] - k))
        assert np.array_equal(sums[mat.shape[0] - k:], np.zeros(k))

    def test_matrix_matches_report_curves(self):
        scene = ShiftScene(t=1.0)
        rep = run_shift_example(scene)
        f = scene.profile()
        mirror = scene.mirror_matrix()
        shift = scene.shift_matrix()
        assert np.array_equal(rep.lhs, mirror @ (shift @ f))
        assert np.array_equal(rep.rhs, shift @ (mirror @ f))


class TestShiftExample:
    def test_t_zero_equal(self):
        rep = run_shift_example(ShiftScene(t=0.0))
        assert rep.verdict is Ordering.EQUAL
        assert rep.closed_form_defect == 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_incomparable_with_opposed_peaks(self, t):
        rep = run_shift_example(ShiftScene(t=t))
        assert rep.verdict is Ordering.INCOMPARABLE
        assert rep.argmax_lhs == t
        assert rep.argmax_rhs == -t
        assert rep.lhs_at_t == 1.0
        assert abs(rep.rhs_at_t - math.exp(-4.0 * t * t)) <= 1e-12
        assert rep.closed_form_defect <= 1e-12

    def test_frozen_crossing_values(self):
        rep = run_shift_example(ShiftScene(t=1.0))
        at = {float(c): i for i, c in enumerate(rep.coords)}
        i_plus, i_minus = at[1.0], at[-1.0]
        assert rep.lhs[i_plus] == 1.0
        assert abs(rep.rhs[i_plus] - 0.01831563888873418) <= 1e-15
        assert abs(rep.lhs[i_minus] - 0.01831563888873418) <= 1e-15
        assert rep.rhs[i_minus] == 1.0

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 2.0, 4.0])
    def test_difference_changes_sign(self, t):
        rep = run_shift_example(ShiftScene(t=t))
        inside = np.abs(rep.coords) <= rep.window[1] + 1e-12
        diff = rep.lhs[inside] - rep.rhs[inside]
        eps = 1e-9
        assert np.max(diff) > eps
        assert np.min(diff) < -eps

    def test_window_shrinks_with_t(self):
        rep = run_shift_example(ShiftScene(t=2.0))
        assert rep.window == (-4.0, 4.0)

    def test_report_json_fields(self):
        doc = run_shift_example(ShiftScene(t=1.0)).to_json()
        assert doc["verdict"] == "INCOMPARABLE"
        assert doc["t"] == 1.0
        assert "closed_form_defect" in doc


class TestRotationScene:
    def test_rotation_matrix_is_permutation(self):
        scene = RotationScene(k=90)
        mat = scene.rotation_matrix()
        assert np.array_equal(mat.sum(axis=1), np.ones(360))
        assert np.array_equal(mat.sum(axis=0), np.ones(360))
        assert set(np.unique(mat)) == {0.0, 1.0}
        f = scene.profile()
        assert np.array_equal(mat @ f, np.roll(f, -90))

    def test_mirror_is_involution(self):
        perm = RotationScene(k=0).mirror_permutation()
        assert np.array_equal(perm[perm], np.arange(360))

    def test_constructor_gates(self):
        with pytest.raises(ValueError):
            RotationScene(k=0, n_points=2)
        with pytest.raises(ValueError):
            RotationScene(k=-1)
        with pytest.raises(ValueError):
            RotationScene(k=361)

    def test_time_mapping(self):
        assert RotationScene(k=180).t == math.pi
        assert RotationScene(k=90).t == math.pi / 2.0


class TestRotationExample:
    def test_full_turn_exactly_equal(self):
        rep = run_rotation_example(RotationScene(k=360))
        assert rep.verdict is Ordering.EQUAL
        assert np.array_equal(rep.lhs, rep.rhs)
        assert rep.closed_form_defect <= 1e-12
        assert rep.identity_function_preserved

    def test_identity_rotation(self):
        rep = run_rotation_example(RotationScene(k=0))
        assert rep.verdict is Ordering.EQUAL
        assert rep.identity_function_preserved

    def test_quarter_turn_incomparable(self):
        rep = run_rotation_example(RotationScene(k=90))
        assert rep.verdict is Ordering.INCOMPARABLE
        z = rep.coords
        assert np.max(np.abs(rep.lhs - (np.sin(z) + 1.0))) <= 1e-12
        assert np.max(np.abs(rep.rhs - (1.0 - np.sin(z)))) <= 1e-12
        assert abs(rep.lhs[90] - 2.0) <= 1e-12
        assert abs(rep.rhs[90]) <= 1e-12
        assert abs(rep.lhs[270]) <= 1e-12
        assert abs(rep.rhs[270] - 2.0) <= 1e-12

    def test_equality_set_over_full_sweep(self):
        # The two sides coincide on the half-turn as well: C R_t = R_{-t} C,
        # and R_pi = R_{-pi}, so k = 180 lands on EQUAL for any profile even
        # though the rotation itself is not the identity there.
        equal_ks = []
        for k in range(0, 361):
            rep = run_rotation_example(RotationScene(k=k))
            assert rep.closed_form_defect <= 1e-12
            if rep.verdict is Ordering.EQUAL:
                equal_ks.append(k)
            else:
                assert rep.verdict is Ordering.INCOMPARABLE
        assert equal_ks == [0, 180, 360]

    def test_identity_preserved_only_on_full_turns(self):
        flags = {k: run_rotation_example(RotationScene(k=k)).identity_function_preserved
                 for k in (0, 1, 90, 180, 359, 360)}
        assert flags == {0: True, 1: False, 90: False, 180: False,
                         359: False, 360: True}

    def test_report_json_fields(self):
        doc = run_rotation_example(RotationScene(k=90)).to_json()
        assert doc["verdict"] == "INCOMPARABLE"
        assert doc["k"] == 90
        assert doc["t"] == math.pi / 2.0

    def test_small_circle(self):
        rep = run_rotation_example(RotationScene(k=1, n_points=4))
        assert rep.verdict in (Ordering.INCOMPARABLE, Ordering.EQUAL)
        assert rep.closed_form_defect <= 1e-12


CURVES = {"coords", "lhs", "rhs"}


@pytest.mark.parametrize("report", [run_shift_example(ShiftScene(t=1.0)),
                                    run_rotation_example(RotationScene(k=90))],
                         ids=["shift", "rotation"])
def test_scene_json_keys_are_the_report_fields_less_the_curves(report):
    doc = report.to_json()
    assert set(doc) == set(report._fields) - CURVES
    assert doc["verdict"] == report.verdict.value
