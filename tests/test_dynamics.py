"""Tests for phase-damping sweeps, transitions, and freezing plateaus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqd.checks import random_valid_pauli_params
from gqd.cli import EXIT_INVALID_INPUT, main
from gqd.discord import (
    InvalidParamsError,
    PauliDiagonalParams,
    gqd_numeric,
    gqd_pauli_diagonal,
    pauli_diagonal_state,
    validate_pauli_params,
)
from gqd.dynamics import (
    PlateauInterval,
    SweepRecord,
    SweepRecords,
    _detect_plateaus,
    dephase_pauli_params,
    phase_damping,
    scan_gqd_vs_p,
    sudden_transition_point,
)
from gqd.qcore import DensityMatrix, binary_entropy, random_density_matrix

RNG_SEED = 20240814

# Discord value held during the frozen phase of the (1, -0.6, 0.6) sweep:
# 1 - H2(0.8), with H2 the binary entropy in bits.
FREEZE_VALUE = 0.2780719051126377


class TestPhaseDamping:
    def test_identity_at_zero_strength(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        out = phase_damping(rho, 0, 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_strength_kills_coherences(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        out = phase_damping(rho, 0, 1.0).matrix.reshape(2, 2, 2, 2)
        assert np.allclose(out[0, :, 1, :], 0.0, atol=1e-12)
        assert np.allclose(out[1, :, 0, :], 0.0, atol=1e-12)

    def test_preserves_diagonal_populations(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        out = phase_damping(rho, 1, 0.63)
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_kraus_sum(self, n):
        # The channel with Kraus operators sqrt(1 - p/2) I and sqrt(p/2) Z
        # on one qubit, built as dense Kronecker products.
        rng = np.random.default_rng(RNG_SEED + n)
        for _ in range(10):
            rho = random_density_matrix(n, rng)
            for qubit in range(n):
                z = np.kron(np.eye(2**qubit), np.diag([1.0, -1.0]))
                z = np.kron(z, np.eye(2 ** (n - qubit - 1)))
                for p in (0.0, 0.3, 1.0):
                    want = (1 - p / 2) * rho.matrix + (p / 2) * z @ rho.matrix @ z
                    got = phase_damping(rho, qubit, p).matrix
                    assert np.max(np.abs(got - want)) <= 1e-15

    def test_single_qubit_coherence_shrinks_by_one_minus_p(self):
        # N = 1: the damped qubit is the whole state, with no levels left of
        # it or right of it.
        plus = DensityMatrix(np.full((2, 2), 0.5))
        for p in (0.0, 0.3, 1.0):
            out = phase_damping(plus, 0, p).matrix
            assert out.tolist() == [[0.5, 0.5 * (1 - p)], [0.5 * (1 - p), 0.5]]

    def test_strengths_compose(self):
        # Two dampings of one qubit are one damping of strength
        # 1 - (1 - p) (1 - q).
        rho = random_density_matrix(3, np.random.default_rng(RNG_SEED))
        for qubit in range(3):
            for p, q in [(0.2, 0.5), (0.7, 0.1), (0.3, 1.0)]:
                twice = phase_damping(phase_damping(rho, qubit, p), qubit, q).matrix
                once = phase_damping(rho, qubit, 1 - (1 - p) * (1 - q)).matrix
                assert np.max(np.abs(twice - once)) <= 1e-16

    def test_dampings_of_two_qubits_commute(self):
        rho = random_density_matrix(3, np.random.default_rng(RNG_SEED))
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            ab = phase_damping(phase_damping(rho, a, 0.4), b, 0.7).matrix
            ba = phase_damping(phase_damping(rho, b, 0.7), a, 0.4).matrix
            assert np.max(np.abs(ab - ba)) <= 1e-16

    def test_leaves_its_input_alone_and_keeps_hermiticity_exact(self):
        m = random_density_matrix(3, np.random.default_rng(RNG_SEED)).matrix
        rho = DensityMatrix((m + m.conj().T) / 2)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        before = rho.matrix.copy()
        for qubit in range(3):
            out = phase_damping(rho, qubit, 0.37).matrix
            assert np.array_equal(out, out.conj().T)
            assert out.trace() == rho.matrix.trace()
        assert np.array_equal(rho.matrix, before)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_qubit_maps_the_pauli_coefficients(self, n):
        # The Pauli strings act alike on every qubit, so damping any one of
        # them gives the state of dephase_pauli_params.
        rng = np.random.default_rng(RNG_SEED + n)
        params = random_valid_pauli_params(n, rng)
        rho = pauli_diagonal_state(params)
        for p in (0.2, 0.7, 1.0):
            want = pauli_diagonal_state(dephase_pauli_params(params, p)).matrix
            for qubit in range(n):
                got = phase_damping(rho, qubit, p).matrix
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_leaves_same_level_entries_and_zeroes_cross_level_ones(self, n):
        # Entries between equal levels of the damped qubit are copied bit for
        # bit, and at p = 1 the two blocks coupling its levels are exactly 0.
        rho = random_density_matrix(n, np.random.default_rng(RNG_SEED + n))
        for qubit in range(n):
            shape = (2**qubit, 2, -1, 2**qubit, 2, 2 ** (n - qubit - 1))
            before = rho.matrix.reshape(shape)
            for p in (0.3, 0.63, 1.0):
                after = phase_damping(rho, qubit, p).matrix.reshape(shape)
                for level in (0, 1):
                    same = (slice(None), level, slice(None), slice(None), level)
                    assert np.array_equal(after[same], before[same])
            cross = [(slice(None), a, slice(None), slice(None), 1 - a) for a in (0, 1)]
            full = phase_damping(rho, qubit, 1.0).matrix.reshape(shape)
            assert all(not full[c].any() for c in cross)

    @pytest.mark.parametrize("qubit", [True, False, 1.0, "0", None, -1, 2])
    def test_rejects_a_qubit_that_is_not_an_index(self, qubit):
        rho = random_density_matrix(2, np.random.default_rng(RNG_SEED))
        with pytest.raises(ValueError, match="qubit"):
            phase_damping(rho, qubit, 0.3)

    def test_numpy_integer_qubit_damps_what_an_int_damps(self):
        rho = random_density_matrix(2, np.random.default_rng(RNG_SEED))
        want = phase_damping(rho, 1, 0.3).matrix
        for qubit in (np.int64(1), np.uint8(1)):
            assert np.array_equal(phase_damping(rho, qubit, 0.3).matrix, want)

    def test_rejects_bad_strength(self):
        rho = random_density_matrix(2, np.random.default_rng(RNG_SEED))
        with pytest.raises(ValueError):
            phase_damping(rho, 0, -0.1)
        with pytest.raises(ValueError):
            phase_damping(rho, 0, 1.1)
        with pytest.raises(ValueError):
            phase_damping(rho, 0, math.nan)

    def test_matches_coefficient_map_exactly(self):
        # damping one qubit of a correlation-diagonal state shrinks the
        # transverse coefficients and leaves the state in the same family
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            params = random_valid_pauli_params(n, rng)
            for p in (0.2, 0.7):
                damped = phase_damping(pauli_diagonal_state(params), 0, p)
                mapped = pauli_diagonal_state(dephase_pauli_params(params, p))
                assert np.allclose(damped.matrix, mapped.matrix, atol=1e-14)

    def test_numeric_discord_tracks_closed_form_after_damping(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            params = random_valid_pauli_params(n, rng)
            p = float(rng.uniform(0.1, 0.9))
            damped = phase_damping(pauli_diagonal_state(params), 0, p)
            want = gqd_pauli_diagonal(dephase_pauli_params(params, p))
            got = gqd_numeric(damped).value
            assert abs(got - want) <= 1e-4


class TestDephaseParamMap:
    def test_coefficient_scaling(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        out = dephase_pauli_params(params, 0.25)
        assert np.allclose(out.coefficients(), (0.375, 0.075, 0.2), atol=1e-15)

    def test_preserves_validity_along_sweep(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3, 4):
            params = random_valid_pauli_params(n, rng)
            for p in np.linspace(0.0, 1.0, 21):
                assert validate_pauli_params(dephase_pauli_params(params, p)).ok

    def test_rejects_bad_arguments(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        with pytest.raises(ValueError):
            dephase_pauli_params(params, -0.1)
        with pytest.raises(ValueError):
            dephase_pauli_params(params, 1.1)


class TestSuddenTransitionPoint:
    def test_textbook_case(self):
        p = sudden_transition_point(PauliDiagonalParams(2, 0.5, 0.1, 0.2))
        assert math.isclose(p, 0.6, abs_tol=1e-12)

    def test_no_transition_without_longitudinal_part(self):
        assert sudden_transition_point(PauliDiagonalParams(2, 0.5, 0.5, 0.0)) is None

    def test_no_transition_when_longitudinal_dominates(self):
        assert sudden_transition_point(PauliDiagonalParams(2, 0.3, -0.1, 0.5)) is None
        # boundary |c3| = max|transverse| never crosses, strictly
        assert sudden_transition_point(PauliDiagonalParams(2, 0.4, -0.4, 0.4)) is None

    def test_uses_larger_transverse_coefficient(self):
        p = sudden_transition_point(PauliDiagonalParams(2, -0.6, 1.0, 0.6))
        assert math.isclose(p, 1.0 - 0.6 / 1.0, abs_tol=1e-12)


class TestScan:
    def test_kink_found_iff_transition_predicted(self):
        rng = np.random.default_rng(RNG_SEED)
        grid = np.linspace(0.0, 1.0, 101)
        step = grid[1] - grid[0]
        tested_with, tested_without = 0, 0
        while tested_with < 6 or tested_without < 6:
            params = random_valid_pauli_params(2, rng)
            p_star = sudden_transition_point(params)
            records, report = scan_gqd_vs_p(params, grid)
            assert report.predicted_transition_p == p_star
            if p_star is None:
                assert report.kinks == ()
                tested_without += 1
            else:
                assert len(report.kinks) >= 1
                assert min(abs(k - p_star) for k in report.kinks) <= step + 1e-12
                tested_with += 1

    def test_branch_labels_switch_at_transition(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        records, report = scan_gqd_vs_p(params, np.linspace(0.0, 1.0, 101))
        p_star = report.predicted_transition_p
        for r in records:
            if r.p < p_star - 1e-12:
                assert r.active_branch == "x_dominant"
            elif r.p > p_star + 1e-12:
                assert r.active_branch == "z_dominant"

    def test_records_carry_dephased_coefficients(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        records, _ = scan_gqd_vs_p(params, np.linspace(0.0, 1.0, 11))
        r = records[5]
        assert math.isclose(r.p, 0.5, abs_tol=1e-12)
        assert math.isclose(r.c1_p, 0.25, abs_tol=1e-15)
        assert math.isclose(r.c2_p, 0.05, abs_tol=1e-15)
        assert math.isclose(r.c3_p, 0.2, abs_tol=1e-15)
        assert r.gqd >= 0.0

    def test_freezing_sweep(self):
        params = PauliDiagonalParams(2, 1.0, -0.6, 0.6)
        grid = np.linspace(0.0, 1.0, 101)
        records, report = scan_gqd_vs_p(params, grid)

        assert math.isclose(report.predicted_transition_p, 0.4, abs_tol=1e-12)
        assert any(abs(k - 0.4) <= 0.01 + 1e-12 for k in report.kinks)
        assert math.isclose(FREEZE_VALUE, 1.0 - binary_entropy(0.8), abs_tol=1e-15)

        # constant before the transition
        frozen = [r.gqd for r in records if 0.01 <= r.p <= 0.39]
        assert max(abs(v - FREEZE_VALUE) for v in frozen) <= 1e-9

        # strictly decreasing after it
        tail = [r.gqd for r in records if r.p >= 0.41]
        assert all(b < a for a, b in zip(tail, tail[1:]))

        plateau = max(report.plateaus, key=lambda w: w.p_end - w.p_start)
        assert plateau.p_start <= 0.01
        assert abs(plateau.p_end - 0.4) <= 0.01 + 1e-12
        assert abs(plateau.value - FREEZE_VALUE) <= 1e-9
        assert plateau.max_deviation <= 1e-9

    def test_flat_zero_sweep_reports_no_kinks(self):
        # purely longitudinal correlations are untouched by the damping
        params = PauliDiagonalParams(2, 0.0, 0.0, 0.5)
        records, report = scan_gqd_vs_p(params, np.linspace(0.0, 1.0, 51))
        assert report.predicted_transition_p is None
        assert report.kinks == ()
        values = [r.gqd for r in records]
        assert max(values) - min(values) <= 1e-12
        assert all(r.active_branch == "z_dominant" for r in records)

    def test_smooth_decay_without_longitudinal_part_has_no_kink(self):
        for c in [(0.5, 0.5, 0.0), (0.7, -0.2, 0.0)]:
            params = PauliDiagonalParams(2, *c)
            _, report = scan_gqd_vs_p(params, np.linspace(0.0, 1.0, 101))
            assert report.predicted_transition_p is None
            assert report.kinks == ()

    def test_no_plateau_for_ordinary_decay(self):
        params = PauliDiagonalParams(3, 0.5, 0.1, 0.2)
        _, report = scan_gqd_vs_p(params, np.linspace(0.0, 1.0, 101))
        assert report.plateaus == ()

    @pytest.mark.parametrize(
        "grid", [[math.nan, 0.5, 1.0], [0.0, math.nan, 1.0], [0.0, 0.5, math.inf]]
    )
    def test_rejects_non_finite_grid_entries(self, grid):
        with pytest.raises(ValueError):
            scan_gqd_vs_p(PauliDiagonalParams(2, 0.5, 0.1, 0.2), grid)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_records_are_the_scalar_closed_form(self, n):
        # One formula: every record equals the public scalar functions at its
        # dephased coefficients, bit for bit, with and without a transition.
        rng = np.random.default_rng(RNG_SEED + n)
        cases = {True: None, False: None}
        while None in cases.values():
            params = random_valid_pauli_params(n, rng)
            cases[sudden_transition_point(params) is not None] = params
        grid = np.linspace(0.0, 1.0, 201)
        for params in (*cases.values(), PauliDiagonalParams(n, 1.0, 0.0, 0.0)):
            records, _ = scan_gqd_vs_p(params, grid)
            for r, p in zip(records, grid.tolist()):
                evolved = dephase_pauli_params(params, p)
                assert r.p == p
                assert (r.c1_p, r.c2_p, r.c3_p) == evolved.coefficients()
                assert r.gqd == max(gqd_pauli_diagonal(evolved), 0.0), (params, p)

    def test_names_the_first_dephased_point_that_is_not_positive(self, monkeypatch):
        from gqd import discord

        # Dephasing keeps a state positive, so a negative weight is planted
        # at the fourth grid point. Only the grid's weights are 2-D; the
        # scalar check of the undamped state is left alone.
        weights_of = discord._pauli_weights

        def planted(*args):
            weights = weights_of(*args)
            if weights.ndim == 2:
                weights[3, 0] = -0.5
            return weights

        monkeypatch.setattr(discord, "_pauli_weights", planted)
        with pytest.raises(InvalidParamsError, match=r"at p = 0\.3.*: lambda1 = -0\.5 "):
            scan_gqd_vs_p(PauliDiagonalParams(2, 0.5, 0.1, 0.2), np.linspace(0.0, 1.0, 11))

    def test_every_entry_point_gives_one_message(self, tmp_path, capsys):
        params = PauliDiagonalParams(2, 0.8, 0.2, 0.3)
        message = "pauli-diagonal coefficients invalid: lambda4 = -0.075 out of range [0, 1]"
        for entry in (
            gqd_pauli_diagonal,
            pauli_diagonal_state,
            sudden_transition_point,
            lambda q: dephase_pauli_params(q, 0.5),
            lambda q: scan_gqd_vs_p(q, np.linspace(0.0, 1.0, 11)),
        ):
            with pytest.raises(InvalidParamsError) as exc:
                entry(params)
            assert str(exc.value) == message
        code = main([
            "dephase-scan", "--n", "2", "--c1", "0.8", "--c2", "0.2", "--c3", "0.3",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert (code, capsys.readouterr().err) == (EXIT_INVALID_INPUT, f"error: {message}\n")

    def test_grid_validation(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        with pytest.raises(ValueError):
            scan_gqd_vs_p(params, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            scan_gqd_vs_p(params, np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError):
            scan_gqd_vs_p(params, np.array([0.0, 0.5, 1.5]))
        with pytest.raises(ValueError):
            scan_gqd_vs_p(params, np.linspace(0, 1, 12).reshape(3, 4))


# Per-point references for the columnar scan: the record list, branch labels,
# kink loop and greedy plateau scan as they were before the scan held its
# results as columns.


def reference_branches(params, factor):
    vz = abs(params.c3)
    transverse = "x_dominant" if abs(params.c1) >= abs(params.c2) else "y_dominant"
    if not (vz > 0.0 or (params.c1 == 0.0 and params.c2 == 0.0)):
        return [transverse] * factor.size
    z = (vz >= abs(params.c1) * factor) & (vz >= abs(params.c2) * factor)
    return ["z_dominant" if zi else transverse for zi in z.tolist()]


def reference_records(params, grid, gqd):
    factor = 1.0 - grid
    branches = reference_branches(params, factor)
    return [
        SweepRecord(p, c1, c2, params.c3, value, branch)
        for p, c1, c2, value, branch in zip(
            grid.tolist(), (params.c1 * factor).tolist(),
            (params.c2 * factor).tolist(), gqd.tolist(), branches,
        )
    ]


def reference_kinks(grid, gqd, branches):
    second = np.abs(gqd[:-2] - 2.0 * gqd[1:-1] + gqd[2:])
    threshold = max(10.0 * float(np.median(second)), 1e-9)

    def sharpness(i):
        return float(second[i - 1]) if 1 <= i <= second.size else 0.0

    kinks = []
    for i in range(1, len(branches)):
        if branches[i] == branches[i - 1]:
            continue
        window = [j for j in (i - 1, i, i + 1) if 1 <= j <= second.size]
        spiked = [j for j in window if sharpness(j) > threshold]
        at = max(spiked, key=sharpness) if spiked else i
        p = float(grid[at])
        if not kinks or p != kinks[-1]:
            kinks.append(p)
    return tuple(kinks)


def reference_plateaus(grid, gqd):
    plateaus = []
    values = gqd.tolist()
    i, m = 0, len(grid)
    while i < m:
        j = i
        lo = hi = values[i]
        while j + 1 < m:
            lo2, hi2 = min(lo, values[j + 1]), max(hi, values[j + 1])
            if hi2 - lo2 > 1e-7:
                break
            lo, hi = lo2, hi2
            j += 1
        if j - i >= 2:
            plateaus.append(PlateauInterval(
                float(grid[i]), float(grid[j]), float(np.mean(gqd[i : j + 1])), float(hi - lo)
            ))
        i = j + 1
    return tuple(plateaus)


def assert_scan_matches_reference(params, grid):
    records, report = scan_gqd_vs_p(params, grid)
    assert list(records) == reference_records(params, grid, records.gqd)
    branches = reference_branches(params, 1.0 - grid)
    assert report.kinks == reference_kinks(grid, records.gqd, branches)
    assert report.plateaus == reference_plateaus(grid, records.gqd)
    return records, report


class TestColumnarScan:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_the_per_point_reference(self, n):
        rng = np.random.default_rng(RNG_SEED + 100 + n)
        wanted = {True: 3, False: 3}
        while any(wanted.values()):
            params = random_valid_pauli_params(n, rng)
            transition = sudden_transition_point(params) is not None
            if wanted[transition]:
                wanted[transition] -= 1
                for steps in (2001, 101):
                    assert_scan_matches_reference(params, np.linspace(0.0, 1.0, steps))

    @pytest.mark.parametrize(
        "params",
        [
            # c = (0.6, 0, 0) at even N has zero discord all along the scan;
            # the values are rounding dust.
            PauliDiagonalParams(2, 0.6, 0.0, 0.0),
            PauliDiagonalParams(4, 0.6, 0.0, 0.0),
            PauliDiagonalParams(6, 0.6, 0.0, 0.0),
            # The frozen discord before p* = 0.4.
            PauliDiagonalParams(2, 1.0, -0.6, 0.6),
        ],
    )
    def test_curves_with_plateaus(self, params):
        _, report = assert_scan_matches_reference(params, np.linspace(0.0, 1.0, 2001))
        assert report.plateaus

    def test_whole_grid_plateau(self):
        grid = np.linspace(0.0, 1.0, 2001)
        _, report = assert_scan_matches_reference(PauliDiagonalParams(3, 0.0, 0.0, 0.5), grid)
        assert [(pl.p_start, pl.p_end) for pl in report.plateaus] == [(0.0, 1.0)]

    def test_greedy_split_inside_a_run(self):
        # Every step of 4e-8 is within the 1e-7 tolerance, but four points
        # span 1.2e-7, so the one run splits into windows of three points.
        gqd = 0.3 + 4e-8 * np.arange(50)
        grid = np.linspace(0.0, 1.0, 50)
        plateaus = _detect_plateaus(grid, gqd)
        assert plateaus == reference_plateaus(grid, gqd)
        assert len(plateaus) == 16

    def test_step_of_exactly_the_tolerance_stays_inside_a_plateau(self):
        gqd = np.array([0.5, 0.0, 0.0, 1e-7, 1e-7, 0.5])
        grid = np.linspace(0.0, 1.0, gqd.size)
        plateaus = _detect_plateaus(grid, gqd)
        assert plateaus == reference_plateaus(grid, gqd)
        assert [(pl.p_start, pl.p_end) for pl in plateaus] == [(grid[1], grid[4])]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.integers(1, 12),
                st.sampled_from([0.0, 1e-9, 3e-8, 6e-8, 1e-7, 2e-7, 1e-3]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_plateaus_of_piecewise_flat_arrays(self, pieces, seed):
        rng = np.random.default_rng(seed)
        gqd = np.concatenate(
            [level + noise * rng.uniform(-1.0, 1.0, size) for level, size, noise in pieces]
        )
        grid = np.linspace(0.0, 1.0, gqd.size)
        assert _detect_plateaus(grid, gqd) == reference_plateaus(grid, gqd)

    def test_sequence_protocol(self):
        params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
        grid = np.linspace(0.0, 1.0, 11)
        records, _ = scan_gqd_vs_p(params, grid)
        assert isinstance(records, SweepRecords)
        assert isinstance(records.gqd, np.ndarray) and records.branch.dtype == np.int8
        expected = reference_records(params, grid, records.gqd)
        assert len(records) == 11
        assert list(records) == expected
        assert records[0] == expected[0]
        assert records[-1] == expected[-1] == records[10]
        assert records[-11] == expected[0]
        assert list(records[2:5]) == expected[2:5]
        for bad in (11, -12):
            with pytest.raises(IndexError):
                records[bad]

    def test_records_do_not_share_the_callers_grid(self):
        grid = np.linspace(0.0, 1.0, 11)
        records, _ = scan_gqd_vs_p(PauliDiagonalParams(2, 0.5, 0.1, 0.2), grid)
        grid[:] = 0.5
        assert records[0].p == 0.0
