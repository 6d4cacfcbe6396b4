import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bethe6v import functions, solver
from bethe6v import (
    Anisotropy,
    DomainError,
    QuantumNumbers,
    bethe_residual,
    ground_state_quantum_numbers,
    log_equations,
    solve,
    transfer_eigenvalue,
)
from bethe6v.functions import ZERO_MOMENTUM_TOL, _phase_sums

from helpers import (dense_log_jacobian, dense_mirror_jacobian, dense_phase_sums,
                     dense_rounding_floor)


def _edge_excitation(N=16, c=1.3):
    """The ground labels of n = N/2 - 2 with the edge excitation I_n -> I_n + 1."""
    labels = list(ground_state_quantum_numbers(N // 2 - 2).values)
    labels[-1] += 1
    return N, QuantumNumbers(tuple(labels)), Anisotropy(c)


def _assert_condition_of_dense_jacobian(report):
    """The estimate is the 1-norm condition number of the C-order dense
    Jacobian, whose column sums add row by row; returns that Jacobian."""
    jac = dense_log_jacobian(report.N, report.momenta.as_array(), report.momenta.anisotropy)
    assert report.jacobian_condition_estimate == np.linalg.cond(jac, 1)
    return jac


def _wrap_equations(monkeypatch, wrap):
    """Make solve build its equations through wrap(unknowns, expand, residual,
    jacobian, floor), which returns the five it passes on."""
    build = solver._equations
    monkeypatch.setattr(solver, "_equations", lambda *args, **kwargs: wrap(*build(*args, **kwargs)))


def _record_kernels(monkeypatch):
    """Record (name, shape) of every block of S and every np.linalg.cond
    evaluated from here on.  Every S, certified or not, is formed by
    functions._kernel, and each must come out as its two float64 parts."""
    kernels = []

    def recording(name, fn):
        def wrapped(x, y, *rest):
            kernels.append((name, np.broadcast(np.asarray(x), np.asarray(y)).shape))
            return fn(x, y, *rest)
        return wrapped

    def real_parts(*args, kernel=functions._kernel):
        *parts, low = kernel(*args)
        assert [part.dtype for part in parts] == [np.float64, np.float64], parts
        return (*parts, low)

    monkeypatch.setattr(functions, "_kernel", recording("_kernel", real_parts))
    monkeypatch.setattr(np.linalg, "cond", recording("cond", np.linalg.cond))
    return kernels


def _blocks(rows, n):
    """The shapes, in order, of the blocks of a pass over rows x n kernel entries."""
    step = max(1, functions._BLOCK_ELEMENTS // n)
    return [(min(step, rows - start), n) for start in range(0, rows, step)]


def _assert_condition_read_once(report, kernels, n):
    """The first read of the condition number forms the full n x n Jacobian
    (one pass of S blocks over all n rows) and inverts it; a second read
    evaluates nothing."""
    kernels.clear()
    cond = report.jacobian_condition_estimate
    assert kernels == [("_kernel", shape) for shape in _blocks(n, n)] + [("cond", (n, n))], kernels
    kernels.clear()
    assert report.jacobian_condition_estimate == cond
    assert kernels == []


class TestQuantumNumbers:
    def test_ground_state_presets(self):
        assert ground_state_quantum_numbers(1).values == (Fraction(0),)
        assert ground_state_quantum_numbers(2).values == (
            Fraction(-1, 2),
            Fraction(1, 2),
        )
        assert ground_state_quantum_numbers(3).values == (
            Fraction(-1),
            Fraction(0),
            Fraction(1),
        )

    def test_parity_validation(self):
        QuantumNumbers((Fraction(-1, 2), Fraction(1, 2)))  # even n: half integers
        QuantumNumbers((Fraction(0),))                      # odd n: integers
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(0), Fraction(1)))      # even n with integers
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(1, 2),))               # odd n with half integer
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(1, 3), Fraction(2, 3)))

    def test_distinctness(self):
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(0), Fraction(0), Fraction(1)))


class TestSolve:
    def test_zero_quantum_number_fixed_point(self):
        report = solve(6, ground_state_quantum_numbers(1), Anisotropy(1.0))
        assert report.converged
        assert report.iterations <= 1
        assert report.final_residual == 0.0
        assert report.momenta.momenta == (0.0,)
        assert transfer_eigenvalue(report.momenta, 6)[1] is True

    def test_single_momentum_is_linear(self):
        N = 12  # 2*pi/N must land inside the c = 1 domain
        report = solve(N, QuantumNumbers((Fraction(1),)), Anisotropy(1.0))
        assert report.converged
        assert abs(report.momenta.momenta[0] - 2.0 * math.pi / N) < 1e-15

    def test_ground_state_pair(self):
        N = 8
        a = Anisotropy(1.0)
        report = solve(N, ground_state_quantum_numbers(2), a)
        assert report.converged
        assert report.final_residual <= 1e-12
        assert not report.degenerate
        p1, p2 = report.momenta.momenta
        assert p2 > 0.0 and abs(p1 + p2) < 1e-10
        assert np.max(np.abs(bethe_residual(report.momenta, N))) < 1e-10

    def test_symmetric_triple_contains_zero(self):
        report = solve(8, ground_state_quantum_numbers(3), Anisotropy(0.5))
        assert report.converged
        p = np.array(report.momenta.momenta)
        assert abs(p[1]) < ZERO_MOMENTUM_TOL
        assert transfer_eigenvalue(report.momenta, 8)[1] is True
        assert abs(p[0] + p[2]) < 1e-10

    def test_symmetry_preservation_across_c(self):
        for c in (0.5, 1.0, math.sqrt(2.0), 2.0):
            report = solve(12, ground_state_quantum_numbers(4), Anisotropy(c))
            assert report.converged, c
            p = np.array(report.momenta.momenta)
            assert np.max(np.abs(p + p[::-1])) < 1e-10

    def test_rejects_overfilled_sector(self):
        with pytest.raises(ValueError):
            solve(4, ground_state_quantum_numbers(3), Anisotropy(1.0))

    def test_empty_sector(self):
        report = solve(4, ground_state_quantum_numbers(0), Anisotropy(1.0))
        assert report.converged and report.momenta.n == 0

    def test_honest_non_convergence(self):
        # target momentum pi sits on the boundary: no solution inside the domain
        report = solve(2, QuantumNumbers((Fraction(1),)), Anisotropy(1.0))
        assert not report.converged
        assert report.final_residual > 0.0

    def test_stall_within_rounding_floor_converges(self):
        # the residual stalls above 1e-12 here, at a few ulps of the terms it sums
        N, qn, a = 512, ground_state_quantum_numbers(256), Anisotropy(0.505)
        report = solve(N, qn, a)
        assert report.converged
        assert report.final_residual > 1e-12
        assert report.iterations < 20
        assert np.max(np.abs(bethe_residual(report.momenta, N))) <= 1e-10
        # the best iterate is kept: the reported residual is the one at its momenta
        residual, _ = log_equations(N, qn, a)
        p = report.momenta.as_array()
        assert report.final_residual == float(np.max(np.abs(residual(p))))

    def test_stall_at_the_domain_edge_stays_non_converged(self):
        # the second momentum is clamped at the edge, where S(p, p) vanishes;
        # the k = j phase is exactly 0 and must not inflate the rounding floor
        qn = QuantumNumbers((Fraction(-1, 2), Fraction(3, 2)))
        report = solve(8, qn, Anisotropy(1.0))
        assert not report.converged
        assert 1e-12 < report.final_residual < 1e-10

    def test_floor_judges_stalls_only(self, monkeypatch):
        # a root whose every full step lowers the residual down to 1e-12
        # never computes the rounding floor
        def unexpected(*args):
            raise AssertionError("rounding floor computed without a stall")

        _wrap_equations(monkeypatch, lambda *equations: (*equations[:4], unexpected))
        for N, c in ((8, 1.0), (64, 1.0), (512, 0.5)):
            report = solve(N, ground_state_quantum_numbers(N // 2), Anisotropy(c))
            assert report.converged and report.final_residual <= 1e-12, (N, c)

    def test_line_search_counters(self):
        # at N = 24, c = 0.3 the labels (-3/2, -1/2) halve one trial step far
        # above the rounding floor before it is accepted, and the root takes
        # two polish steps; at N = 128, c = 1.5 the ground state takes one
        # polish step; at N = 135, c = 0.1 its fifth full step fails within
        # the floor, which ends the solve with no halving
        ground = ground_state_quantum_numbers
        for N, qn, c, counters in ((24, QuantumNumbers((Fraction(-3, 2), Fraction(-1, 2))), 0.3, (8, 1, 2)),
                                   (128, ground(64), 1.5, (3, 0, 1)),
                                   (135, ground(67), 0.1, (5, 0, 0))):
            r = solve(N, qn, Anisotropy(c))
            assert r.converged
            assert (r.iterations, r.step_halvings, r.polish_steps) == counters, N

    def test_failed_full_step_within_the_floor_ends_the_solve(self, monkeypatch):
        # at (1024, 0.5) the fourth full step does not lower the residual of
        # an iterate already within its rounding floor: the solve stops there,
        # converged, without halving, polishing or evaluating a shorter step
        calls = {"residual": 0, "jacobian": 0, "floor": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        _wrap_equations(monkeypatch, lambda unknowns, expand, residual, jacobian, floor: (
            unknowns, expand, counted("residual", residual), counted("jacobian", jacobian),
            counted("floor", floor)))
        N, qn, a = 1024, ground_state_quantum_numbers(512), Anisotropy(0.5)
        r = solve(N, qn, a)
        assert r.converged
        assert (r.iterations, r.step_halvings, r.polish_steps) == (4, 0, 0)
        assert calls == {"residual": 5, "jacobian": 4, "floor": 1}
        assert 1e-12 < r.final_residual <= dense_rounding_floor(N, qn, a, r.momenta.as_array())

    def test_stalled_step_evaluates_no_rounded_trial(self, monkeypatch):
        # the root 2 pi / 6 = pi - mu lies on the domain edge, so the second
        # step is clamped back onto the iterate: all of its 20 halvings round
        # to it and none is evaluated.  Its 1 x 1 kernel is one block, formed
        # for the residual at the start and at the accepted step, for the
        # Jacobian at both iterates and once for the rounding floor.
        kernels = _record_kernels(monkeypatch)
        r = solve(6, QuantumNumbers((Fraction(1),)), Anisotropy(1.0))
        assert not r.converged
        assert (r.iterations, r.step_halvings, r.polish_steps) == (2, 20, 0)
        assert kernels == [("_kernel", (1, 1))] * 5

    def test_condition_estimate_reported(self):
        N, qn, a = 16, ground_state_quantum_numbers(8), Anisotropy(1.0)
        report = solve(N, qn, a)
        assert math.isfinite(report.jacobian_condition_estimate)
        assert report.jacobian_condition_estimate >= 1.0
        # the 1-norm condition number (the 2-norm one reads 1.69 here, not 2.11)
        _assert_condition_of_dense_jacobian(report)
        # at N = 18 the column sums of the transposed layout round differently
        jac = _assert_condition_of_dense_jacobian(solve(18, ground_state_quantum_numbers(9), a))
        assert np.linalg.cond(np.asfortranarray(jac), 1) != np.linalg.cond(jac, 1)

    def test_condition_estimate_of_no_momenta(self, monkeypatch):
        kernels = _record_kernels(monkeypatch)
        report = solve(6, ground_state_quantum_numbers(0), Anisotropy(1.0))
        assert report.jacobian_condition_estimate == 1.0
        assert kernels == []

    def test_condition_estimate_of_full_route(self):
        report = solve(*_edge_excitation())
        assert report.converged
        _assert_condition_of_dense_jacobian(report)
        # at N = 36 the column sums of the transposed layout round differently
        report = solve(*_edge_excitation(36))
        assert report.converged
        jac = _assert_condition_of_dense_jacobian(report)
        assert np.linalg.cond(np.asfortranarray(jac), 1) != np.linalg.cond(jac, 1)

    def test_replaced_report_reads_the_same_estimate(self):
        # a report rebuilt by dataclasses.replace keeps N and the labels, so it
        # computes the same estimate afresh
        report = solve(16, ground_state_quantum_numbers(8), Anisotropy(1.0))
        replaced = dataclasses.replace(report, degenerate=True)
        assert replaced.degenerate and replaced.momenta is report.momenta
        assert replaced.jacobian_condition_estimate == report.jacobian_condition_estimate


class TestMirrorRoute:
    """Labels with values[j] == -values[n-1-j] are solved on the n // 2 unknowns
    of the upper half; the equations stay checked on all n rows."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    def test_root_is_antisymmetric_bit_for_bit(self, c):
        a = Anisotropy(c)
        for N, n in ((7, 3), (12, 5), (12, 6), (64, 31), (64, 32), (201, 100)):
            report = solve(N, ground_state_quantum_numbers(n), a)
            assert report.converged, (N, n)
            p = report.momenta.as_array()
            assert np.array_equal(p, -p[::-1]), (N, n)
            if n % 2:
                assert p[n // 2] == 0.0 and math.copysign(1.0, p[n // 2]) == 1.0, (N, n)
            # the zero momentum takes Lambda's zero-momentum branch
            assert transfer_eigenvalue(report.momenta, N)[1] is bool(n % 2), (N, n)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, math.sqrt(2.0), 2.5])
    @pytest.mark.parametrize("N", [8, 64, 512])
    def test_full_residual_at_the_root(self, N, c):
        qn, a = ground_state_quantum_numbers(N // 2), Anisotropy(c)
        report = solve(N, qn, a)
        assert report.converged
        p = report.momenta.as_array()
        residual, _ = log_equations(N, qn, a)
        full = float(np.max(np.abs(residual(p))))
        # the half block's residual is the full system's, bit for bit
        assert report.final_residual == full
        # past 1e-12 only where the line search stalled within rounding
        assert full <= max(1e-12, dense_rounding_floor(N, qn, a, p)), (full, report)

    @pytest.mark.parametrize("N, n, c", [(14, 7, 1.0), (64, 32, 0.5), (512, 256, 0.505)],
                             ids=["odd", "even", "stall"])
    def test_mirrored_labels_evaluate_half_blocks(self, monkeypatch, N, n, c):
        kernels = _record_kernels(monkeypatch)
        report = solve(N, ground_state_quantum_numbers(n), Anisotropy(c))
        assert report.converged
        assert (report.final_residual > 1e-12) == (N == 512)  # the stall takes the floor
        # every kernel has at most ceil(n/2) of the n rows, and nothing is inverted
        assert kernels and all(name != "cond" and shape[0] <= n - n // 2 and shape[1] == n
                               for name, shape in kernels), kernels
        _assert_condition_read_once(report, kernels, n)

    def test_other_labels_evaluate_full_blocks(self, monkeypatch):
        # blocks of 16 entries split the 6 x 6 passes into three of 2 rows
        N, qn, a = _edge_excitation()
        n = qn.n
        monkeypatch.setattr(functions, "_BLOCK_ELEMENTS", 16)
        kernels = _record_kernels(monkeypatch)
        report = solve(N, qn, a)
        assert report.converged
        assert _blocks(n, n) == [(2, n)] * 3
        assert kernels and {shape for _, shape in kernels} == {(2, n)}
        assert len(kernels) % 3 == 0
        assert all(name != "cond" for name, _ in kernels), kernels
        _assert_condition_read_once(report, kernels, n)


class TestBlockRoute:
    """Every O(n^2) pass reads S by blocks of rows into one scratch set.  Blocks
    of a few entries split the passes unevenly (single rows, and a last block
    shorter than the others), and every result is the whole-grid formula's,
    bit for bit."""

    BLOCK_ELEMENTS = [1, 3, 7, 16, 50]
    CASES = [(2, 1, 1.0), (7, 3, 0.5), (12, 5, 1.3), (16, 8, 2.5), (40, 19, 0.3), (41, 20, 1.0)]

    @staticmethod
    def same(got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        return (got.shape == expected.shape and got.tobytes() == expected.tobytes()
                and got.flags.c_contiguous == expected.flags.c_contiguous)

    @pytest.mark.parametrize("N, n, c", CASES)
    @pytest.mark.parametrize("block", BLOCK_ELEMENTS)
    def test_blocks_match_the_dense_formulas(self, monkeypatch, N, n, c, block):
        qn, a = ground_state_quantum_numbers(n), Anisotropy(c)
        root = solve(N, qn, a).momenta.as_array()
        skewed = 0.9 * root + 0.01  # not odd: its phase sums take every row
        assert np.array_equal(root, -root[::-1]) and not np.array_equal(skewed, -skewed[::-1])
        monkeypatch.setattr(functions, "_BLOCK_ELEMENTS", block)
        kernels = _record_kernels(monkeypatch)
        _, _, residual, jacobian, floor = solver._equations(N, qn, a, fold=False)
        for p in (root, skewed):
            expected = dense_phase_sums(p, a)
            kernels.clear()
            assert self.same(_phase_sums(p, a), expected), p
            rows = n - n // 2 if p is root else n
            assert kernels == [("_kernel", shape) for shape in _blocks(rows, n)]
            assert self.same(residual(p), N * p - 2.0 * math.pi * qn.as_array()
                             + dense_phase_sums(p, a))
            # the solver's Jacobians are the transposes of C-order arrays
            assert self.same(jacobian(p), np.asfortranarray(dense_log_jacobian(N, p, a)))
            assert floor(p) == dense_rounding_floor(N, qn, a, p)
        # the folded equations are the unfolded ones at p = expand(q)
        unknowns, expand, residual, folded, floor = solver._equations(N, qn, a, fold=True)
        q = root[unknowns]
        assert np.array_equal(expand(q), root)
        assert self.same(residual(q), N * root - 2.0 * math.pi * qn.as_array()
                         + dense_phase_sums(root, a))
        assert self.same(folded(q), dense_mirror_jacobian(N, q, n, a))
        assert floor(q) == dense_rounding_floor(N, qn, a, root, n // 2)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    def test_default_blocks_at_n_1024(self, monkeypatch, c):
        # at the default block size the odd root's 256 x 512 rows take two
        # blocks and the skewed p's 512 x 512 four, for the phase sums and the
        # rounding floor alike; solve and bethe_residual give the caller back
        # its ufunc buffer size
        N, qn, a = 1024, ground_state_quantum_numbers(512), Anisotropy(c)
        with np.errstate():
            np.setbufsize(4096)
            momenta = solve(N, qn, a).momenta
            assert np.getbufsize() == 4096
            bethe_residual(momenta, N)
            assert np.getbufsize() == 4096
        root = momenta.as_array()
        skewed = 0.9 * root + 0.01
        kernels = _record_kernels(monkeypatch)
        _, _, _, _, floor = solver._equations(N, qn, a, fold=False)
        for p, rows, blocks in ((root, 256, 2), (skewed, 512, 4)):
            expected = dense_phase_sums(p, a)
            kernels.clear()
            assert self.same(_phase_sums(p, a), expected)
            assert kernels == [("_kernel", shape) for shape in _blocks(rows, 512)]
            assert len(kernels) == blocks
            assert floor(p) == dense_rounding_floor(N, qn, a, p)
        unknowns, _, _, _, folded_floor = solver._equations(N, qn, a, fold=True)
        assert folded_floor(root[unknowns]) == dense_rounding_floor(N, qn, a, root, 256)

    def test_one_jacobian_buffer(self):
        # every call writes the one h x h array the builder holds, whole
        N, n, a = 64, 32, Anisotropy(1.3)
        qn = ground_state_quantum_numbers(n)
        q = solve(N, qn, a).momenta.as_array()[n // 2:]
        _, _, _, jacobian, _ = solver._equations(N, qn, a, fold=True)
        first = jacobian(q)
        expected = first.copy()
        moved = jacobian(0.9 * q)
        assert np.shares_memory(first, moved) and not np.array_equal(moved, expected)
        assert np.array_equal(jacobian(q), expected)

    @pytest.mark.parametrize("N, n, c", [(7, 3, 0.5), (12, 5, 1.3), (16, 8, 2.5), (41, 20, 1.0),
                                         (64, 32, 1.0)])
    def test_folded_jacobian_is_the_chain_rule_of_the_full_one(self, N, n, c):
        # p_{n-1-j} = -q_j: the column of q_j minus that of its mirror, on q's rows
        qn, a = ground_state_quantum_numbers(n), Anisotropy(c)
        p = solve(N, qn, a).momenta.as_array()
        unknowns, _, _, folded, _ = solver._equations(N, qn, a, fold=True)
        upper, mirror = np.arange(n)[unknowns], np.arange(n // 2)[::-1]
        full = dense_log_jacobian(N, p, a)[upper]
        chain = full[:, upper] - full[:, mirror]
        got = folded(p[unknowns])
        assert np.max(np.abs(got - chain)) <= 1e-15 * np.max(np.abs(chain))

    def test_solve_holds_the_jacobian_and_one_block(self):
        # the mirrored solve at N = 2048 keeps the h x h Jacobian (8 h^2 bytes),
        # its LU copy and one block of scratch: a complex and two real arrays
        # of _BLOCK_ELEMENTS entries.  Whole h x n grids of S and d1 theta
        # alone would take 6 times 8 h^2.
        qn, a, h = ground_state_quantum_numbers(1024), Anisotropy(1.0), 512
        tracemalloc.start()
        try:
            report = solve(2048, qn, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 2 * 8 * h * h + 32 * functions._BLOCK_ELEMENTS, peak


class TestPassesFailClosed:
    """The phase sums, the solver's residual and its rounding floor read the
    kernel's parts, and refuse what theta refuses: a pair with Re S <= 0, a
    vanishing kernel and a non-finite momentum each raise DomainError."""

    CASES = {
        "half_plane": (1.0, [0.1, 2.0], "left the right half-plane"),  # 2 cos 2 - 1 < 0
        "vanishing": (1e-7, [0.0], "vanished"),  # S(0, 0) = c^2 = 1e-14
        "nan": (1.0, [0.1, math.nan], "left the right half-plane"),
        "inf": (1.0, [0.1, math.inf], "left the right half-plane"),
        "-inf": (1.0, [0.1, -math.inf], "left the right half-plane"),
    }

    @staticmethod
    def passes(p, a):
        """Every pass over p, ready to call: the phase sums, then the residual
        and the floor of both folds at p's unknowns."""
        qn = ground_state_quantum_numbers(p.size)
        yield functools.partial(_phase_sums, p, a)
        for fold in (False, True):
            unknowns, _, residual, _, floor = solver._equations(8, qn, a, fold=fold)
            yield functools.partial(residual, p[unknowns])
            yield functools.partial(floor, p[unknowns])

    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case):
        c, p, message = self.CASES[case]
        for run in self.passes(np.array(p), Anisotropy(c)):
            # numpy warns on i * inf; what matters is the refusal
            with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=message):
                run()


class TestInitialGuess:
    @pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, math.sqrt(2.0), 2.0, 2.5, 10.0])
    def test_ground_states_start_inside_the_domain(self, c):
        a = Anisotropy(c)
        for N in range(2, 65):
            for n in range(1, N // 2 + 1):
                p = solver._initial_guess(N, ground_state_quantum_numbers(n), a)
                assert np.all(np.isfinite(p)), (N, n)
                assert np.all(np.diff(p) > 0.0), (N, n)
                # strictly inside, with no help from the clamp
                assert np.max(np.abs(p)) < a.domain_halfwidth - 1e-12, (N, n)

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_ground_state_starts_near_its_root(self, c):
        # the phase-free start 2 pi I_j / N is about 7e-2 away at N = 256
        N, qn, a = 256, ground_state_quantum_numbers(128), Anisotropy(c)
        root = solve(N, qn, a).momenta.as_array()
        assert np.max(np.abs(solver._initial_guess(N, qn, a) - root)) < 1e-3

    @pytest.mark.parametrize("N, labels", [
        (8, (Fraction(2),)),                        # |I| = N/4 exactly
        (8, (Fraction(-1, 2), Fraction(5, 2))),
    ], ids=["edge", "past"])
    def test_labels_past_the_sea_keep_the_phase_free_start(self, N, labels):
        a = Anisotropy(1.0)
        p = 2.0 * math.pi * np.array([float(v) for v in labels]) / N
        p = p * min(1.0, (a.domain_halfwidth - 1e-3) / float(np.max(np.abs(p))))
        start = solver._initial_guess(N, QuantumNumbers(labels), a)
        assert np.array_equal(start, p)


class TestNewtonQuality:
    def test_quadratic_tail(self):
        # perturb a converged root; one full step must contract quadratically
        N, n = 8, 2
        a = Anisotropy(1.0)
        qn = ground_state_quantum_numbers(n)
        root = np.array(solve(N, qn, a).momenta.momenta)
        residual, jacobian = log_equations(N, qn, a)
        rng = np.random.default_rng(2)
        for _ in range(5):
            p0 = root + 1e-6 * rng.standard_normal(n)
            r0 = float(np.max(np.abs(residual(p0))))
            assert r0 < 1e-4
            p1 = p0 + np.linalg.solve(jacobian(p0), -residual(p0))
            r1 = float(np.max(np.abs(residual(p1))))
            assert r1 <= 1e3 * r0 ** 2

    def test_jacobian_matches_differences(self):
        N, n = 10, 3
        a = Anisotropy(2.0)
        qn = ground_state_quantum_numbers(n)
        residual, jacobian = log_equations(N, qn, a)
        p = np.array([-0.9, 0.05, 0.85])
        jac = jacobian(p)
        h = 1e-7
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd = (residual(p + e) - residual(p - e)) / (2.0 * h)
            assert np.max(np.abs(fd - jac[:, k])) < 1e-5

    def test_exponential_form_consistency(self):
        for c in (0.5, 1.0, 2.0):
            for (N, n) in ((8, 2), (10, 4), (12, 5)):
                report = solve(N, ground_state_quantum_numbers(n), Anisotropy(c))
                assert report.converged
                res = np.max(np.abs(bethe_residual(report.momenta, N)))
                assert res <= 1e-10
