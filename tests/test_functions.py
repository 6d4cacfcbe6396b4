import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe6v import functions
from bethe6v import (
    Anisotropy,
    DegenerateMomentaError,
    DomainError,
    L_factor,
    M_factor,
    MomentumSet,
    QuantumNumbers,
    SingularMomentumError,
    log_equations,
    scattering_kernel,
    theta,
    theta_partial_1,
    transfer_eigenvalue,
)

from helpers import dense_log_jacobian, two_kernel_theta, two_kernel_theta_partial_1

C_VALUES = (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0)


def interior_grid(a, count=50):
    hw = a.domain_halfwidth
    margin = hw / count
    return np.linspace(-hw + margin, hw - margin, count)


class TestAnisotropy:
    def test_delta_values(self):
        assert Anisotropy(1.0).delta == 0.5
        assert Anisotropy(math.sqrt(2.0)).delta == pytest.approx(0.0, abs=1e-15)
        assert Anisotropy(2.0).delta == -1.0
        assert Anisotropy(3.0).delta == -3.5

    def test_mu_and_domain(self):
        a = Anisotropy(math.sqrt(2.0))
        assert a.mu == pytest.approx(math.pi / 2, abs=1e-15)
        assert a.domain_halfwidth == pytest.approx(math.pi / 2, abs=1e-15)
        # at delta = -1 the boundary convention resolves to mu = 0
        assert Anisotropy(2.0).mu == 0.0
        assert Anisotropy(2.0).domain_halfwidth == math.pi
        assert Anisotropy(3.0).mu == 0.0

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            Anisotropy(0.0)
        with pytest.raises(ValueError):
            Anisotropy(-1.0)


class TestScatteringKernel:
    def test_at_origin(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            assert scattering_kernel(0.0, 0.0, a) == pytest.approx(c * c, rel=1e-15)

    def test_diagonal_is_real(self):
        a = Anisotropy(1.0)
        for x in (-0.5, 0.0, 0.9):
            val = scattering_kernel(x, x, a)
            assert val.imag == pytest.approx(0.0, abs=1e-16)
            assert val.real == pytest.approx(2.0 * (math.cos(x) - a.delta), rel=1e-14)

    def test_real_part_positive_on_domain(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a, 80)
            X, Y = np.meshgrid(g, g)
            assert np.all(scattering_kernel(X, Y, a).real > 0.0)


class TestTheta:
    def test_zero_at_origin(self):
        for c in C_VALUES:
            assert theta(0.0, 0.0, Anisotropy(c)) == 0.0

    def test_zero_on_diagonal(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            for p in interior_grid(a, 17):
                assert abs(theta(p, p, a)) < 1e-15

    def test_defining_relation_on_grid(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a)
            X, Y = np.meshgrid(g, g)
            th = theta(X, Y, a)
            lhs = np.exp(-1j * th)
            rhs = (
                np.exp(1j * (X - Y))
                * scattering_kernel(X, Y, a)
                / scattering_kernel(Y, X, a)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_antisymmetry_on_grid(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a)
            X, Y = np.meshgrid(g, g)
            assert np.max(np.abs(theta(X, Y, a) + theta(Y, X, a))) < 1e-12

    def test_continuity_along_paths(self):
        rng = np.random.default_rng(3)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            hw = a.domain_halfwidth
            for _ in range(4):
                start = rng.uniform(-0.9 * hw, 0.9 * hw, size=2)
                end = rng.uniform(-0.9 * hw, 0.9 * hw, size=2)
                # enough samples to keep the per-coordinate step below 1e-3
                samples = int(np.max(np.abs(end - start)) / 1e-3) + 2
                t = np.linspace(0.0, 1.0, samples)[:, None]
                pts = (1 - t) * start + t * end
                vals = theta(pts[:, 0], pts[:, 1], a)
                assert np.max(np.abs(np.diff(vals))) < 0.1

    def test_domain_violation_raises(self):
        a = Anisotropy(0.5)  # delta = 0.875, narrow domain
        with pytest.raises(DomainError):
            theta(2.0, 2.0, a)


class TestThetaPartial:
    def test_matches_central_differences(self):
        h = 1e-6
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a, 12)  # 144 grid points
            X, Y = np.meshgrid(g, g)
            fd = (theta(X + h, Y, a) - theta(X - h, Y, a)) / (2.0 * h)
            assert np.max(np.abs(theta_partial_1(X, Y, a) - fd)) < 1e-6

    def test_second_partial_by_antisymmetry(self):
        # d2 theta(x, y) = -d1 theta(y, x); check against differences in y
        a = Anisotropy(1.0)
        h = 1e-6
        g = interior_grid(a, 11)
        X, Y = np.meshgrid(g, g)
        fd2 = (theta(X, Y + h, a) - theta(X, Y - h, a)) / (2.0 * h)
        assert np.max(np.abs(fd2 + theta_partial_1(Y, X, a))) < 1e-6

    def test_finite_at_free_fermion_point(self):
        a = Anisotropy(math.sqrt(2.0))
        ys = interior_grid(a, 101)
        vals = theta_partial_1(np.zeros_like(ys), ys, a)
        assert np.all(np.isfinite(vals))


class TestOneKernelPerPair:
    """theta and d1 theta build S(x, y) once; S(y, x) is its exact conjugate."""

    @staticmethod
    def random_grid(a, rng, rows=40, cols=30):
        # broadcast (rows, 1) against (cols,), signed zeros and the diagonal included
        hw = a.domain_halfwidth
        x = np.concatenate([rng.uniform(-0.999 * hw, 0.999 * hw, rows - 2), [0.0, -0.0]])
        y = np.concatenate([x[: cols // 2], rng.uniform(-0.999 * hw, 0.999 * hw, cols - cols // 2)])
        return x[:, None], y

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                              np.asarray(b, dtype=float).view(np.uint64))

    def test_swapped_kernel_is_exact_conjugate(self):
        rng = np.random.default_rng(5)
        for c in C_VALUES + (0.1, 1.2, 2.5):
            a = Anisotropy(c)
            X, Y = self.random_grid(a, rng)
            assert np.array_equal(scattering_kernel(Y, X, a),
                                  np.conj(scattering_kernel(X, Y, a)))

    def test_theta_bit_identical_to_two_kernel_form(self):
        rng = np.random.default_rng(6)
        for c in C_VALUES + (0.1, 1.2, 2.5):
            a = Anisotropy(c)
            X, Y = self.random_grid(a, rng)
            assert self.same_bits(theta(X, Y, a), two_kernel_theta(X, Y, a)), c

    @staticmethod
    def partial_error_ratio(x, y, a):
        """max |theta_partial_1 - two-kernel form| over its rounding bound
        8u(1 + |delta|)/|S|^2 + 4u(1 + |d1 theta|): the rounding of S's
        parts carried through d(exp(-ix)/S)/dS, and of the quotient and sum."""
        d1 = two_kernel_theta_partial_1(x, y, a)
        assert np.all(d1.imag == 0.0)  # the two terms are conjugate
        s, u = scattering_kernel(x, y, a), 2.0 ** -53
        with np.errstate(over="ignore"):  # |S|^2 is inf past c ~ 1e77
            norm = np.hypot(s.real, s.imag) ** 2
        bound = 8.0 * u * (1.0 + abs(a.delta)) / norm + 4.0 * u * (1.0 + np.abs(d1.real))
        return float(np.max(np.abs(theta_partial_1(x, y, a) - d1.real) / bound))

    def test_partial_within_rounding_of_two_kernel_form(self):
        rng = np.random.default_rng(7)
        for c in C_VALUES + (0.1, 1.2, 2.5):
            a = Anisotropy(c)
            X, Y = self.random_grid(a, rng)
            assert self.partial_error_ratio(X, Y, a) <= 1.0, c

    @pytest.mark.parametrize("c", [1e100, 1e150])
    def test_partial_past_the_square_range(self, c):
        # |S|^2 overflows to inf and the quotient takes its limit 0, with no
        # warning, in theta_partial_1 and in the solver's Jacobian alike
        a = Anisotropy(c)
        x = np.linspace(-3.0, 3.0, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1 = theta_partial_1(x[:, None], x, a)
            _, jacobian = log_equations(14, QuantumNumbers(tuple(range(-3, 4))), a)
            jac = jacobian(x)
        assert np.array_equal(d1, two_kernel_theta_partial_1(x[:, None], x, a).real)
        assert np.array_equal(jac, dense_log_jacobian(14, x, a))

    def test_scalar_inputs(self):
        a = Anisotropy(1.3)
        assert theta(0.4, -0.2, a) == two_kernel_theta(0.4, -0.2, a)
        assert self.partial_error_ratio(0.4, -0.2, a) <= 1.0
        assert isinstance(theta(0.4, -0.2, a), float)
        assert isinstance(theta_partial_1(0.4, -0.2, a), float)

    def test_partial_domain_violation_raises(self):
        a = Anisotropy(0.5)
        with pytest.raises(DomainError):
            theta_partial_1(2.0, 2.0, a)


class TestKernelCertificate:
    """theta and d1 theta refuse exactly the points an entry-by-entry check of
    Re S > 0 and |S| >= 1e-12 refuses, although a lower bound on Re S taken
    from the smallest cosines settles most calls."""

    @staticmethod
    def refused_by_entries(x, y, a):
        s = np.asarray(scattering_kernel(x, y, a))
        return not (np.all(s.real > 0.0) and np.all(np.hypot(s.real, s.imag) >= 1e-12))

    @staticmethod
    def refused(fn, x, y, a):
        try:
            fn(x, y, a)
        except DomainError:
            return True
        return False

    @staticmethod
    def cases():
        rng = np.random.default_rng(8)
        for c in (1e-6, 0.1, 0.5, 1.0, 1.3, math.sqrt(2.0), 2.5):
            a = Anisotropy(c)
            hw = a.domain_halfwidth
            for reach in (0.5, 0.999, 1.0, 1.2, 2.0):  # in units of the halfwidth
                width = min(reach * hw, math.pi)
                x = rng.uniform(-width, width, 12)
                y = rng.uniform(-width, width, 9)
                yield a, x[:, None], y                        # outer (rows, 1) x (n,)
                yield a, *np.meshgrid(x, x, indexing="ij")    # same-shape grid
                yield a, float(x[0]), float(y[0])             # scalars
                yield a, float(x[1]), float(x[1])             # the diagonal

    def test_refuses_exactly_what_entries_refuse(self):
        outcomes = set()
        for a, x, y in self.cases():
            expected = self.refused_by_entries(x, y, a)
            assert self.refused(theta, x, y, a) == expected, (a.c, x, y)
            assert self.refused(theta_partial_1, x, y, a) == expected, (a.c, x, y)
            outcomes.add((a.c == 1e-6, expected))
        # refused and certified points both occur, also where the kernel vanishes
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    @staticmethod
    def parts(x, y, a):
        """_kernel's (Re S, Im S, bound) at x and y."""
        ex, ey = functions._exponentials(x, y)
        return functions._kernel(ex, ey, a, np.empty((2, *np.broadcast(ex, ey).shape)))

    def test_bound_is_below_every_real_part(self):
        for a, x, y in self.cases():
            re, _, low = self.parts(x, y, a)
            assert low <= np.min(re), (a.c, x, y)

    def test_parts_are_the_complex_kernels(self):
        # _kernel writes Re S and Im S of the public complex kernel, bit for bit
        for a, x, y in self.cases():
            re, im, _ = self.parts(x, y, a)
            s = np.asarray(scattering_kernel(x, y, a))
            assert re.tobytes() == s.real.tobytes(), (a.c, x, y)
            assert im.tobytes() == s.imag.tobytes(), (a.c, x, y)

    def test_outside_the_domain_refused(self):
        a = Anisotropy(1.0)  # Re S(2, 2) = 2 cos 2 - 1 < 0
        x = np.array([0.1, 2.0])
        for fn in (theta, theta_partial_1):
            with pytest.raises(DomainError, match="left the right half-plane"):
                fn(x[:, None], x, a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_momenta_refused(self, bad):
        a = Anisotropy(1.0)
        for fn in (theta, theta_partial_1):
            for x, y in ((bad, 0.1), (0.1, bad), (np.array([[0.2], [bad]]), np.array([0.1, 0.3]))):
                # numpy warns on i * inf; what matters is the refusal
                with np.errstate(invalid="ignore"), pytest.raises(DomainError):
                    fn(x, y, a)


class TestEigenvalueFactors:
    def test_sum_rule(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            for p in interior_grid(a, 13):
                if abs(p) < 1e-4:
                    continue
                z = np.exp(1j * p)
                total = L_factor(z, a) + M_factor(z, a)
                assert abs(total - (2.0 - c * c)) < 1e-12

    def test_phase_ratio_identity(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a, 21)
            g = g[np.abs(g) > 1e-3]
            for x in g[::4]:
                for y in g[::4]:
                    zx, zy = np.exp(1j * x), np.exp(1j * y)
                    ratio = (M_factor(zx, a) * L_factor(zy, a) - 1.0) / (
                        M_factor(zy, a) * L_factor(zx, a) - 1.0
                    )
                    assert abs(np.exp(1j * theta(x, y, a)) - ratio) < 1e-12

    def test_zero_momentum_phase_identity(self):
        for c in C_VALUES:
            a = Anisotropy(c)
            g = interior_grid(a, 25)
            g = g[np.abs(g) > 1e-3]
            z = np.exp(1j * g)
            lhs = np.exp(1j * theta(0.0, g, a))
            rhs = -L_factor(z, a) / M_factor(z, a)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_singular_input_raises(self):
        a = Anisotropy(1.0)
        with pytest.raises(SingularMomentumError):
            L_factor(1.0 + 1e-12j, a)
        with pytest.raises(SingularMomentumError):
            M_factor(np.exp(1e-12j), a)


class TestMomentumSet:
    def test_zero_detection(self):
        # the transfer eigenvalue takes its zero-momentum branch for one |p| < 1e-9
        a = Anisotropy(1.0)
        assert transfer_eigenvalue(MomentumSet((-0.4, 1e-12, 0.4), a), 8)[1] is True
        assert transfer_eigenvalue(MomentumSet((-0.4, 0.4), a), 8)[1] is False

    def test_rejects_outside_domain(self):
        a = Anisotropy(0.5)
        with pytest.raises(DomainError):
            MomentumSet((a.domain_halfwidth + 0.1,), a)
        with pytest.raises(DomainError):
            MomentumSet((a.domain_halfwidth,), a)  # boundary is excluded

    def test_rejects_coincident(self):
        a = Anisotropy(1.0)
        with pytest.raises(DegenerateMomentaError):
            MomentumSet((0.3, 0.3 + 1e-9), a)

    def test_rejects_coincident_unsorted(self):
        # the pair named is the first (i, j) in index order, not in sorted order
        a = Anisotropy(1.0)
        values = (0.5, -0.2, 0.1, -0.2 + 5e-8, 0.5 + 1e-9, 0.7)
        with pytest.raises(DegenerateMomentaError, match=r"^momenta 0 and 4 coincide within 1e-07$"):
            MomentumSet(values, a)
        assert MomentumSet((0.5, -0.2, 0.1, -0.3, 0.7), a).n == 5

    def test_relaxed_allows_coincident(self):
        a = Anisotropy(1.0)
        m = MomentumSet.relaxed((0.3, 0.3), a)
        assert m.momenta == (0.3, 0.3)

    def test_empty(self):
        m = MomentumSet((), Anisotropy(1.0))
        assert m.n == 0 and transfer_eigenvalue(m, 8)[1] is False


@settings(deadline=None, max_examples=80)
@given(
    c=st.sampled_from(C_VALUES),
    u=st.floats(-0.95, 0.95),
    v=st.floats(-0.95, 0.95),
)
def test_theta_antisymmetry_property(c, u, v):
    a = Anisotropy(c)
    x, y = u * a.domain_halfwidth, v * a.domain_halfwidth
    assert abs(theta(x, y, a) + theta(y, x, a)) < 1e-12


@settings(deadline=None, max_examples=80)
@given(
    c=st.sampled_from(C_VALUES),
    u=st.floats(-0.95, 0.95),
    v=st.floats(-0.95, 0.95),
)
def test_theta_defining_relation_property(c, u, v):
    a = Anisotropy(c)
    x, y = u * a.domain_halfwidth, v * a.domain_halfwidth
    lhs = np.exp(-1j * theta(x, y, a))
    rhs = (
        np.exp(1j * (x - y))
        * scattering_kernel(x, y, a)
        / scattering_kernel(y, x, a)
    )
    assert abs(lhs - rhs) < 1e-12
