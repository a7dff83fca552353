import cmath
import copy
import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contactfb.contact import (
    ContactPoint,
    TangentVector,
    alpha0_eval,
    composition_jacobian,
    pullback_eval,
)
from contactfb.fatou_bieberbach import (
    EXPONENT_CAP,
    ORBIT_BLOCK,
    EpsSchedule,
    PushOutState,
    SelectionError,
    SelectionWitness,
    ShearFunction,
    ShearMap,
    StageSchedule,
    _point_arrays,
    build_pushout,
    build_shear_round,
    compose_orbit,
    desk_schedule,
    enclose_degenerate,
    fb_map_eval,
    first_escape_round,
    load_state,
    omega_membership,
    orbit_logs_batch,
    save_state,
    select_exponent,
    state_from_dict,
    state_to_dict,
)
from contactfb.numeric import NEG_INF, log_sum, polar_sum, scaled_sum_arrays
from contactfb.obstacle import ShellUnion, membership_margin


# reference schedule: one shell (a, b) = (2, 4) with disk height 1,
# base disk radius 1, term radius pinned at 1.5
REF = StageSchedule(log_base=0.0, log_a=(math.log(2.0),),
                    log_b=(math.log(4.0),), log_offset=(0.0,),
                    log_offset_base=NEG_INF, log_r=(math.log(1.5),))


def _fold_shear_sum(f, dst, zeta):
    """z_dst + f(zeta) as a pairwise ``polar_sum`` fold from ``dst`` =
    (log-modulus, phase) of z_dst over the terms of f at ``zeta``, the
    reference for the one sum of ``ShearMap.apply_scaled``."""
    acc = dst
    for log_r, N in f.terms:
        acc = polar_sum([acc[0], N * (zeta[0] - log_r)],
                        [acc[1], N * zeta[1]])
    return acc


def _two_step_apply_scaled(m, log_mag, phase):
    """``ShearMap.apply_scaled`` by the rule the one sum replaced, kept as
    its reference: f(z_src) summed and rounded to (log-modulus, phase)
    first, then added to z_dst by a second sum."""
    out_lm, out_ph = list(log_mag), list(phase)
    for s, d in m._pairs:
        f = (NEG_INF, 0.0)
        if m.func.terms:
            f = polar_sum([N * (log_mag[s] - log_r)
                           for log_r, N in m.func.terms],
                          [N * phase[s] for _, N in m.func.terms])
        out_lm[d], out_ph[d] = polar_sum([log_mag[d], f[0]],
                                         [phase[d], f[1]])
    return out_lm, out_ph


def _two_step_apply_logpolar(m, log_mag, phase):
    """``ShearMap.apply_logpolar`` by the two-sum rule of
    ``_two_step_apply_scaled``, kept as its reference."""
    src, dst = m._slices
    log_r, N = m.func._term_columns(2)
    f_lm, f_ph = scaled_sum_arrays(N * (log_mag[src] - log_r),
                                   N * phase[src])
    out_lm, out_ph = log_mag.copy(), phase.copy()
    out_lm[dst], out_ph[dst] = scaled_sum_arrays(
        np.stack([log_mag[dst], f_lm]), np.stack([phase[dst], f_ph]))
    return out_lm, out_ph


_ORACLE = decimal.Context(prec=60, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)


def _decimal_power(re, im, n):
    """(re + im i)^n by repeated squaring, in the 60-digit context."""
    out_re, out_im = decimal.Decimal(1), decimal.Decimal(0)
    with decimal.localcontext(_ORACLE):
        while n:
            if n & 1:
                out_re, out_im = (out_re * re - out_im * im,
                                  out_re * im + out_im * re)
            re, im = re * re - im * im, 2 * re * im
            n >>= 1
    return out_re, out_im


def _oracle_log_mag(f, z_src, z_dst):
    """log|z_dst + f(z_src)| for complex floats z_src and z_dst, from a
    60-digit decimal evaluation of every term (z_src / r)^N."""
    D = decimal.Decimal
    with decimal.localcontext(_ORACLE):
        re, im = D(z_dst.real), D(z_dst.imag)
        for log_r, N in f.terms:
            inv_r = (-D(log_r)).exp()
            t_re, t_im = _decimal_power(D(z_src.real) * inv_r,
                                        D(z_src.imag) * inv_r, N)
            re, im = re + t_re, im + t_im
        return float((re * re + im * im).ln() / 2)


def _point_column(p, dim):
    """The log-moduli and phases of the point p as lists of floats: column
    0 of a one-point ``_point_arrays`` batch, as the single-point path
    reads it."""
    lm, ph = _point_arrays([p], dim)
    return lm[:, 0].tolist(), ph[:, 0].tolist()


def _to_complex(log_mag, phase):
    """The native complex value of a log-polar coordinate."""
    return cmath.rect(math.exp(log_mag), phase)


def _term_loop_native(f, z, deriv=False):
    """f (or f') as a loop over the terms, the form the term-broadcast
    kernel of ``eval_native`` and ``eval_deriv`` replaced, kept as its
    reference."""
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(divide="ignore"):
        lz = np.log(np.abs(z))
    az = np.angle(z)
    total = np.zeros_like(z)
    for log_r, N in f.terms:
        if deriv:
            with np.errstate(invalid="ignore"):  # 0 * -inf, replaced below
                lm = math.log(N) - log_r + (N - 1) * (lz - log_r)
            if N == 1:
                lm = np.full_like(lz, math.log(N) - log_r)
            ph = (N - 1) * az
        else:
            lm, ph = N * (lz - log_r), N * az
        total = total + np.exp(lm) * np.exp(1j * ph)
    return total


def _row_major_orbit_logs(state, log_mag, phase):
    """``PushOutState.orbit_logs`` on (m, dim) arrays whose rows are points:
    the whole batch through each round, one coordinate pair at a time, each
    destination summed once over z_dst and the terms, the form the
    coordinate-major blocks replaced, kept as their reference."""
    out = np.empty((log_mag.shape[0], state.k))
    for j, r in enumerate(state.rounds):
        for m in (r.phi, r.psi):
            new_lm, new_ph = log_mag.copy(), phase.copy()
            for s, d in m._pairs:
                new_lm[:, d], new_ph[:, d] = scaled_sum_arrays(
                    np.stack([log_mag[:, d]] + [N * (log_mag[:, s] - log_r)
                                                for log_r, N in m.func.terms]),
                    np.stack([phase[:, d]] + [N * phase[:, s]
                                              for _, N in m.func.terms]))
            log_mag, phase = new_lm, new_ph
        out[:, j] = np.max(log_mag, axis=1)
    return out


def _array_eval_deriv(f, z):
    """(f(z), f'(z)) broadcast over the terms on a new leading axis by two
    separate sums, the form the stacked sum of ``ShearFunction.eval_deriv``
    replaced, kept as its reference."""
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(divide="ignore"):
        lz = np.log(np.abs(z))
    az = np.angle(z)
    if f.is_zero:
        return np.zeros_like(z), np.zeros_like(z)
    shape = (-1,) + (1,) * z.ndim
    log_r = np.array([t[0] for t in f.terms]).reshape(shape)
    N = np.array([float(t[1]) for t in f.terms]).reshape(shape)
    lead = np.array([math.log(n) - lr for lr, n in f.terms]).reshape(shape)
    lzr = lz - log_r

    def term_sum(lm, ph):
        return np.cumsum(np.exp(lm) * np.exp(1j * ph), axis=0)[-1] + 0.0

    dlm = lead + (N - 1) * np.where(N == 1, 0.0, lzr)
    return term_sum(N * lzr, N * az), term_sum(dlm, (N - 1) * az)


def _array_tangent_step(m, vec, tan):
    """``ShearMap.tangent_step`` on a complex128 point array by
    ``_array_eval_deriv``, the form the list-point step replaced, kept as
    its reference."""
    vec = np.asarray(vec, dtype=np.complex128)
    src, dst = m._slices
    f, df = _array_eval_deriv(m.func, vec[src])
    out_vec = vec.copy()
    out_vec[dst] = vec[dst] + f
    scale = df.reshape(df.shape + (1,) * (tan.ndim - 1))
    out_tan = tan.copy()
    out_tan[dst] = tan[dst] + scale * tan[src]
    return out_vec, out_tan


def _bits(values):
    """The bit patterns of complex values, to compare them exactly."""
    return np.atleast_1d(np.asarray(values, dtype=np.complex128)).view(
        np.uint64)


def _array_pullback(maps, p, v):
    """``pullback_eval`` carrying the point as a complex128 array through
    ``_array_tangent_step``, kept as its reference."""
    vec = np.asarray(p.flat(), dtype=np.complex128)
    tan = np.asarray(v.flat(), dtype=np.complex128)
    for m in maps:
        vec, tan = _array_tangent_step(m, vec, tan)
    return alpha0_eval(ContactPoint.from_flat(vec.tolist()),
                       TangentVector.from_flat(tan.tolist()))


def _jacobian_pullback(maps, p, v):
    """``pullback_eval`` by each shear's dim x dim Jacobian matrix times the
    tangent, the form ``tangent_step`` replaced, kept as its reference."""
    vec = np.asarray(p.flat(), dtype=np.complex128)
    tan = np.asarray(v.flat(), dtype=np.complex128)
    for m in maps:
        jac = np.eye(m.dim, dtype=np.complex128)
        _, dv = _array_eval_deriv(m.func, vec)
        for s, d in m._pairs:
            jac[d, s] = dv[s]
        tan = jac @ tan
        vec = m.apply_native(vec)
    return alpha0_eval(ContactPoint.from_flat(vec.tolist()),
                       TangentVector.from_flat(tan.tolist()))


# terms whose log-moduli reach past exp's underflow (N (log|z| - log r)
# below -745) and past its overflow (above 709.78), with many N = 1 terms
shear_terms = st.lists(
    st.tuples(st.floats(-3.0, 3.0),
              st.one_of(st.just(1), st.integers(1, 400))),
    max_size=6).map(lambda ts: tuple(sorted(ts, key=lambda t: t[1])))
# zeros of both signs, the negative real axis from both sides (phase +-pi)
# and moduli from 3e-4 to 3e3
coordinates = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0), complex(-1.5, 0.0),
                     complex(-1.5, -0.0)]),
    st.builds(lambda lm, ph: cmath.rect(math.exp(lm), ph),
              st.floats(-8.0, 8.0), st.floats(-math.pi, math.pi)))

term_lists = st.lists(st.tuples(st.floats(-5.0, 5.0), st.integers(1, 16)),
                      min_size=1, max_size=8).map(
    lambda ts: tuple(sorted(ts, key=lambda t: t[1])))


class TestShearFunction:
    @staticmethod
    def _phi(f):
        """The dim-2 phi map of f: z_1 + f(z_0) is one sum."""
        return ShearMap("phi", 2, f)

    def test_zero_function(self):
        f = ShearFunction(())
        assert f.is_zero
        assert f.sup_log(3.0) == NEG_INF
        m = self._phi(f)
        assert m.apply_scaled([math.log(2.0), NEG_INF], [0.0, 0.0]) == (
            [math.log(2.0), NEG_INF], [0.0, 0.0])
        lm, ph = m.apply_logpolar(np.array([[math.log(2.0)], [NEG_INF]]),
                                  np.zeros((2, 1)))
        assert lm[1, 0] == NEG_INF and ph[1, 0] == 0.0
        # with no terms, z_dst is its own sum
        assert m.apply_scaled([0.0, 0.5], [0.0, 1.0])[0][1] == pytest.approx(
            0.5, rel=1e-15)

    def test_single_term_value(self):
        m = self._phi(ShearFunction(((math.log(1.5), 6),)))
        for z_dst in (0j, 1.0, -3.0 + 2.0j):
            lm, ph = m.apply_scaled(*_point_column([2.5, z_dst], 2))
            want = z_dst + (2.5 / 1.5) ** 6
            assert _to_complex(lm[1], ph[1]) == pytest.approx(want, rel=1e-12)

    def test_sup_log_is_coefficient_sum(self):
        f = ShearFunction(((math.log(1.5), 2), (math.log(3.0), 5)))
        R = 4.0
        want = (R / 1.5) ** 2 + (R / 3.0) ** 5
        assert math.exp(f.sup_log(math.log(R))) == pytest.approx(want, rel=1e-12)

    def test_scaled_matches_native(self):
        m = self._phi(ShearFunction(((math.log(1.5), 3), (math.log(2.5), 7))))
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
            lm, ph = m.apply_scaled(*_point_column(p, 2))
            want = m.apply_native(p)
            for j in range(2):
                assert _to_complex(lm[j], ph[j]) == pytest.approx(
                    complex(want[j]), rel=1e-10)

    def test_logpolar_matches_scaled(self):
        m = self._phi(ShearFunction(((math.log(1.5), 3), (math.log(2.5), 7))))
        rng = np.random.default_rng(9)
        lm = rng.uniform(-1.0, 2.0, size=(2, 10))
        ph = rng.uniform(-math.pi, math.pi, size=(2, 10))
        out_lm, out_ph = m.apply_logpolar(lm, ph)
        for i in range(10):
            w_lm, w_ph = m.apply_scaled(lm[:, i].tolist(), ph[:, i].tolist())
            assert out_lm[:, i].tolist() == pytest.approx(w_lm, rel=1e-12)
            assert np.cos(out_ph[:, i]).tolist() == pytest.approx(
                np.cos(w_ph).tolist(), abs=1e-10)

    def test_logpolar_value_independent_of_batch(self):
        # six summands (z_dst and five terms): np.sum would reassociate them
        # for a one-point batch, whose summand axis is contiguous, but not
        # inside a larger batch
        m = self._phi(ShearFunction(tuple((0.1 * j, 3) for j in range(5))))
        rng = np.random.default_rng(19)
        lm = rng.uniform(-1.0, 2.0, (2, 2000))
        ph = rng.uniform(-math.pi, math.pi, (2, 2000))
        all_lm, all_ph = m.apply_logpolar(lm, ph)
        for i in range(2000):
            one_lm, one_ph = m.apply_logpolar(lm[:, i:i + 1], ph[:, i:i + 1])
            assert np.array_equal(one_lm[:, 0], all_lm[:, i])
            assert np.array_equal(one_ph[:, 0], all_ph[:, i])

    @settings(max_examples=400, deadline=None)
    @given(term_lists, st.floats(-40.0, 40.0), st.floats(-math.pi, math.pi),
           st.one_of(st.just(NEG_INF), st.floats(-40.0, 200.0)),
           st.floats(-math.pi, math.pi))
    def test_scaled_matches_fold(self, terms, log_mag, phase, dst_lm, dst_ph):
        f = ShearFunction(terms)
        lm, ph = self._phi(f).apply_scaled([log_mag, dst_lm], [phase, dst_ph])
        want = _fold_shear_sum(f, (dst_lm, dst_ph), (log_mag, phase))
        # away from cancellation, where both sums are rounding noise
        assume(want[0] > log_sum([dst_lm, f.sup_log(log_mag)])
               - math.log(10.0))
        assert lm[1] == pytest.approx(want[0], rel=1e-13, abs=1e-13)
        assert cmath.isclose(cmath.rect(1.0, ph[1]),
                             cmath.rect(1.0, want[1]), abs_tol=1e-13)

    def test_scaled_matches_fold_on_built_rounds(self, built_state):
        rng = np.random.default_rng(23)
        maps = built_state.theta_maps()
        for p in rng.uniform(-2.0, 4.0, (60, 2)):
            ph = rng.uniform(-math.pi, math.pi, 2).tolist()
            for m in maps:
                (s, d), = m._pairs
                got = m.apply_scaled(p.tolist(), ph)
                want = _fold_shear_sum(m.func, (p[d], ph[d]), (p[s], ph[s]))
                assert got[0][d] == pytest.approx(want[0], rel=1e-13,
                                                  abs=1e-13)
                assert got[0][s] == p[s] and got[1][s] == ph[s]

    @pytest.mark.parametrize("terms,zeta", [
        (((0.0, 1), (0.0, 3)), (NEG_INF, 0.0)),
        # every term's log-modulus is -inf
        (((1e308, 1), (1e308, 2)), (-1e308, 0.5)),
        (((0.0, 1), (0.5, 3)), (math.nan, 0.5)),
        (((0.0, 1), (0.5, 3)), (math.inf, 0.5)),
        # terms 2 and 3 overflow to +inf: the value takes term 2's phase
        (((0.0, 1), (0.0, 1000), (0.0, 2000)), (1e306, 0.5)),
    ], ids=["zero", "underflow", "nan", "inf", "overflow"])
    def test_scaled_edge_values_match_fold(self, terms, zeta):
        m = self._phi(ShearFunction(terms))
        for dst in ((NEG_INF, 0.0), (0.25, -2.0)):
            lm, ph = m.apply_scaled([zeta[0], dst[0]], [zeta[1], dst[1]])
            got = (lm[1], ph[1])
            want = _fold_shear_sum(m.func, dst, zeta)
            if math.isfinite(want[0]):
                # only z_dst is left; the fold rounds it once per term
                assert dst[0] != NEG_INF
                assert got == pytest.approx(dst, rel=1e-15)
                assert want == pytest.approx(dst, rel=1e-15)
            else:
                assert np.array_equal(got, want, equal_nan=True)
            # and the batch path on the same point
            with np.errstate(over="ignore"):
                b_lm, b_ph = m.apply_logpolar(np.array([[zeta[0]], [dst[0]]]),
                                              np.array([[zeta[1]], [dst[1]]]))
            if math.isfinite(got[0]):
                assert (b_lm[1, 0], b_ph[1, 0]) == pytest.approx(got,
                                                                 rel=1e-15)
            else:
                assert np.array_equal(got, (b_lm[1, 0], b_ph[1, 0]),
                                      equal_nan=True)

    @pytest.mark.parametrize("shape", [(), (1,), (2,), (7, 1), (5, 3)])
    @pytest.mark.parametrize("deriv", [False, True])
    def test_native_equals_term_loop(self, shape, deriv):
        # five terms: np.sum would reassociate them for a single point; odd
        # exponents make every term at z = -0.0 - 0.0j a zero of sign -1
        f = ShearFunction(((math.log(0.7), 1), (math.log(1.5), 3),
                           (math.log(1.6), 5), (math.log(2.5), 7),
                           (math.log(3.0), 9)))
        def point(z):  # one eval_deriv call on all entries
            return f.eval_deriv(z)[deriv]
        methods = [point]
        if not deriv:
            methods.append(f.eval_native)
        rng = np.random.default_rng(31)
        for _ in range(40):
            z = rng.uniform(-3, 3, shape) + 1j * rng.uniform(-3, 3, shape)
            z = np.where(rng.random(shape) < 0.2, complex(-0.0, -0.0), z)
            want = _term_loop_native(f, z, deriv)
            for method in methods:
                got = method(z)
                assert np.shape(got) == np.shape(want) == shape
                assert np.array_equal(_bits(got), _bits(want))

    def test_linear_term_derivative_at_zero(self):
        # the N = 1 term contributes exactly 1 / r, with no 0 * -inf
        f = ShearFunction(((math.log(2.0), 1), (math.log(3.0), 4)))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _, got = f.eval_deriv([0j, complex(-0.0, 0.0)])
        want = np.exp([-math.log(2.0)] * 2).astype(np.complex128)
        assert np.array_equal(_bits(got), _bits(want))

    def test_term_past_float_range_not_finite(self):
        # round 1's phi of the dim-3 desk push-out at z = 100 is about
        # e^17980, past float range
        f = build_pushout(desk_schedule(3, 6), 3, 1).rounds[0].phi.func
        with np.errstate(over="ignore", invalid="ignore"):
            got = complex(f.eval_native(100.0))
        assert not cmath.isfinite(got)

    def test_subnormal_modulus_read_as_is(self):
        # z + z^2 at z = 1e-322 is z: log and exp read a subnormal
        # modulus as it is
        f = ShearFunction(((0.0, 1), (0.0, 2)))
        z = 1e-322
        (value,), _ = f.eval_deriv([z])
        assert f.eval_native(z) == value == z

    def test_exponent_order_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ShearFunction(((0.0, 5), (0.0, 3)))
        with pytest.raises(ValueError, match=">= 1"):
            ShearFunction(((0.0, 0),))

    def test_derivative_value(self):
        # f = (z/2)^3: f'(z) = 3 z^2 / 8
        f = ShearFunction(((math.log(2.0), 3),))
        z = 1.5 + 0.5j
        _, (df,) = f.eval_deriv([z])
        assert df == pytest.approx(3 * z ** 2 / 8, rel=1e-12)


class TestShearMap:
    F = ShearFunction(((math.log(1.5), 6),))

    def test_phi_action(self):
        m = ShearMap("phi", 2, self.F)
        lm, ph = m.apply_scaled([math.log(2.5), NEG_INF], [0.0, 0.0])
        assert (lm[0], ph[0]) == (math.log(2.5), 0.0)
        assert _to_complex(lm[1], ph[1]) == pytest.approx((2.5 / 1.5) ** 6,
                                                          rel=1e-12)

    def test_psi_action(self):
        m = ShearMap("psi", 2, self.F)
        lm, ph = m.apply_scaled([NEG_INF, math.log(2.5)], [0.0, 0.0])
        assert _to_complex(lm[0], ph[0]) == pytest.approx((2.5 / 1.5) ** 6,
                                                          rel=1e-12)
        assert (lm[1], ph[1]) == (math.log(2.5), 0.0)

    @pytest.mark.parametrize("kind,dim", [("phi", 2), ("psi", 2),
                                          ("phi", 3), ("psi", 3)])
    def test_native_rows_equal_single_points(self, kind, dim):
        m = ShearMap(kind, dim, ShearFunction(((math.log(1.5), 3),
                                               (math.log(2.5), 7))))
        rng = np.random.default_rng(17)
        pts = (rng.uniform(-2, 2, (50, dim))
               + 1j * rng.uniform(-2, 2, (50, dim)))
        pts[0] = 0.0
        got = m.apply_native(pts)
        assert got.shape == pts.shape
        for row, p in zip(got, pts):
            assert np.array_equal(row, m.apply_native(p))
            assert np.array_equal(row, m.apply_native(tuple(p)))

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_rejects_bad_points(self, kind):
        # a single point reaches apply_scaled through the intake, which
        # names the bad coordinate, and only the coordinate
        m = ShearMap(kind, 2, self.F)
        for p, j in (([complex("nan"), 0j], 0), ([1j, complex("inf")], 1)):
            with pytest.raises(ValueError,
                               match=f"^coordinate {j} is not finite"):
                m.apply_scaled(*_point_column(p, m.dim))
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.apply_scaled(*_point_column([1j, 0j, 0j], m.dim))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1]), st.integers(0, 5), st.data())
    def test_scaled_equals_logpolar_rows(self, built_rounds, which, n, data):
        # the single-point path gives the batch path's rows, to rounding
        r = built_rounds[which][n % len(built_rounds[which])]
        dim = r.phi.dim
        lm = data.draw(st.lists(st.floats(-3.0, 4.0), min_size=dim,
                                max_size=dim))
        ph = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=dim,
                                max_size=dim))
        got_lm, got_ph = r.psi.apply_scaled(*r.phi.apply_scaled(lm, ph))
        # a one-point batch is one column
        want_lm, want_ph = r.apply_logpolar(np.array([lm]).T,
                                            np.array([ph]).T)
        want_lm, want_ph = want_lm.T, want_ph.T
        # the paths' exp, log and atan2 may differ by an ulp, and psi
        # multiplies such a difference in its source coordinate by N
        n_max = max(N for m in (r.phi, r.psi) for _, N in m.func.terms)
        tol = 8 * n_max * 2.0 ** -52
        assert got_lm == pytest.approx(want_lm[0].tolist(), rel=tol, abs=tol)
        for g, w in zip(got_ph, want_ph[0]):
            assert cmath.isclose(cmath.rect(1.0, g), cmath.rect(1.0, w),
                                 abs_tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1]), st.integers(0, 5), st.data())
    def test_one_sum_agrees_with_two_step(self, built_rounds, which, n, data):
        # one sum per destination against the parent rule, which rounds
        # f(z_src) to log-polar form before adding it: they agree to
        # rounding, which psi multiplies by N in its source coordinate
        r = built_rounds[which][n % len(built_rounds[which])]
        dim = r.phi.dim
        lm = data.draw(st.lists(st.floats(-3.0, 4.0), min_size=dim,
                                max_size=dim))
        ph = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=dim,
                                max_size=dim))
        n_max = max(N for m in (r.phi, r.psi) for _, N in m.func.terms)
        tol = 8 * n_max * 2.0 ** -52
        got = r.psi.apply_scaled(*r.phi.apply_scaled(lm, ph))
        want = _two_step_apply_scaled(
            r.psi, *_two_step_apply_scaled(r.phi, lm, ph))
        batch = np.array([lm]).T, np.array([ph]).T
        got_b = r.apply_logpolar(*batch)
        want_b = _two_step_apply_logpolar(
            r.psi, *_two_step_apply_logpolar(r.phi, *batch))
        for (g_lm, g_ph), (w_lm, w_ph) in (
                (got, want), ((got_b[0][:, 0], got_b[1][:, 0]),
                              (want_b[0][:, 0], want_b[1][:, 0]))):
            assert list(g_lm) == pytest.approx(list(w_lm), rel=tol, abs=tol)
            for g, w in zip(g_ph, w_ph):
                assert cmath.isclose(cmath.rect(1.0, g), cmath.rect(1.0, w),
                                     abs_tol=tol)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_log_moduli_match_decimal_oracle(self, dim):
        # The intake rounds log|z_src| to about 2^-52 (1 + |log|z_src||),
        # which the top term multiplies by its N; exp, log and the sums add
        # a few ulps of the result; cancellation multiplies both by kappa =
        # (|z_dst| + sum |terms|) / |z_dst + f|.  Both rules stay within
        # 2^-50 kappa (N_top (1 + |log|z_src||) + |log|z_dst + f||).
        state = build_pushout(desk_schedule(dim, 6), dim=dim, k_max=2)
        rng = np.random.default_rng(41 + dim)
        for m in state.theta_maps():
            for _ in range(40):
                p = [cmath.rect(math.exp(rng.uniform(lo, hi)),
                                rng.uniform(-math.pi, math.pi))
                     for lo, hi in [(-1.0, 2.5)] * (dim - 1) + [(-3.0, 8.0)]]
                if m.kind == "psi":
                    p.reverse()
                lm, ph = _point_column(p, dim)
                two_step = _two_step_apply_scaled(m, lm, ph)
                for got, _ in (m.apply_scaled(lm, ph), two_step):
                    for s, d in m._pairs:
                        want = _oracle_log_mag(m.func, p[s], p[d])
                        kappa = math.exp(log_sum(
                            [lm[d], m.func.sup_log(lm[s])]) - want)
                        n_top = max(m.func.terms,
                                    key=lambda t: t[1] * (lm[s] - t[0]))[1]
                        tol = 2.0 ** -50 * kappa * (
                            n_top * (1.0 + abs(lm[s])) + abs(want))
                        assert abs(got[d] - want) <= tol, (s, d)

    def test_jacobian_unit_determinant(self):
        # the Jacobian is the identity's columns after one tangent step
        for kind in ("phi", "psi"):
            m = ShearMap(kind, 3, self.F)
            vec = np.array([1.2 + 0.3j, -0.7j, 0.4 + 0j])
            out, jac = m.tangent_step(vec, np.eye(3, dtype=np.complex128))
            assert np.array_equal(out, m.apply_native(vec))
            det = np.linalg.det(jac)
            assert det == pytest.approx(1.0, rel=1e-14)

    # terms past exp's overflow read inf or NaN, as numpy warns
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in exp:RuntimeWarning",
        "ignore:invalid value encountered in multiply:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["phi", "psi"]), st.sampled_from([2, 3, 5]),
           shear_terms, st.lists(coordinates, min_size=5, max_size=5),
           st.sampled_from([0, 1, 4]), st.integers(0, 2 ** 32 - 1))
    # an N = 1 term, a term that underflows at 1e-3, overflows at 1e3
    # and is zero at the signed zeros
    @example("phi", 5, ((0.0, 1), (0.5, 300)),
             [1e-3, -1e3j, complex(-0.0, -0.0), 0j, complex(-0.0, 0.0)], 0, 0)
    @example("psi", 3, ((0.0, 1), (0.5, 300)),
             [1.0, 1e3 + 1e3j, complex(0.0, -0.0), 0j, 0j], 4, 1)
    def test_tangent_step_equals_array_step(self, kind, dim, terms, coords,
                                            columns, seed):
        # the single-point step gives the term-broadcast step's bits: the
        # image point and one tangent vector or the columns of a (dim, c)
        # array
        m = ShearMap(kind, dim, ShearFunction(terms))
        vec = coords[:dim]
        rng = np.random.default_rng(seed)
        shape = (dim, columns) if columns else (dim,)
        tan = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got_vec, got_tan = m.tangent_step(vec, tan)
        with np.errstate(over="ignore", invalid="ignore"):
            want_vec, want_tan = _array_tangent_step(m, vec, tan)
        assert type(got_vec) is list and len(got_vec) == dim
        assert np.array_equal(_bits(got_vec), _bits(want_vec))
        assert got_tan.shape == shape
        assert np.array_equal(_bits(got_tan), _bits(want_tan))

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_tangent_step_columns_equal_single_vectors(self, kind):
        m = ShearMap(kind, 4, ShearFunction(((math.log(1.5), 3),
                                              (math.log(2.5), 7))))
        rng = np.random.default_rng(29)
        vec = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
        tans = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        out, got = m.tangent_step(vec, tans)
        for c in range(5):
            one_out, one = m.tangent_step(vec, tans[:, c])
            assert np.array_equal(one_out, out)
            assert np.array_equal(one, got[:, c])

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ShearMap("chi", 2, self.F)
        with pytest.raises(ValueError):
            ShearMap("phi", 1, self.F)


class TestSelectExponent:
    def test_reference_example(self):
        # b0=1, r=1.5, (a, b)=(2, 4), heights c0=0, c1=1, eps=1/2, empty
        # partial sum: tail control needs (1/1.5)^N < 1/8 -> N >= 6 and
        # pinching needs (2/1.5)^N > 3.5 -> N >= 5, so N = 6
        w = select_exponent(1, REF, ShearFunction(()), eps=0.5)
        assert w.N == 6
        assert w.log_r == math.log(1.5)
        assert math.exp(w.M_log) == pytest.approx(2.0, rel=1e-12)

    def test_witness_sandwich_and_slacks(self):
        w = select_exponent(1, REF, ShearFunction(()), eps=0.5)
        assert w.beta_prev_log < w.M_log < w.alpha_log
        assert all(v > 0 for v in w.slacks.values())
        # explicit band values: beta0 = 1/4, alpha1 = (4/3)^6 - 1 - 1/4
        assert math.exp(w.beta_prev_log) == pytest.approx(0.25, rel=1e-12)
        assert math.exp(w.alpha_log) == pytest.approx(
            (4.0 / 3.0) ** 6 - 1.25, rel=1e-12)

    def test_larger_exponent_still_admissible(self):
        # both certified inequalities are monotone in N, so any exponent
        # above the minimal one satisfies them as well
        w = select_exponent(1, REF, ShearFunction(()), eps=0.5)
        for N in (w.N, w.N + 1, w.N + 5):
            assert (1.0 / 1.5) ** N < 0.5 * 2.0 ** -2
            assert (2.0 / 1.5) ** N > math.exp(w.M_log) + 1.0 + 0.5

    def test_minimality(self):
        w = select_exponent(1, REF, ShearFunction(()), eps=0.5)
        N = w.N - 1
        tail_ok = (1.0 / 1.5) ** N < 0.5 * 2.0 ** -2
        pinch_ok = (2.0 / 1.5) ** N > math.exp(w.M_log) + 1.0 + 0.5
        assert not (tail_ok and pinch_ok)

    def test_min_exponent_floor(self):
        w = select_exponent(1, REF, ShearFunction(()), eps=0.5,
                            min_exponent=11)
        assert w.N == 11

    def test_cap_raises_with_binding(self):
        with pytest.raises(SelectionError) as ei:
            select_exponent(1, REF, ShearFunction(()), eps=0.5,
                            exponent_cap=3)
        assert ei.value.shell_index == 1
        assert ei.value.binding in ("tail-control", "pinching")

    @pytest.mark.parametrize("log_offset", [1e20, 1e300])
    def test_far_above_cap_raises(self, log_offset):
        # past 2^53 the product n * gap no longer changes when n grows by
        # 1, so the search must stop at the cap rather than count up to n
        sched = StageSchedule(log_base=0.0, log_a=(math.log(2.0),),
                              log_b=(math.log(4.0),), log_offset=(log_offset,),
                              log_r=(math.log(1.5),))
        with pytest.raises(SelectionError) as ei:
            select_exponent(1, sched, ShearFunction(()), eps=0.5)
        assert ei.value.binding == "pinching"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            select_exponent(2, REF, ShearFunction(()), eps=0.5)
        with pytest.raises(ValueError, match="positive"):
            select_exponent(1, REF, ShearFunction(()), eps=0.0)


class TestStageSchedule:
    def test_interleaving_enforced(self):
        with pytest.raises(ValueError, match="interleaved"):
            StageSchedule(log_base=0.0, log_a=(1.0, 0.5), log_b=(2.0, 3.0),
                          log_offset=(0.0, 0.0))

    def test_auto_radius_between_bands(self):
        s = StageSchedule(log_base=0.0, log_a=(5.0, 50.0),
                          log_b=(10.0, 60.0), log_offset=(0.0, 0.0))
        assert 0.0 < s.log_r[0] < 5.0
        assert 10.0 < s.log_r[1] < 50.0

    def test_explicit_radius_validated(self):
        bad = StageSchedule(log_base=0.0, log_a=(1.0,), log_b=(2.0,),
                            log_offset=(0.0,), log_r=(3.0,))
        with pytest.raises(ValueError, match="must satisfy"):
            select_exponent(1, bad, ShearFunction(()), eps=0.5)

    def test_from_shell_union_offsets(self):
        K = ShellUnion.from_linear([(2, 4, 100)], (0,), 1)
        s2 = StageSchedule.from_shell_union(K, 0.0, 2)
        assert s2.log_offset[0] == pytest.approx(math.log(100.0))
        K3 = ShellUnion.from_linear([(2, 4, 1)], (0, 1), 2)
        s3 = StageSchedule.from_shell_union(K3, 0.0, 3)
        # for dim > 2 a shifted coordinate may carry up to max(b, c)
        assert s3.log_offset[0] == pytest.approx(math.log(4.0))


class TestEpsSchedule:
    def test_values(self):
        s = EpsSchedule()
        assert s.eps(1) == 0.25
        assert s.eps(3) == 0.0625
        assert s.tail(0) == 0.5
        assert s.tail(2) == 0.125
        # tail really bounds the sum of all later eps
        assert sum(s.eps(k) for k in range(3, 60)) <= s.tail(2)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            EpsSchedule(base=1.0)
        with pytest.raises(ValueError):
            EpsSchedule(base=0.0)


class TestDeskSchedule:
    def test_band_values(self):
        K = desk_schedule(2, 3)
        want = [(1.8 * 2 ** (i - 1), 2.2 * 2 ** (i - 1), 2.0 ** (3 * i + 1))
                for i in (1, 2, 3)]
        for got, w in zip(K.linear_shells(), want):
            assert got == pytest.approx(w, rel=1e-12)

    def test_dim3_layout(self):
        K = desk_schedule(3, 2)
        assert K.shell_dims == (0, 1) and K.disk_dim == 2

    def test_enclosure_validation(self):
        # 0.5 widens to 0.45 and doubles to 0.9 <= 1
        with pytest.raises(ValueError, match="a_1 > 1"):
            enclose_degenerate(ShellUnion.from_linear([(0.5, 0.5, 5)], (0,), 1))
        with pytest.raises(ValueError, match="interleave"):
            enclose_degenerate(ShellUnion.from_linear(
                [(1, 1, 5), (1.05, 1.05, 10)], (0,), 1))


@pytest.fixture(scope="module")
def built_state():
    return build_pushout(desk_schedule(2, 4), dim=2, k_max=3)


@pytest.fixture(scope="module")
def built_rounds():
    """The rounds of built push-outs in dims 2 and 3."""
    return (build_pushout(desk_schedule(2, 4), dim=2, k_max=3).rounds,
            build_pushout(desk_schedule(3, 3), dim=3, k_max=2).rounds)


def _sample_shell_points(K, count, rng, dim):
    """Random points inside a vertical shell union, one shell at a time, as
    (log-moduli, phases) list pairs."""
    pts = []
    shells = K.shells
    for _ in range(count):
        s = shells[rng.integers(len(shells))]
        lm = rng.uniform(s.log_a, s.log_b)
        lms = [lm] + [lm - rng.uniform(0.5, 2.0) for _ in range(dim - 2)]
        lms.append(s.log_c - rng.uniform(0.5, 3.0))
        pts.append((lms, [rng.uniform(-math.pi, math.pi) for _ in lms]))
    return pts


def _abs_logs(points):
    """Coordinate-major (dim, m) log-moduli of (log-moduli, phases) pairs."""
    return np.array([lm for lm, _ in points]).T


class TestRoundContracts:
    def test_exponents_below_cap(self, built_state):
        for r in built_state.rounds:
            for w in r.phi_witnesses + r.psi_witnesses:
                assert w.N <= EXPONENT_CAP

    def test_identity_bound_certified(self, built_state):
        for r in built_state.rounds:
            assert 0 < r.id_bound < r.eps
            assert r.eps == built_state.eps_schedule.eps(r.index)

    def test_disjointness_from_next_polydisk(self, built_state):
        for r in built_state.rounds:
            assert r.shells_after.shells[0].log_a > math.log(r.index + 1.0)

    def test_containment_sampled(self, built_state):
        rng = np.random.default_rng(23)
        for r in built_state.rounds:
            pts = _sample_shell_points(r.shells_before, 40, rng,
                                       built_state.dim)
            mids = [r.phi.apply_scaled(*p) for p in pts]
            outs = [r.psi.apply_scaled(*m) for m in mids]
            assert (membership_margin(r.shells_mid, _abs_logs(mids)) >= 0).all()
            assert (membership_margin(r.shells_after, _abs_logs(outs))
                    >= 0).all()

    def test_identity_bound_sampled(self, built_state):
        rng = np.random.default_rng(31)
        for r in built_state.rounds:
            radius = float(r.index)
            for _ in range(40):
                lm = math.log(radius) - rng.uniform(0.0, 5.0)
                p = ([lm + rng.uniform(-1, 0) for _ in range(built_state.dim)],
                     [rng.uniform(-math.pi, math.pi)
                      for _ in range(built_state.dim)])
                q = r.psi.apply_scaled(*r.phi.apply_scaled(*p))
                diff = max(abs(_to_complex(*a) - _to_complex(*b))
                           for a, b in zip(zip(*p), zip(*q)))
                assert diff < r.eps

    def test_witness_sandwiches(self, built_state):
        for r in built_state.rounds:
            for w in r.phi_witnesses + r.psi_witnesses:
                assert w.beta_prev_log < w.M_log < w.alpha_log
                assert all(v > 0 for v in w.slacks.values())


class TestOrbits:
    def test_origin_stays_bounded(self, built_state):
        p = [0j, 0j]
        rec = compose_orbit(built_state, p)
        assert rec.classification == "bounded-so-far"
        assert rec.first_escape is None
        assert all(lm == NEG_INF for lm in rec.log_maxnorms)

    def test_shell_point_escapes(self, built_state):
        p = [2.0 + 0j, 0j]  # on the innermost initial shell
        rec = compose_orbit(built_state, p)
        assert rec.classification == "escaped"
        assert rec.first_escape is not None
        # log max-norms increase monotonically once escaped
        logs = rec.log_maxnorms
        assert all(a < b for a, b in zip(logs, logs[1:]))

    def test_first_escape_round(self, built_state):
        # the escape radius after round j is j + 1
        assert first_escape_round([]) is None
        assert first_escape_round([math.log(2.0), math.log(3.0)]) is None
        assert first_escape_round([0.5, 1.2, 9.0]) == 2
        assert first_escape_round(np.array([NEG_INF, 5.0])) == 2
        rec = compose_orbit(built_state, [2.0 + 0j, 0j])
        assert rec.first_escape == first_escape_round(rec.log_maxnorms)

    def test_batch_matches_scalar(self, built_state):
        rng = np.random.default_rng(7)
        pts = [[complex(a, b), complex(c, d)]
               for a, b, c, d in rng.uniform(-3, 3, size=(12, 4))]
        batch = orbit_logs_batch(built_state, pts)
        for row, p in zip(batch, pts):
            rec = compose_orbit(built_state, p)
            for got, want in zip(row, rec.log_maxnorms):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_batch_empty(self, built_state):
        out = orbit_logs_batch(built_state, [])
        assert out.shape == (0, built_state.k)

    def test_batch_complex_intake_equals_scaled_intake(self, built_state):
        rng = np.random.default_rng(11)
        pts = [(complex(a, b), complex(c, d)) for a, b, c, d in
               rng.normal(0.0, 2.0, (200, 4)) * np.exp(rng.uniform(-4, 4, (200, 1)))]
        pts += [(0j, 0j), (complex(-1, -0.0), 0j), (complex(-0.0, 0.0), -2.5),
                (complex(-1, -0.0), complex(-3, -0.0)), (1e-310 + 0j, -1e300j),
                (complex(0.0, -0.0), 2.0), (5e-324j, complex(-2.0, 1e-320))]
        # the batch reads every coordinate by the documented rule
        lm, ph = _point_arrays(pts, 2)
        assert lm.shape == ph.shape == (2, len(pts))
        for col_lm, col_ph, p in zip(lm.T, ph.T, pts):
            for got_lm, got_ph, z in zip(col_lm, col_ph, p):
                want_lm = float(np.log(np.longdouble(abs(z)))) if z else NEG_INF
                want_ph = math.atan2(z.imag, z.real) if z else 0.0
                assert got_lm == want_lm
                assert got_ph == (math.pi if want_ph == -math.pi else want_ph)
        assert ph[0, pts.index((complex(-1, -0.0), 0j))] == math.pi
        # 12 000 more points, moduli log-uniform from 1e-300 to 1e300, with
        # zeros of every sign and points on the negative real axis
        z = (10.0 ** rng.uniform(-300, 300, (12000, 2))
             * np.exp(1j * rng.uniform(-math.pi, math.pi, (12000, 2))))
        kind = rng.integers(0, 12, z.shape)
        z[kind == 1] = 0j
        z[kind == 2] = complex(-0.0, -0.0)
        z[kind == 3] = complex(-0.0, 0.0)
        z[kind == 4] = -np.abs(z[kind == 4])
        z[kind == 5] = np.conj(-np.abs(z[kind == 5]))
        pts += [tuple(map(complex, p)) for p in z]
        # a one-point batch, the single-point path's intake, reads every
        # point as its column of the batch, bit for bit
        lm, ph = _point_arrays(pts, 2)
        for n in range(0, len(pts), 7):
            for got, want in zip(_point_column(pts[n], 2), (lm, ph)):
                assert np.array_equal(np.array(got).view(np.uint64),
                                      want[:, n].view(np.uint64))

    def test_state_orbit_logs_equals_batch(self, built_state):
        rng = np.random.default_rng(13)
        pts = [(complex(a, b), complex(c, d)) for a, b, c, d in
               rng.uniform(-3, 3, (40, 4))]
        lm, ph = _point_arrays(pts, 2)
        got = built_state.orbit_logs(lm, ph)
        assert np.array_equal(got, orbit_logs_batch(built_state, pts))
        assert np.array_equal((lm, ph), _point_arrays(pts, 2))  # unchanged

    @pytest.mark.parametrize("dim,k_max", [(2, 3), (3, 2)])
    def test_blocks_equal_row_major_whole_batch(self, dim, k_max):
        # two full blocks and a partial one: the obstacle, the polydisk,
        # the annulus between, zero coordinates of both signs
        state = build_pushout(desk_schedule(dim, 4), dim=dim, k_max=k_max)
        K = state.initial
        rng = np.random.default_rng(dim)
        m = 2 * ORBIT_BLOCK + 17
        shell = rng.integers(0, len(K.shells), m)
        log_a = np.array([s.log_a for s in K.shells])[shell]
        log_b = np.array([s.log_b for s in K.shells])[shell]
        log_c = np.array([s.log_c for s in K.shells])[shell]
        lm = np.empty((m, dim))
        lm[:, :-1] = rng.uniform(log_a, log_b, (dim - 1, m)).T
        lm[:, -1] = log_c - rng.uniform(0.0, 4.0, m)
        pop = rng.integers(0, 3, m)
        lm[pop == 1] = rng.uniform(-6.0, math.log(0.25),
                                   (np.sum(pop == 1), dim))
        lm[pop == 2] = rng.uniform(math.log(0.25), K.shells[0].log_a,
                                   (np.sum(pop == 2), dim))
        z = np.exp(lm) * np.exp(1j * rng.uniform(-math.pi, math.pi, (m, dim)))
        z[rng.random((m, dim)) < 0.05] = 0j
        z[rng.random((m, dim)) < 0.05] = complex(-0.0, -0.0)
        pts = [tuple(map(complex, p)) for p in z]
        got = orbit_logs_batch(state, pts)
        lm, ph = _point_arrays(pts, dim)
        want = _row_major_orbit_logs(state, lm.T.copy(), ph.T.copy())
        assert got.shape == (m, state.k)
        assert np.array_equal(got, want)
        assert np.isinf(got).any() and (got > 10.0).any()
        for n in range(0, m, 61):
            assert np.array_equal(orbit_logs_batch(state, [pts[n]])[0], got[n])

    @staticmethod
    def _full_orbit_membership(state, p):
        """Reference rule: the whole orbit first, then the verdict."""
        rec = compose_orbit(state, p)
        first = max(abs(complex(v)) for v in p)
        logs = (math.log(first) if first > 0 else NEG_INF,) + rec.log_maxnorms
        for j in range(state.k + 1):
            if logs[j] < 5.0 and \
                    math.exp(logs[j]) + state.eps_schedule.tail(j) < max(j, 1):
                return "in_omega_certified"
        return "escaped" if rec.first_escape is not None else "undecided"

    def test_membership_matches_full_orbit_rule(self, built_state):
        rng = np.random.default_rng(5)
        polydisk = rng.uniform(-0.17, 0.17, (40, 2, 2))
        K = built_state.initial
        annulus = (np.exp(rng.uniform(math.log(0.25), K.shells[0].log_a,
                                      (120, 2)))
                   * np.exp(1j * rng.uniform(-math.pi, math.pi, (120, 2))))
        shells = [tuple(map(_to_complex, *p))
                  for p in _sample_shell_points(K, 60, rng, 2)]
        pts = ([tuple(complex(a, b) for a, b in p) for p in polydisk]
               + [tuple(p) for p in annulus] + shells)
        seen = set()
        for p in pts:
            got = omega_membership(built_state, p)
            assert got == self._full_orbit_membership(built_state, p)
            seen.add(got)
        assert {"in_omega_certified", "escaped"} <= seen

    @pytest.mark.parametrize("bad", [
        complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_coordinates_rejected(self, built_state, bad):
        p = (0.5 + 0j, bad)
        for single in (compose_orbit, omega_membership, fb_map_eval):
            with pytest.raises(ValueError,
                               match="^coordinate 1 is not finite"):
                single(built_state, p)
        with pytest.raises(ValueError,
                           match="point 1, coordinate 1 is not finite"):
            orbit_logs_batch(built_state, [(0j, 0j), p])

    def test_modulus_overflow_rejected(self, built_state):
        p = (complex(1.5e308, 1.5e308), 0j)  # finite, |z| beyond float range
        for single in (compose_orbit, omega_membership):
            with pytest.raises(OverflowError):
                single(built_state, p)
        with pytest.raises(OverflowError):
            orbit_logs_batch(built_state, [p])
        # every coordinate is checked for finiteness before any modulus
        p = (complex(1.5e308, 1.5e308), complex(math.nan, 0.0))
        for read in (lambda: compose_orbit(built_state, p),
                     lambda: omega_membership(built_state, p),
                     lambda: _point_arrays([p], 2)):
            with pytest.raises(ValueError,
                               match="^coordinate 1 is not finite"):
                read()

    def test_membership_origin_certified(self, built_state):
        assert omega_membership(built_state, [0j, 0j]) == "in_omega_certified"
        assert omega_membership(built_state,
                                [1e-3 + 0j, 1e-3j]) == "in_omega_certified"

    def test_membership_shell_escaped(self, built_state):
        assert omega_membership(built_state, [2.0 + 0j, 0j]) == "escaped"

    def test_fb_map_eval_origin(self, built_state):
        value, err = fb_map_eval(built_state, [0j, 0j])
        assert value == (0j, 0j)
        assert err == built_state.eps_schedule.tail(built_state.k)

    def test_fb_map_eval_small_point_stays_small(self, built_state):
        value, err = fb_map_eval(built_state, [1e-3 + 0j, 0j])
        drift = max(abs(v) for v in value)
        assert drift < 1e-3 + sum(r.eps for r in built_state.rounds)

    def test_fb_map_eval_matches_native(self, built_state):
        # certified points stay in float range, where the native path runs
        rng = np.random.default_rng(41)
        maps = built_state.theta_maps()
        for a, b, c, d in rng.uniform(-0.17, 0.17, (20, 4)):
            p = (complex(a, b), complex(c, d))
            value, _ = fb_map_eval(built_state, p)
            vec = np.array(p)
            for m in maps:
                vec = m.apply_native(vec)
            assert value == pytest.approx(tuple(vec), rel=1e-12, abs=1e-15)

    def test_fb_map_eval_rejects_uncertified(self, built_state):
        with pytest.raises(ValueError, match="not certified"):
            fb_map_eval(built_state, [2.0 + 0j, 0j])

    def test_cauchy_differences(self, built_state):
        # partial compositions at a certified point form a Cauchy sequence
        # with per-round increments below eps_{k}
        lm, ph = _point_column([1e-2, 0j], 2)
        prev = [1e-2, 0j]
        for r in built_state.rounds:
            lm, ph = r.psi.apply_scaled(*r.phi.apply_scaled(lm, ph))
            cur = list(map(_to_complex, lm, ph))
            diff = max(abs(a - b) for a, b in zip(cur, prev))
            assert diff < r.eps
            prev = cur


@pytest.fixture(scope="module")
def dim3_maps():
    """The shear maps of built dim-3 push-outs."""
    return [build_pushout(desk_schedule(3, i), dim=3, k_max=k).theta_maps()
            for i, k in ((6, 6), (3, 2))]


def _pullback_input(rng, n):
    """A point of the 0.9-polydisk in C^(2n+1) and a tangent vector there."""
    dim = 2 * n + 1
    p = (rng.uniform(0.0, 0.9, dim)
         * np.exp(1j * rng.uniform(-math.pi, math.pi, dim)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return (ContactPoint.from_flat(p.tolist()),
            TangentVector.from_flat(v.tolist()))


class TestPullback:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
    def test_dim3_equals_jacobian_product(self, dim3_maps, which, seed):
        # in dim 3 the tangent step gives the matrix product bit for bit
        maps = dim3_maps[which]
        p, v = _pullback_input(np.random.default_rng(seed), 1)
        got = pullback_eval(maps, p, v)
        want = _jacobian_pullback(maps, p, v)
        assert np.array_equal(np.array([got]).view(np.uint64),
                              np.array([want]).view(np.uint64))

    def test_rebuilt_states_alternate(self):
        # two states' maps evaluated in turn, each state rebuilt afresh (so
        # a new object may take the address of a freed one), give the
        # reference's bits every time
        docs = [state_to_dict(build_pushout(desk_schedule(3, i), dim=3,
                                            k_max=k))
                for i, k in ((6, 6), (3, 2))]
        rng = np.random.default_rng(61)
        inputs = [_pullback_input(rng, 1) for _ in range(3)]
        for turn in range(8):
            maps = state_from_dict(docs[turn % 2]).theta_maps()
            for p, v in inputs:
                got = pullback_eval(maps, p, v)
                assert np.array_equal(_bits(got),
                                      _bits(_array_pullback(maps, p, v)))

    def test_escaped_point_raises(self):
        # round 1 maps (20, 0, 0) past float range: the point reads
        # non-finite, so the pullback raises, and numpy warns of nothing
        maps = build_pushout(desk_schedule(3, 6), 3, 1).theta_maps()
        p = ContactPoint.from_flat([20, 0, 0])
        v = TangentVector.from_flat([1, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="escaped"):
                pullback_eval(maps, p, v)

    def test_escaped_point_jacobian_raises(self):
        # the Jacobian walks the point as the pullback does
        maps = build_pushout(desk_schedule(3, 6), 3, 1).theta_maps()
        p = ContactPoint.from_flat([20, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="escaped"):
                composition_jacobian(maps, p)

    def test_escaped_value_raises(self):
        # at x = 3.4464 the point and the tangent stay finite, and alpha0
        # of them overflows
        maps = build_pushout(desk_schedule(3, 6), 3, 1).theta_maps()
        p = ContactPoint.from_flat([3.4464, 0, 0])
        assert np.isfinite(composition_jacobian(maps, p)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="value escaped"):
                pullback_eval(maps, p, TangentVector.from_flat([1, 0, 0]))

    def test_escaped_tangent_raises(self):
        # at x = 3.45 the point stays finite, and the tangent overflows
        maps = build_pushout(desk_schedule(3, 6), 3, 1).theta_maps()
        p = ContactPoint.from_flat([3.45, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="tangent escaped"):
                composition_jacobian(maps, p)
            with pytest.raises(OverflowError, match="tangent escaped"):
                pullback_eval(maps, p, TangentVector.from_flat([1, 0, 0]))

    def test_escaped_batch_not_finite_without_warning(self):
        # round 1 returns the escaped row non-finite, the other as is
        rnd = build_pushout(desk_schedule(3, 6), 3, 1).rounds[0]
        pts = np.array([[20, 0, 0], [0.5, 0, 0]], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rnd.psi.apply_native(rnd.phi.apply_native(pts))
        assert not np.all(np.isfinite(got[0]))
        assert np.array_equal(
            got[1], rnd.psi.apply_native(rnd.phi.apply_native(pts[1])))

    def test_dim5_close_to_jacobian_product(self):
        # a 5 x 5 product may add its terms in another order (and fuse
        # them): the values agree to 1e-15 relative, most of them exactly
        maps = build_pushout(desk_schedule(5, 6), dim=5, k_max=6).theta_maps()
        rng = np.random.default_rng(55)
        differ = 0
        for _ in range(400):
            p, v = _pullback_input(rng, 2)
            got = pullback_eval(maps, p, v)
            want = _jacobian_pullback(maps, p, v)
            assert abs(got - want) <= 1e-15 * abs(want)
            differ += got != want
        print(f"dim 5: {differ} of 400 pullbacks differ from the "
              "Jacobian product in some bit")
        assert differ < 200


class TestStateValidation:
    def test_requires_vertical_initial(self):
        K = ShellUnion.from_linear([(2, 4, 10)], (1,), 0)
        with pytest.raises(ValueError, match="vertical"):
            PushOutState(dim=2, initial=K)

    def test_requires_dilated_schedule(self):
        K = ShellUnion.from_linear([(0.5, 0.9, 10)], (0,), 1)
        with pytest.raises(ValueError, match="a_1 > 1"):
            PushOutState(dim=2, initial=K)

    def test_dim3_round_builds(self):
        state = build_pushout(desk_schedule(3, 3), dim=3, k_max=2)
        assert state.k == 2
        for r in state.rounds:
            assert r.phi.dim == 3 and r.psi.dim == 3


def _nudge(text):
    """The repr of the next float above the stored one."""
    return repr(math.nextafter(float(text), math.inf))


def _edited(doc, path, change):
    """A deep copy of ``doc`` with the value at ``path`` replaced by
    change(value)."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return doc


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for j, value in enumerate(node):
            yield from _leaves(value, path + (j,))
    else:
        yield path, node


class TestSerialization:
    def test_round_trip_identical(self, built_state, tmp_path):
        doc = state_to_dict(built_state)
        text = json.dumps(doc)
        restored = state_from_dict(json.loads(text))
        assert state_to_dict(restored) == doc
        assert restored == built_state
        # functional equality on a sample orbit
        rec_a = compose_orbit(built_state, [2.0 + 0j, 0j])
        rec_b = compose_orbit(restored, [2.0 + 0j, 0j])
        assert rec_a.log_maxnorms == rec_b.log_maxnorms

    def test_stores_only_inputs_and_terms(self, built_state):
        doc = state_to_dict(built_state)
        assert set(doc) == {"version", "dim", "eps_base", "initial", "rounds"}
        assert doc["version"] == 2
        assert len(doc["initial"]) == len(built_state.initial.shells)
        for rd, r in zip(doc["rounds"], built_state.rounds):
            assert set(rd) == {"phi", "psi"}
            assert rd["psi"] == [[repr(lr), N] for lr, N in r.psi.func.terms]

    def test_version_checked(self, built_state):
        doc = state_to_dict(built_state)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            state_from_dict(doc)

    @pytest.mark.parametrize("path, change, named", [
        pytest.param(("rounds", 0, "phi", 0, 1), lambda N: 1,
                     "'rounds[0].phi' term 0 is", id="phi-exponent-1"),
        pytest.param(("rounds", 2, "psi", 1, 0), _nudge,
                     "'rounds[2].psi' term 1 is", id="psi-log-r-ulp"),
        pytest.param(("initial", 0, 0), _nudge,
                     "'rounds[0].phi' term 0 is", id="initial-band-ulp"),
        pytest.param(("initial", 1), lambda band: band[::-1],
                     "bad value for 'initial': ValueError: shell 2",
                     id="initial-band-reversed"),
        pytest.param(("initial", 0, 0), lambda la: "-0.1",
                     "bad value for 'initial': ValueError: initial schedule "
                     "needs a_1 > 1", id="initial-a1-below-1"),
        pytest.param(("initial", 3, 2), lambda lc: "1e300",
                     "'rounds[0]': push-out round 1 fails to build: shell 4: "
                     "exponent", id="initial-height-1e300"),
        pytest.param(("initial",), lambda bands: [],
                     "bad value for 'initial': ValueError: initial shell "
                     "union has no shells", id="initial-empty"),
        pytest.param(("rounds",), lambda rounds: rounds + rounds[-1:],
                     "'rounds[3].phi' term 0 is", id="extra-round"),
        pytest.param(("rounds", 1, "psi", 2), lambda term: term + [1],
                     "bad value for 'rounds[1].psi'", id="term-too-long"),
        pytest.param(("rounds", 1), lambda rd: {"phi": rd["phi"]},
                     "missing key 'rounds[1].psi'", id="round-without-psi"),
        pytest.param(("dim",), lambda dim: 1, "'dim': 1 is below 2",
                     id="dim-1"),
        pytest.param(("eps_base",), lambda base: "1.5",
                     "bad value for 'eps_base'", id="eps-base-1.5"),
        pytest.param(("eps_base",), lambda base: "5e-324",
                     "'rounds[0]': push-out round 1 fails to build: eps_1 = "
                     "eps_base * 2^-1 underflows to 0", id="eps-base-5e-324"),
        pytest.param(("version",), lambda v: 1,
                     "format version 1 is not supported", id="version-1"),
    ])
    def test_tampered_field_named(self, built_state, path, change, named):
        doc = _edited(state_to_dict(built_state), path, change)
        with pytest.raises(ValueError, match=re.escape(named)):
            state_from_dict(doc)

    def test_every_mistyped_value_named(self, built_state):
        # each stored string read as a number, each stored int as a string
        doc = state_to_dict(built_state)
        for path, value in _leaves(doc):
            if path == ("version",):
                continue
            named = f"'{path[0]}'" if path[0] != "rounds" \
                else f"'rounds[{path[1]}].{path[2]}'"
            bad = _edited(doc, path,
                          float if isinstance(value, str) else str)
            with pytest.raises(ValueError, match=re.escape(
                    f"bad value for {named}: TypeError: expected ")):
                state_from_dict(bad)

    def test_witnesses_survive(self, built_state):
        doc = state_to_dict(built_state)
        restored = state_from_dict(doc)
        for ra, rb in zip(built_state.rounds, restored.rounds):
            assert ra.phi_witnesses == rb.phi_witnesses
            assert ra.psi_witnesses == rb.psi_witnesses
            assert ra.shells_before == rb.shells_before
            assert ra.shells_mid == rb.shells_mid
            assert ra.shells_after == rb.shells_after
            assert ra.id_bound == rb.id_bound

    @pytest.mark.parametrize("dim, k", [(2, 39), (3, 33)])
    def test_round_trip_at_representation_limit(self, dim, k, tmp_path):
        # the deepest states the builder produces: round k + 1 would need
        # log radii beyond float64
        state = build_pushout(desk_schedule(dim, 6), dim=dim, k_max=k)
        path = tmp_path / "state.json"
        save_state(state, path)
        restored = load_state(path)
        assert state_to_dict(restored) == state_to_dict(state)
        assert restored == state
        for ra, rb in zip(state.rounds, restored.rounds):
            assert ra.phi_witnesses + ra.psi_witnesses == \
                rb.phi_witnesses + rb.psi_witnesses
            assert (ra.shells_mid, ra.shells_after) == \
                (rb.shells_mid, rb.shells_after)
        # one more stored round cannot be built, and is named
        doc = _edited(state_to_dict(state), ("rounds",),
                      lambda rounds: rounds + rounds[-1:])
        with pytest.raises(ValueError, match=re.escape(
                f"'rounds[{k}]': push-out round {k + 1} fails to build: "
                "shell")):
            state_from_dict(doc)


class TestBuildRoundIncremental:
    @pytest.mark.parametrize("dim, last", [(2, 39), (3, 33)])
    def test_float_range_exhaustion_named(self, dim, last):
        # round last + 1 needs log radii beyond float64; the rounds before
        # it stay appended
        state = PushOutState(dim=dim, initial=desk_schedule(dim, 6))
        with pytest.raises(SelectionError) as ei:
            for _ in range(last + 1):
                build_shear_round(state)
        assert ei.value.binding == "representation"
        assert 1 <= ei.value.shell_index <= 6
        assert [r.index for r in state.rounds] == list(range(1, last + 1))

    @pytest.mark.parametrize("i_max, base, k_max, failed, binding", [
        (6, 0.5, 45, 40, "representation"),
        # eps_k = base * 2^-k rounds to 0, whose log selection would take
        (1, 5e-324, 1, 1, "underflow"),
        (1, 1e-323, 3, 2, "underflow"),
    ])
    def test_build_pushout_names_failed_round(self, i_max, base, k_max,
                                              failed, binding):
        with pytest.raises(SelectionError) as ei:
            build_pushout(desk_schedule(2, i_max), 2, k_max, EpsSchedule(base))
        assert (ei.value.round, ei.value.binding) == (failed, binding)
        if binding == "underflow":
            assert str(ei.value) == (f"eps_{failed} = eps_base * 2^-{failed} "
                                     "underflows to 0")

    def test_round_indices_and_eps(self):
        state = PushOutState(dim=2, initial=desk_schedule(2, 3))
        r1 = build_shear_round(state)
        r2 = build_shear_round(state)
        assert (r1.index, r2.index) == (1, 2)
        assert r1.eps == 0.25 and r2.eps == 0.125
        assert r2.shells_before is r1.shells_after
