"""Each closed form fetches its q-shifted factorials in one kernel call and
equals, bit for bit and in type, its loop of one kernel call per factor
group (tests/oracles.py), raising the same typed error first at a pole.
The parameters cover n = 1 (no pair ratios), 2 and 3, q = 0.5, 0.9 and
0.99, and real, conjugate-pair and complex parameters."""

import cmath
import itertools
import random

import pytest

from bcortho import big, little, qracah, qseries
from bcortho.askey_wilson import aw_norm, gustafson_constant
from bcortho.bcpoly import partitions_dominated_by
from bcortho.big import BigParams, askey_evans_rhs, big_limit
from bcortho.errors import (BcorthoError, DomainViolation, PoleInProduct,
                            UncancelledPole, ZeroProduct)
from bcortho.little import LittleParams, little_limit
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams, _eval_cancelled_ratio

from oracles import (askey_evans_rhs_loop, aw_norm_loop, big_prefactor_loop,
                     c_weights_defining_loop, eval_cancelled_ratio_loop,
                     gustafson_loop, little_prefactor_loop, norm_big_loop,
                     nqj_product_loop, qgamma, selberg_big_loop,
                     selberg_little_loop)

QS = [0.5, 0.9, 0.99]
NS = [1, 2, 3]
# real parameters, one conjugate pair, four complex ones
TVECS = {
    "real": (0.35, -0.45, 0.25, 0.2),
    "pair": (0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j),
    "complex": (0.4 * cmath.exp(0.3j), -0.5 * cmath.exp(0.1j),
                0.3 * cmath.exp(1.1j), 0.6 * cmath.exp(2.0j)),
}
# the real branch of the big q-Jacobi parameters (a, b), and the
# conjugate one a = c u, b = -d conj(u)
C, D = 1.0, 0.8
U = 0.3 + 0.2j
BRANCHES = {"real": (0.4, 0.3), "conjugate": (C * U, -D * U.conjugate())}


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of kernel calls made since the fixture was set up."""
    calls = []
    blocks = qseries._qpoch_blocks

    def counting(*args):
        calls.append(None)
        return blocks(*args)

    monkeypatch.setattr(qseries, "_qpoch_blocks", counting)
    return calls


def aw_params(n, q, kind):
    return AWParams(n, q, 0.3, *TVECS[kind])


def big_params(n, q, kind, t=0.4):
    return BigParams(n, q, t, *BRANCHES[kind], C, D)


@pytest.mark.parametrize("kind", list(TVECS))
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
class TestAskeyWilson:
    def test_aw_norm_equals_loop(self, n, q, kind, kernel_calls):
        p = aw_params(n, q, kind)
        for lam in partitions_dominated_by((3,) + (2,) * (n - 1)):
            kernel_calls.clear()
            got = aw_norm(lam, p)
            assert len(kernel_calls) == 1
            assert repr(got) == repr(aw_norm_loop(lam, p))

    def test_gustafson_equals_loop(self, n, q, kind, kernel_calls):
        p = aw_params(n, q, kind)
        got = gustafson_constant(p)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(gustafson_loop(p))


class TestAskeyWilsonPoles:
    # t0 t1 = 1: the factor 1 - q^0 t^0 t0 t1 of the last i vanishes
    @pytest.mark.parametrize("n", NS)
    def test_same_error(self, n):
        p = AWParams(n, 0.5, 0.3, 2.0, 0.5, 0.25, 0.2)
        for form, loop in ((lambda: aw_norm((0,) * n, p),
                            lambda: aw_norm_loop((0,) * n, p)),
                           (lambda: gustafson_constant(p),
                            lambda: gustafson_loop(p))):
            with pytest.raises(PoleInProduct) as want:
                loop()
            with pytest.raises(PoleInProduct) as got:
                form()
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", list(BRANCHES))
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
class TestBig:
    def test_c_weights_defining_equals_loop(self, n, q, kind, kernel_calls):
        bp = big_params(n, q, kind)
        got = big.c_weights_defining(bp)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(c_weights_defining_loop(bp))

    @pytest.mark.parametrize("k", [1, 2])
    def test_askey_evans_rhs_equals_loop(self, n, q, kind, k, kernel_calls):
        bp = big_params(n, q, kind, t=q ** k)
        got = askey_evans_rhs(bp)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(askey_evans_rhs_loop(bp))

    def test_prefactor_equals_loop(self, n, q, kind, kernel_calls):
        bp = big_params(n, q, kind)
        prefactor = big_limit(bp).prefactor
        for k in range(12):
            eps = q * q ** k
            kernel_calls.clear()
            got = prefactor(eps)
            assert len(kernel_calls) == 1
            assert repr(got) == repr(big_prefactor_loop(bp, eps))


    def test_norm_big_equals_loop(self, n, q, kind, kernel_calls):
        bp = big_params(n, q, kind)
        for lam in partitions_dominated_by((2,) * n):
            kernel_calls.clear()
            got = big.norm_big(lam, bp)
            assert len(kernel_calls) == 1
            assert repr(got) == repr(norm_big_loop(lam, bp))

    def test_selberg_big_equals_loop(self, n, q, kind, kernel_calls):
        bp = big_params(n, q, kind)
        got = big.selberg_big(bp)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(selberg_big_loop(bp))

    def test_c_weights_equal_split_call(self, n, q, kind, kernel_calls,
                                        monkeypatch):
        # (q;q)_inf and the thetas of c_weights from one call, against
        # the same closed form with one call for (q;q)_inf and one for
        # the thetas
        bp = big_params(n, q, kind)
        got = big.c_weights(bp)
        assert len(kernel_calls) == 1
        monkeypatch.setattr(big, "qpoch_theta_values", lambda args, xs, q: (
            [qseries.qpoch_infinite(a, q) for a in args],
            qseries.qpoch_theta_values([], xs, q)[1]))
        assert repr(got) == repr(big.c_weights(bp))


def norm_big_zero(bp):
    return big.norm_big((0,) * bp.n, bp)


def norm_big_zero_loop(bp):
    return norm_big_loop((0,) * bp.n, bp)


class TestBigPoles:
    # a -> 1/q makes a guarded denominator of the gamma ratio vanish;
    # a -> -c/(dq) or b -> -d/(cq) one of the guarded factors of c and d
    # (askey_evans_rhs) or of the last i (norm_big); with both, the gamma
    # ratio comes first
    NEAR = 1.0 - 1e-15

    @pytest.mark.parametrize("a, b, error", [
        (NEAR / 0.5, 0.3, PoleInProduct),
        (-NEAR * C / (D * 0.5), 0.3, DomainViolation),
        (0.4, -NEAR * D / (C * 0.5), DomainViolation),
        (NEAR / 0.5, -NEAR * D / (C * 0.5), PoleInProduct),
    ], ids=["ratio", "factor-a", "factor-b", "both"])
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("form, loop", [
        (askey_evans_rhs, askey_evans_rhs_loop),
        (norm_big_zero, norm_big_zero_loop),
    ], ids=["askey-evans", "norm"])
    def test_same_error(self, form, loop, n, a, b, error):
        bp = BigParams(n, 0.5, 0.25, a, b, C, D)
        with pytest.raises(error) as want:
            loop(bp)
        with pytest.raises(error) as got:
            form(bp)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
def test_little_prefactor_equals_loop(n, q, kernel_calls):
    lp = LittleParams(n, q, 0.3, 0.4, 0.2)
    prefactor = little_limit(lp).prefactor
    for k in range(13):
        eps = q * q ** k
        kernel_calls.clear()
        got = prefactor(eps)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(little_prefactor_loop(lp, eps))


@pytest.mark.parametrize("b", [0.2, -2.0])
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
class TestLittle:
    def test_nqj_product_equals_loop(self, n, q, b, kernel_calls):
        for lam in partitions_dominated_by((2,) * n):
            kernel_calls.clear()
            got = little.nqj_product(lam, n, q, 0.3, 0.4, b)
            assert len(kernel_calls) == 1
            assert repr(got) == repr(nqj_product_loop(lam, n, q, 0.3, 0.4, b))

    def test_selberg_little_equals_loop(self, n, q, b, kernel_calls):
        lp = LittleParams(n, q, 0.3, 0.4, b)
        got = little.selberg_little(lp)
        assert len(kernel_calls) == 1
        assert repr(got) == repr(selberg_little_loop(lp))


@pytest.mark.parametrize("q", QS)
def test_qgamma_equals_two_calls(q, kernel_calls):
    for u, qu in [(0.5, None), (2.5, None), (-1.5, None), (1.3, q ** 1.3),
                  (0.7, 0.4 + 0.3j)]:
        kernel_calls.clear()
        got = qgamma(u, q, qu)
        assert len(kernel_calls) == 1
        qu = q ** u if qu is None else qu
        val = (qseries.qpoch_infinite(q, q) * (1.0 - q) ** (1.0 - u)
               / qseries.qpoch_infinite(qu, q, require_nonzero=True))
        assert repr(got) == repr(val.real if isinstance(val, complex)
                                 else val)
    with pytest.raises(ZeroProduct):
        qgamma(0.5, q, 1.0 / q)


def outcome(fn, *args):
    """The repr of fn(*args), equal for equal bits and types (NaN
    included), or the type and message of the BcorthoError it raises."""
    try:
        return repr(fn(*args))
    except BcorthoError as exc:
        return type(exc), str(exc)


def key_lists(seed):
    """Random numerator and denominator keys (exponents of q, t, t0, t1,
    t2) over a few t-parts, so that some shifts pair up and some infinite
    factors are left uncancelled."""
    rng = random.Random(seed)
    tparts = list(itertools.product(range(-1, 2), repeat=4))
    rng.shuffle(tparts)
    tparts = tparts[:4]

    def keys(count):
        return [(rng.randrange(0, 4),) + rng.choice(tparts)
                for _ in range(count)]

    return keys(rng.randrange(1, 9)), keys(rng.randrange(1, 9))


@pytest.mark.parametrize("t0", [0.7, 0.7 + 0.2j])
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
class TestCancelledRatio:
    def test_equals_loop(self, n, q, t0, kernel_calls):
        # at q = 0.99 some infinite denominators fall below the pole guard
        qp = QRacahParams(n, q, 0.3, t0, -0.4, 0.5, 2)
        for seed in range(40):
            num, den = key_lists(seed)
            kernel_calls.clear()
            got = outcome(_eval_cancelled_ratio, num, den, qp)
            assert len(kernel_calls) <= 1
            assert got == outcome(eval_cancelled_ratio_loop, num, den, qp)

    def test_one_call_for_uncancelled_factors(self, n, q, t0, kernel_calls):
        qp = QRacahParams(n, q, 0.3, t0, -0.4, 0.5, 2)
        num = [(0, 1, 0, 0, 0), (2, 0, 1, 0, 0), (1, 0, 0, 1, 0)]
        den = [(3, 0, 0, 0, 1), (0, 0, 1, 0, 0), (1, 1, 0, 0, 0)]
        got = outcome(_eval_cancelled_ratio, num, den, qp)
        assert len(kernel_calls) == 1
        assert got == outcome(eval_cancelled_ratio_loop, num, den, qp)

    def test_norms_equal_loop(self, n, q, t0):
        qp = QRacahParams(n, q, 0.3, t0, -0.4, 0.5, 2)
        for lam in partitions_dominated_by((2,) * n):
            num, den = qracah._norm_ratio_keys(lam, qp)
            assert (outcome(qracah.norm_qR, lam, qp)
                    == outcome(eval_cancelled_ratio_loop, num, den, qp))


class TestCancelledRatioPoles:
    # q = 0.5 and t0 = 2 = 1/q: (x;q)_inf vanishes at x = q^-1 and at
    # x = t0, and so does (x;q)_k at x = q^-1, k >= 2
    QP = QRacahParams(2, 0.5, 0.3, 2.0, -0.4, 0.5, 2)

    @pytest.mark.parametrize("num, den", [
        ([(0, 1, 0, 0, 0)], [(-1, 0, 0, 0, 0)]),
        # the finite pole of the first group comes before the infinite
        # one of the second
        ([(1, 0, 0, 0, 0)], [(-1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]),
        # the infinite pole of the first group comes before the finite
        # one of the second
        ([(2, 0, 1, 0, 0), (1, 0, 0, 0, 0)],
         [(2, 0, 1, 0, 0), (0, 0, 1, 0, 0), (-1, 0, 0, 0, 0)]),
    ], ids=["infinite", "finite-first", "infinite-first"])
    def test_same_error(self, num, den):
        with pytest.raises(UncancelledPole) as want:
            eval_cancelled_ratio_loop(num, den, self.QP)
        with pytest.raises(UncancelledPole) as got:
            _eval_cancelled_ratio(num, den, self.QP)
        assert str(got.value) == str(want.value)
