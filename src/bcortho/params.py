"""Parameter bundles shared by the polynomial families and measures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainViolation
from .qseries import check_q

_TOL = 1e-10

# Measures kept by each cache of measure tables (the discrete node tables,
# and the torus chamber tables: one per measure, number of axes and grid,
# two grids to a pairing); the least recently used entry is dropped first.
CACHE_SIZE = 8


@dataclass(frozen=True)
class AWParams:
    """Parameters (q, t, t0..t3) of the Askey-Wilson family in n variables.

    The deformation exponent tau with q^tau = t is derived once; inner
    loops always use t itself, never tau.
    """

    n: int
    q: float
    t: float
    t0: complex
    t1: complex
    t2: complex
    t3: complex

    def __post_init__(self):
        check_q(self.q)
        if not (isinstance(self.t, (int, float)) and 0.0 < self.t < 1.0):
            raise DomainViolation(f"t must be real in (0,1), got {self.t!r}")
        if not 1 <= self.n:
            raise DomainViolation(f"n must be >= 1, got {self.n}")
        for ti in (self.t0, self.t1, self.t2, self.t3):
            if ti == 0:
                raise DomainViolation("all t_i must be nonzero")

    @property
    def tvec(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.t0), complex(self.t1),
                complex(self.t2), complex(self.t3))

    @property
    def T(self) -> complex:
        """Product t0 t1 t2 t3."""
        t0, t1, t2, t3 = self.tvec
        return t0 * t1 * t2 * t3

    @property
    def tau(self) -> float:
        return math.log(self.t) / math.log(self.q)

    def replace_t0(self, value: complex) -> "AWParams":
        return AWParams(self.n, self.q, self.t, value, self.t1, self.t2,
                        self.t3)

    def in_V(self) -> bool:
        """Generic domain: the 8 arguments of t_i and 1/t_i are pairwise
        distinct, and t0 t1 t2 t3 is not a real number >= 1."""
        args = []
        for ti in self.tvec:
            for u in (ti, 1.0 / ti):
                args.append(math.atan2(u.imag, u.real) % (2 * math.pi))
        for i in range(8):
            for j in range(i + 1, 8):
                d = abs(args[i] - args[j]) % (2 * math.pi)
                if min(d, 2 * math.pi - d) < _TOL:
                    return False
        return not _real_geq1(self.T)

    def in_V_AW(self) -> bool:
        """Positive-measure domain: parameters real or in conjugate pairs,
        and t_k t_l not in [1, inf) for every pair k < l."""
        pool = [ti for ti in self.tvec if abs(ti.imag) > _TOL]
        while pool:
            u = pool.pop()
            for i, v in enumerate(pool):
                if abs(v - u.conjugate()) < _TOL:
                    pool.pop(i)
                    break
            else:
                return False
        tv = self.tvec
        for k in range(4):
            for l in range(k + 1, 4):
                if _real_geq1(tv[k] * tv[l]):
                    return False
        return True


def _real_geq1(x: complex) -> bool:
    return abs(x.imag) < _TOL and x.real >= 1.0 - _TOL
