"""Matrix-free statevector core for amplitude amplification.

The register holds ``n`` domain qubits plus one flag qubit.  Amplitudes live
in a flat array of length ``2**(n+1)`` indexed so that bits 0..n-1 are the
domain index ``d`` and bit n, the top one, is the flag::

    index = (flag << n) | d

State preparation ``A`` loads the uniform superposition over the domain and
raises the flag exactly on a chosen "good" subset of indices, so the flag-1
probability equals ``a = |good| / 2**n``.  Writing ``theta = arcsin(sqrt(a))``,
each amplification iterate advances the flag-1 probability along the rotation

    sin^2(theta) -> sin^2(3*theta) -> ... -> sin^2((2m+1)*theta)

The iterate ``Q = A S_0 A^dagger S_chi`` is applied through the identity
``A S_0 A^dagger = I - 2|psi><psi|`` with ``psi = A|0>``, the prepared
state.  The good indices come first, so ``psi``'s support, where it is
nonzero, is one contiguous slice ``[good, 2**n + good)`` that ends inside
the flag-1 upper half.  One kernel advances that slice: it flips the signs
of its flag-1 part, the good block, sums the slice for the overlap and
updates it in place.  The flag-1 amplitudes past the support meet ``psi``
nowhere, so their flips commute with every reflection and ``m`` iterates
flip them once if ``m`` is odd.  Every one of these operators is real, so
the prepared state and everything evolved from it stay real.  A whole
register is a plain float64 array of ``2**(n+1)`` amplitudes:
:func:`prepare_a` builds one, :func:`apply_q` evolves one in place, and its
flag probability is the sum of squares of its flag-1 half ``amps[2**n:]``.

A prepared state is zero outside its support and every iterate keeps it
so, but for sign flips of zeros, which lets :class:`StatevectorBackend`
hold only the support, ``2**n`` amplitudes, half the register.  Every
squared norm, the flag probability included, is one sum of squares,
``np.einsum("i,i->", x, x)``: numpy's own single-threaded loop, with no
temporary, so its bits do not depend on BLAS threads or on where the
summed slice starts in memory.

No gate matrices are ever materialized here; the dense
Hadamard-and-permutation build that checks this form independently, and
the whole-array update that checks the iterate bit for bit, live in
:mod:`qaelab.verify`.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "OracleSpec",
    "Backend",
    "StatevectorBackend",
    "AnalyticBackend",
    "BACKENDS",
    "make_backend",
    "check_shots",
    "measure_flag",
]

@dataclass(frozen=True)
class OracleSpec:
    """Membership oracle over an ``n``-qubit domain, given by its marked count.

    The marked ("good") indices are the first ``good_count`` ones,
    ``{0, ..., good_count - 1}``.  The estimators see the oracle only through
    ``theta = arcsin(sqrt(good_count / 2**n))``, so which indices are marked
    never matters, and an oracle costs O(1) to build at any ``n``.

    Args:
        n: number of domain qubits; the domain is ``{0, ..., 2**n - 1}``.
        good_count: number of marked domain indices.
    """

    n: int
    good_count: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one domain qubit, got n={self.n}")
        size = 1 << self.n
        if not 0 <= self.good_count <= size:
            raise ValueError(
                f"good_count={self.good_count} outside [0, {size}] for n={self.n}"
            )

    @classmethod
    def from_amplitude(cls, qubits: int, a: float) -> "OracleSpec":
        """The oracle on ``qubits`` domain qubits whose flag-1 probability is ``a``.

        ``a`` must lie in [0, 1] and ``a * 2**qubits`` must be an integer to
        within 1e-9.  The product is taken exactly, so any ``qubits`` works.
        """
        if qubits < 1:
            raise ValueError(f"need at least one domain qubit, got qubits={qubits}")
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {a}")
        scaled = Fraction(a) * (1 << qubits)
        good = round(scaled)
        if abs(scaled - good) > 1e-9:
            raise ValueError(
                f"a={a} is not representable on {qubits} qubits: "
                f"a * 2**qubits = {float(scaled)} is not an integer"
            )
        return cls(qubits, good)

    @property
    def domain_size(self) -> int:
        return 1 << self.n

    @property
    def a(self) -> float:
        """Flag-1 probability right after state preparation."""
        return self.good_count / self.domain_size

    @cached_property
    def theta(self) -> float:
        """Rotation angle ``arcsin(sqrt(a))`` in ``[0, pi/2]``, computed on
        the first read and kept in the instance: every draw reads it.  Only
        the fields take part in equality and hashing.

        It is taken from the integers, so it keeps its precision at any
        ``n`` and near both ends: above ``a = 1/2`` as ``pi/2`` less the
        angle of the unmarked count, whose fraction of the domain stays
        exact where ``1 - a`` would round."""
        size = self.domain_size
        if 2 * self.good_count > size:
            return math.pi / 2 - _asin_sqrt_fraction(size - self.good_count, self.n)
        return _asin_sqrt_fraction(self.good_count, self.n)


def _asin_sqrt_fraction(count: int, n: int) -> float:
    """``arcsin(sqrt(count / 2**n))`` for ``count <= 2**(n-1)``.

    Where the fraction is a normal float this is ``asin(sqrt(fraction))``.
    Below that, ``arcsin(x) = x`` to double precision, and
    ``x = sqrt(count * 2**r) * 2**(-(n + r)/2)`` with ``r = n % 2`` makes the
    power of two exact; an even shift keeps ``count`` within float range.
    """
    fraction = count / (1 << n)
    if fraction >= sys.float_info.min:
        return math.asin(math.sqrt(fraction))
    scaled = count << (n & 1)
    shift = max(0, scaled.bit_length() - 1000) & ~1
    return math.ldexp(math.sqrt(scaled >> shift), (shift - n - (n & 1)) // 2)


def _sum_of_squares(amps: np.ndarray) -> float:
    """Sum of ``amplitude**2`` over a contiguous float64 array.

    numpy's einsum loop reads the array once, single-threaded, so its bits
    do not depend on BLAS threads or on the array's start in memory.
    """
    return float(np.einsum("i,i->", amps, amps))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_state_size(n: int) -> None:
    """Reject ``n`` domain qubits whose ``2**(n+1)`` float64 amplitudes are
    more bytes than a numpy array can index."""
    if (2 << n) * 8 > np.iinfo(np.intp).max:
        raise ValueError(
            f"n={n} needs a statevector of 2**{n + 1} float64 amplitudes "
            f"(2**{n + 4} bytes), more than numpy can index"
        )


def _amplitude(n: int) -> float:
    """``2**(-n/2)``: every nonzero amplitude of the prepared state on ``n`` domain qubits."""
    return 1.0 / math.sqrt(1 << n)


# outside __all__: verify's dense, probe and inverse checks call prepare_a and
# apply_q, and perfbench's tracer rebinds both here by name
def prepare_a(oracle: OracleSpec) -> np.ndarray:
    """The post-preparation register: ``2**(n+1)`` float64 amplitudes,
    uniform over the domain, flag set on the good indices.

    Every domain index carries amplitude ``2**(-n/2)``; the flag qubit is 1
    exactly on the first ``oracle.good_count`` indices, so the flag-1 half,
    ``amps[2**n:]``, has squared norm ``oracle.a``.  Raises ``ValueError`` if
    numpy cannot index the state.
    """
    _check_state_size(oracle.n)
    amps = np.zeros(2 * oracle.domain_size)
    # the good indices' flag-1 and the others' flag-0 amplitudes, in one slice
    amps[oracle.good_count:oracle.domain_size + oracle.good_count] = _amplitude(oracle.n)
    return amps


def _prepare_slice(oracle: OracleSpec) -> np.ndarray:
    """The prepared state's support ``[good, 2**n + good)``: ``2**n``
    amplitudes of ``2**(-n/2)``.  The only allocation of
    :class:`StatevectorBackend`."""
    return np.full(oracle.domain_size, _amplitude(oracle.n))


def _iterate(support: np.ndarray, n: int, good: int, m: int) -> None:
    """``m`` iterates on ``psi``'s support ``[good, 2**n + good)``, in place.

    With ``psi = A|0>`` the prepared state, ``A S_0 A^dagger = I - 2|psi><psi|``,
    so after the flag-phase flip an iterate is ``amps -= 2 <psi|amps> psi``.
    ``psi`` is ``2**(-n/2)`` on its support and zero elsewhere, so the
    overlap is that constant times the support's sum.  Of the flag-phase
    flip this does the part on the support, its last ``good`` amplitudes;
    the caller owns the flag-1 amplitudes past it.
    """
    amplitude = _amplitude(n)
    block = support[(1 << n) - good:]
    for _ in range(m):
        block *= -1.0
        step = 2.0 * (amplitude * np.add.reduce(support)) * amplitude
        support -= step


def apply_q(amps: np.ndarray, oracle: OracleSpec, m: int = 1) -> np.ndarray:
    """``m`` amplification iterates ``Q = A S_0 A^dagger S_chi`` on the whole
    register ``amps``, in place (``m = 0`` is a no-op); returns ``amps``.

    Reads and writes only ``psi``'s support and the flag-1 half, with no
    temporary, and is bit for bit ``m`` single iterates.  Raises
    ``ValueError`` for a negative power, or unless ``amps`` is a float64
    array of shape ``(2**(n+1),)``.
    """
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    size, good = oracle.domain_size, oracle.good_count
    if not (isinstance(amps, np.ndarray) and amps.dtype == np.float64
            and amps.shape == (2 * size,)):
        raise ValueError(
            f"n={oracle.n} needs a float64 array of shape ({2 * size},), got "
            f"{getattr(amps, 'dtype', type(amps).__name__)} of shape {np.shape(amps)}"
        )
    _iterate(amps[good:size + good], oracle.n, good, m)
    if m % 2:
        # psi is zero on the other flag-1 amplitudes: their flips commute
        # with every reflection, and cancel in pairs
        amps[size + good:] *= -1.0
    return amps


class Backend:
    """Source of the flag-1 probability for a given oracle and iterate power."""

    name = "abstract"

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        raise NotImplementedError

    def check_oracle(self, oracle: OracleSpec) -> None:
        """Raise ``ValueError`` if this backend cannot run ``oracle``; the
        default accepts every oracle."""


class StatevectorBackend(Backend):
    """Simulates the register and reads the probability off the state.

    A state evolved from ``A|0>`` is zero outside ``psi``'s support
    ``[good, 2**n + good)``, but for sign flips of zeros.  So the backend
    holds only that support, the slice :func:`_prepare_slice` allocates,
    half the register; advances it with the iterate kernel; and reads the
    probability as the sum of squares of its last ``good`` amplitudes, the
    good block, where the flag is 1.

    Each instance memoizes the probability per ``(oracle, m)`` and evolves one
    live ``(oracle, m, slice)`` in place: a higher power of the same oracle
    advances it; anything else drops it and restarts from a newly
    prepared slice once :meth:`check_oracle` accepts the oracle.  Both paths
    apply the same iterates to the same start, so the memo returns exactly what
    a fresh simulation would.  A backend serves one caller at a time, holding
    one slice at most.
    """

    name = "sv"

    def __init__(self) -> None:
        self._probabilities: dict[tuple[OracleSpec, int], float] = {}
        self._live: tuple[OracleSpec, int, np.ndarray] | None = None

    def check_oracle(self, oracle: OracleSpec) -> None:
        """Reject an oracle whose statevector numpy cannot index, or whose
        support of ``2**n * 8`` bytes exceeds the machine's physical memory.
        Allocates nothing."""
        _check_state_size(oracle.n)
        need = oracle.domain_size * 8
        physical = _physical_memory()
        if physical is not None and need > physical:
            raise ValueError(
                f"n={oracle.n} needs 2**{oracle.n} * 8 bytes ({need / 2**30:.3g} GiB), "
                f"more than the {physical / 2**30:.3g} GiB of physical memory"
            )

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        if m < 0:
            raise ValueError(f"power must be non-negative, got {m}")
        p = self._probabilities.get((oracle, m))
        if p is not None:
            return p
        # held by this call alone until read, so no half-evolved state is reused
        live, self._live = self._live, None
        if live is None or live[0] != oracle or live[1] > m:
            live = None  # free the old slice before its successor is allocated
            self.check_oracle(oracle)
            live = (oracle, 0, _prepare_slice(oracle))
        amps, good = live[2], oracle.good_count
        _iterate(amps, oracle.n, good, m - live[1])
        p = self._probabilities[(oracle, m)] = _sum_of_squares(amps[amps.size - good:])
        self._live = (oracle, m, amps)
        return p


class AnalyticBackend(Backend):
    """Uses the rotation closed form directly; no state is materialized."""

    name = "analytic"

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        """Closed-form flag-1 probability after ``m`` iterates: ``sin^2((2m+1) theta)``."""
        if m < 0:
            raise ValueError(f"power must be non-negative, got {m}")
        return math.sin((2 * m + 1) * oracle.theta) ** 2


#: every backend, by the name that configs, sweep files and ``--backend`` use
BACKENDS: dict[str, type[Backend]] = {
    cls.name: cls for cls in (AnalyticBackend, StatevectorBackend)
}


def make_backend(name: str) -> Backend:
    """A new instance of the backend registered as ``name`` in :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected one of {list(BACKENDS)}")
    return BACKENDS[name]()


def check_shots(shots: int, name: str = "shots") -> None:
    """Reject a draw count that is not positive, or past 2**63 - 1, the
    largest that numpy's binomial sampler takes; ``name`` heads the message."""
    if shots < 1:
        raise ValueError(f"{name} must be positive, got {shots}")
    if shots > 2**63 - 1:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {shots}")


def _draw_probability(backend: Backend, oracle: OracleSpec, m: int) -> float:
    """The backend's flag probability after ``m`` iterates, clamped into
    [0, 1]: the ``p`` of every binomial flag draw, :func:`measure_flag`'s
    and an MLQAE cell's.  A ``p`` strictly inside skips ``min`` and
    ``max``, two builtin calls that cost more than this function's own."""
    p = backend.flag_probability(oracle, m)
    return p if 0.0 < p < 1.0 else min(1.0, max(0.0, p))


def measure_flag(
    backend: Backend,
    oracle: OracleSpec,
    m: int,
    shots: int,
    rng: np.random.Generator,
) -> int:
    """Sample the number of flag-1 outcomes over ``shots`` runs of one circuit.

    The count is binomial with the backend's flag probability; a fixed
    generator state makes the draw reproducible.
    """
    check_shots(shots)
    return int(rng.binomial(shots, _draw_probability(backend, oracle, m)))
