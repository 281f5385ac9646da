"""Matrix-free statevector core for amplitude amplification.

The register holds ``n`` domain qubits plus one flag qubit.  Amplitudes live
in a flat array of length ``2**(n+1)`` indexed so that bit 0 is the flag and
bits 1..n are the domain index ``d``::

    index = (d << 1) | flag

State preparation ``A`` loads the uniform superposition over the domain and
raises the flag exactly on a chosen "good" subset of indices, so the flag-1
probability equals ``a = |good| / 2**n``.  Writing ``theta = arcsin(sqrt(a))``,
each amplification iterate advances the flag-1 probability along the rotation

    sin^2(theta) -> sin^2(3*theta) -> ... -> sin^2((2m+1)*theta)

The iterate ``Q = A S_0 A^dagger S_chi`` is applied through the identity
``A S_0 A^dagger = I - 2|psi><psi|`` with ``psi = A|0>``, the prepared
state: a flag-phase flip, one overlap with ``psi`` and one axpy, each an
O(2**(n+1)) pass over the amplitude array.  Every one of these operators
is real, so the prepared state and everything evolved from it stay real
float64; the same functions act on a complex state unchanged.  No gate
matrices are ever materialized here; the dense Hadamard-and-permutation
build that checks this form independently lives in :mod:`qaelab.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "OracleSpec",
    "Statevector",
    "prepare_a",
    "apply_s_chi",
    "apply_q",
    "apply_q_power",
    "flag_probability",
    "analytic_flag_probability",
    "Backend",
    "StatevectorBackend",
    "AnalyticBackend",
    "BACKENDS",
    "make_backend",
    "check_shots",
    "measure_flag",
]

#: amplitudes per slice of the iterate's axpy: its temporary stays at 64 KiB
#: of float64, which the allocator serves from memory it already holds
_AXPY_SLICE = 1 << 13
#: byte boundary every evolved amplitude array starts on: a cache line.  The
#: allocator's 16-byte alignment makes the iterate's wide vector stores
#: straddle two lines, which at n = 16 on an AVX-512 core takes about 1.7
#: times as long, so a run's speed would hang on where its copy landed
_ALIGN = 64


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

    @property
    def theta(self) -> float:
        """Rotation angle ``arcsin(sqrt(a))`` in ``[0, pi/2]``."""
        return math.asin(min(1.0, math.sqrt(self.a)))


@dataclass
class Statevector:
    """Dense amplitudes over ``n`` domain qubits plus the flag (bit 0).

    The array is float64 unless complex amplitudes are passed in, in which
    case it is complex128.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps)
        self.amps = amps.astype(np.result_type(amps, np.float64), copy=False)
        expected = 2 << self.n
        if self.amps.shape != (expected,):
            raise ValueError(
                f"amplitude array has shape {self.amps.shape}, expected ({expected},)"
            )

    @classmethod
    def basis(cls, n: int, index: int) -> "Statevector":
        """Computational basis state |index> on the full register."""
        amps = np.zeros(2 << n)
        amps[index] = 1.0
        return cls(n, amps)

    def copy(self) -> "Statevector":
        return Statevector(self.n, _aligned_copy(self.amps))

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amps, self.amps)))


def _aligned_empty(size: int, dtype) -> np.ndarray:
    """An uninitialized 1-D array of ``size`` items that starts on an
    ``_ALIGN``-byte boundary."""
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(dtype)


def _aligned_copy(amps: np.ndarray) -> np.ndarray:
    """A copy of the 1-D array ``amps`` that starts on an ``_ALIGN``-byte boundary."""
    copy = _aligned_empty(amps.size, amps.dtype)
    copy[...] = amps
    return copy


def _check_state_size(n: int) -> None:
    """Reject ``n`` domain qubits whose ``2**(n+1)`` float64 amplitudes, with
    the alignment slack, are more bytes than a numpy array can index."""
    if (2 << n) * 8 + _ALIGN > np.iinfo(np.intp).max:
        raise ValueError(
            f"n={n} needs a statevector of 2**{n + 1} float64 amplitudes "
            f"(2**{n + 4} bytes), more than numpy can index"
        )


def prepare_a(oracle: OracleSpec) -> Statevector:
    """Build the post-preparation state: uniform over the domain, flag set on good indices.

    Every domain index carries amplitude ``2**(-n/2)``; the flag qubit is 1
    exactly on the first ``oracle.good_count`` indices, so
    ``flag_probability`` equals ``oracle.a``.  Raises ``ValueError`` if
    numpy cannot index the state.
    """
    _check_state_size(oracle.n)
    size = oracle.domain_size
    amps = _aligned_empty(2 * size, np.float64)
    amps.fill(0.0)
    positions = np.arange(size, dtype=np.intp) << 1
    positions[:oracle.good_count] |= 1
    amps[positions] = 1.0 / math.sqrt(size)
    return Statevector(oracle.n, amps)


@lru_cache(maxsize=4)
def _prepared_amps(oracle: OracleSpec) -> np.ndarray:
    """Read-only amplitudes of ``prepare_a(oracle)``: the iterate's reflection axis.

    A handful of oracles at most are live at once; each entry holds
    ``2**(n+1)`` float64 amplitudes (1 MiB at n = 16, 16 MiB at n = 20).
    """
    amps = prepare_a(oracle).amps
    amps.flags.writeable = False
    return amps


def apply_s_chi(state: Statevector) -> Statevector:
    """Negate every flag-1 amplitude, in place."""
    state.amps[1::2] *= -1.0
    return state


def apply_q(state: Statevector, oracle: OracleSpec) -> Statevector:
    """One amplification iterate ``Q = A S_0 A^dagger S_chi``, in place.

    With ``psi = A|0>`` the prepared state, the reflection about it is
    ``A S_0 A^dagger = I - 2|psi><psi|``.  So after the flag-phase flip the
    iterate is one rank-one update: ``amps -= 2 <psi|amps> psi``.
    """
    apply_s_chi(state)
    psi = _prepared_amps(oracle)
    coef = 2.0 * np.vdot(psi, state.amps)
    # slice by slice: a state-sized temporary (1 MiB at n = 16) lands on fresh
    # pages whenever the allocator has just trimmed its heap, one page fault
    # per 4 KiB; the arithmetic per amplitude is the same either way
    amps = state.amps
    for start in range(0, amps.size, _AXPY_SLICE):
        stop = start + _AXPY_SLICE
        amps[start:stop] -= coef * psi[start:stop]
    return state


def apply_q_power(state: Statevector, oracle: OracleSpec, m: int) -> Statevector:
    """Apply the amplification iterate ``m`` times (``m = 0`` is a no-op)."""
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    for _ in range(m):
        apply_q(state, oracle)
    return state


def flag_probability(state: Statevector) -> float:
    """Probability of reading 1 on the flag qubit."""
    odd = state.amps[1::2]
    return float(np.real(np.vdot(odd, odd)))


def analytic_flag_probability(oracle: OracleSpec, m: int) -> float:
    """Closed-form flag-1 probability after ``m`` iterates: ``sin^2((2m+1) theta)``."""
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    return math.sin((2 * m + 1) * oracle.theta) ** 2


class Backend:
    """Source of the flag-1 probability for a given oracle and iterate power."""

    name = "abstract"

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        raise NotImplementedError

    def check_oracle(self, oracle: OracleSpec) -> None:
        """Raise ``ValueError`` if this backend cannot run ``oracle``; the
        default accepts every oracle."""


class StatevectorBackend(Backend):
    """Runs the full register simulation and reads the probability off the state.

    Each instance memoizes the probability per ``(oracle, m)`` and keeps the
    most recent ``(oracle, m, amps)`` state: a higher power of the same
    oracle advances from it, anything else restarts from the prepared state.
    Both paths apply the same sequence of iterates to the same start, so the
    memo returns exactly what a fresh simulation would.  Stored arrays are
    read-only.
    """

    name = "sv"

    def __init__(self) -> None:
        self._probabilities: dict[tuple[OracleSpec, int], float] = {}
        self._last: tuple[OracleSpec, int, np.ndarray] | None = None

    def check_oracle(self, oracle: OracleSpec) -> None:
        """Reject an oracle whose statevector numpy cannot index."""
        _check_state_size(oracle.n)

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        p = self._probabilities.get((oracle, m))
        if p is not None:
            return p
        last = self._last
        if last is not None and last[0] == oracle and last[1] <= m:
            done, amps = last[1], last[2]
        else:
            done, amps = 0, _prepared_amps(oracle)
        state = apply_q_power(Statevector(oracle.n, _aligned_copy(amps)), oracle, m - done)
        state.amps.flags.writeable = False
        self._last = (oracle, m, state.amps)
        p = flag_probability(state)
        self._probabilities[(oracle, m)] = p
        return p


class AnalyticBackend(Backend):
    """Uses the rotation closed form directly; no state is materialized."""

    name = "analytic"

    def flag_probability(self, oracle: OracleSpec, m: int) -> float:
        return analytic_flag_probability(oracle, m)


#: every backend, by the name that configs, sweep files and ``--backend`` use
BACKENDS: dict[str, type[Backend]] = {
    cls.name: cls for cls in (AnalyticBackend, StatevectorBackend)
}


def make_backend(name: str) -> Backend:
    """A new instance of the backend registered as ``name`` in :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected one of {list(BACKENDS)}")
    return BACKENDS[name]()


def check_shots(shots: int) -> None:
    """Reject a non-positive shot count."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")


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
    p = backend.flag_probability(oracle, m)
    p = min(1.0, max(0.0, p))
    return int(rng.binomial(shots, p))
