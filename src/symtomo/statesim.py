"""Density-matrix simulation of small circuits with configurable noise.

The simulator is deliberately small: H / RY / RZ / CNOT gates, three
single-qubit Kraus channels (amplitude damping, bit flip, depolarizing), and
two noise insertion policies.  Circuit builders produce the entangled-state
families used throughout the package -- phase-tagged GHZ states, their
Hadamard-transformed ("twisted") relatives, and circuit or closed-form
mixtures of a singlet with white noise (Werner states).

Every gate and Kraus operator acts on its own qubits: rho is conjugated by
the gate's own 2 x 2 or 4 x 4 matrix, or by each single-qubit Kraus operator,
through one tensor contraction on those qubits (``operators._on_qubits``), so
no 2^n x 2^n operator is formed to apply it.  ``gate_unitary`` builds the
full unitary only for callers that ask for it.

Each preparation rule is written once, here: ``_check_channel`` refuses an
unknown channel or an out-of-range level for ``NoiseModel`` and for every
function that applies a channel, and ``_check_family`` holds the qubit
counts the Werner families can prepare, for the command line and the sweep
config alike.  The identity channel (``none``, or level 0) leaves a state
untouched.

Noise policies
--------------
``"post"``     apply the channel once to every qubit after the final gate.
``"pergate"``  apply the channel to every qubit touched by a gate, right
               after that gate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .operators import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_number,
    _on_qubits,
    as_matrix,
    basis_ket,
    num_qubits,
    partial_trace,
    projector,
)

KRAUS_COMPLETENESS_ATOL = 1e-12

CHANNEL_NONE = "none"
CHANNEL_AMPLITUDE_DAMPING = "amplitude_damping"
CHANNEL_BIT_FLIP = "bit_flip"
CHANNEL_DEPOLARIZING = "depolarizing"
# Alias: the Pauli-twirl form (1-q) rho + (q/3)(X rho X + Y rho Y + Z rho Z)
# equals the replacement form at level p = 4q/3, so it is accepted as a
# reparametrized spelling of the same channel (valid for q <= 3/4).
CHANNEL_DEPOLARIZING_PAULI = "depolarizing_pauli"
CHANNELS = (
    CHANNEL_NONE,
    CHANNEL_AMPLITUDE_DAMPING,
    CHANNEL_BIT_FLIP,
    CHANNEL_DEPOLARIZING,
    CHANNEL_DEPOLARIZING_PAULI,
)

POLICY_POST = "post"
POLICY_PER_GATE = "pergate"


def _check_channel(channel: str, level: float) -> None:
    """Refuse an unknown channel, a level that is not a finite real, or one outside the channel's range.

    The level of ``none`` must be a finite real too, but may take any value.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    _check_number("noise level", level, numbers.Real)
    hi = 0.75 if channel == CHANNEL_DEPOLARIZING_PAULI else 1.0
    if channel != CHANNEL_NONE and not 0.0 <= level <= hi:
        raise ValueError(f"noise level {level} outside [0, {hi}]")


def _check_family(family: str, n_qubits: int, p2: float | None) -> None:
    """Refuse a qubit count the Werner families cannot prepare.

    ``family`` is spelled as in a sweep config (``werner_exact``) or on the
    command line (``werner-exact``); other families take any count.
    """
    family = family.replace("-", "_")
    if family == "werner" and n_qubits != 2:
        raise ValueError("the werner circuit family prepares a two-qubit state")
    if family == "werner_exact" and n_qubits != 4 and (n_qubits, p2) != (2, None):
        raise ValueError("the werner_exact family prepares one pair (2 qubits, no p2) "
                         "or two pairs (4 qubits, p2 sets the second)")


@dataclass(frozen=True)
class Gate:
    kind: str              # "h" | "ry" | "rz" | "cnot"
    qubit: int             # target qubit
    theta: float | None = None
    control: int | None = None

    def __post_init__(self):
        if self.kind in ("ry", "rz"):
            _check_number("theta", self.theta, numbers.Real)

    @classmethod
    def h(cls, qubit: int) -> "Gate":
        return cls("h", qubit)

    @classmethod
    def ry(cls, theta: float, qubit: int) -> "Gate":
        return cls("ry", qubit, theta=float(theta))

    @classmethod
    def rz(cls, theta: float, qubit: int) -> "Gate":
        return cls("rz", qubit, theta=float(theta))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        if control == target:
            raise ValueError("cnot control and target must differ")
        return cls("cnot", target, control=control)

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.kind == "cnot":
            return (self.control, self.qubit)
        return (self.qubit,)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate {g} out of range for {self.n_qubits} qubits")


@dataclass(frozen=True)
class NoiseModel:
    channel: str = CHANNEL_NONE
    level: float = 0.0
    policy: str = POLICY_POST

    def __post_init__(self):
        _check_channel(self.channel, self.level)
        if self.policy not in (POLICY_POST, POLICY_PER_GATE):
            raise ValueError(f"unknown noise policy {self.policy!r}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls()


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's own 2 x 2 matrix, or 4 x 4 on (control, target) for a CNOT."""
    if gate.kind == "h":
        return HADAMARD
    if gate.kind == "ry":
        half = gate.theta / 2.0
        return np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]], dtype=complex)
    if gate.kind == "rz":
        half = gate.theta / 2.0
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=complex)
    if gate.kind == "cnot":
        return _CNOT
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for a gate acting on an n-qubit register."""
    return _on_qubits(np.eye(2**n_qubits, dtype=complex), _gate_matrix(gate), gate.qubits)


def _conjugate(rho: np.ndarray, op: np.ndarray, qubits) -> np.ndarray:
    """op rho op^dag with ``op`` acting on ``qubits``: op rho, then (conj(op) (op rho)^T)^T."""
    left = _on_qubits(rho, op, qubits)
    return _on_qubits(left.T, op.conj(), qubits).T


def kraus_operators(channel: str, level: float) -> list[np.ndarray]:
    """Single-qubit Kraus set for a named channel at the given level.

    An unknown channel, or a level outside the channel's range (NaN
    included), raises ``ValueError`` in ``NoiseModel``'s wording, so no noise
    path returns a NaN set.  Every returned set satisfies
    sum_k K_k^dag K_k = 1 exactly (within floating-point roundoff), which
    ``apply_channel`` relies on to preserve the trace.
    """
    _check_channel(channel, level)
    if channel == CHANNEL_NONE or level == 0.0:
        return [PAULI_I.copy()]
    if channel == CHANNEL_AMPLITUDE_DAMPING:
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - level)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(level)], [0.0, 0.0]], dtype=complex)
        return [k0, k1]
    if channel == CHANNEL_BIT_FLIP:
        return [np.sqrt(1.0 - level) * PAULI_I, np.sqrt(level) * PAULI_X]
    if channel == CHANNEL_DEPOLARIZING_PAULI:
        level = 4.0 * level / 3.0  # reparametrize to the replacement form
    # depolarizing, replacement form: rho -> (1-p) rho + p * (1/2) tr_qubit(rho)
    return [
        np.sqrt(1.0 - 0.75 * level) * PAULI_I,
        np.sqrt(level / 4.0) * PAULI_X,
        np.sqrt(level / 4.0) * PAULI_Y,
        np.sqrt(level / 4.0) * PAULI_Z,
    ]


def apply_channel(rho, channel: str, level: float, qubit: int) -> np.ndarray:
    """Apply a single-qubit channel to one qubit of a register state."""
    rho = as_matrix(rho)
    out = np.zeros_like(rho)
    for k in kraus_operators(channel, level):
        out += _conjugate(rho, k, (qubit,))
    return out


def apply_channel_to_all(rho, channel: str, level: float) -> np.ndarray:
    """Apply a single-qubit channel to every qubit of a register state, qubit 0 first.

    The identity channel (``none``, or level 0) returns ``rho`` untouched.
    """
    _check_channel(channel, level)
    rho = as_matrix(rho)
    if channel == CHANNEL_NONE or level == 0.0:
        return rho
    for q in range(num_qubits(rho.shape[0])):
        rho = apply_channel(rho, channel, level, q)
    return rho


def run_circuit(circuit: Circuit, noise: NoiseModel = NoiseModel.none()) -> np.ndarray:
    """Evolve |0...0><0...0| through the circuit under the noise model."""
    n = circuit.n_qubits
    rho = projector(basis_ket("0" * n))
    for gate in circuit.gates:
        rho = _conjugate(rho, _gate_matrix(gate), gate.qubits)
        if noise.policy == POLICY_PER_GATE and noise.channel != CHANNEL_NONE:
            for q in gate.qubits:
                rho = apply_channel(rho, noise.channel, noise.level, q)
    if noise.policy == POLICY_POST:
        rho = apply_channel_to_all(rho, noise.channel, noise.level)
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# State families
# ---------------------------------------------------------------------------

def ghz_state(n_qubits: int, theta: float = 0.0) -> np.ndarray:
    """(|0...0> + e^{i theta} |1...1>) / sqrt(2) as a state vector."""
    _check_number("n_qubits", n_qubits, low=1)
    _check_number("theta", theta, numbers.Real)
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[0] = 1.0 / np.sqrt(2.0)
    vec[-1] = np.exp(1j * theta) / np.sqrt(2.0)
    return vec


def twisted_state(n_qubits: int, theta: float = 0.0) -> np.ndarray:
    """Hadamard transform of the phase-tagged GHZ state.

    Amplitudes are (1 + (-1)^{parity(x)} e^{i theta}) / sqrt(2^{n+1}); for
    theta = 0 on one qubit this reduces to |0>.
    """
    _check_number("n_qubits", n_qubits, low=1)
    _check_number("theta", theta, numbers.Real)
    d = 2**n_qubits
    parity = np.array([bin(x).count("1") % 2 for x in range(d)])
    amps = (1.0 + (-1.0) ** parity * np.exp(1j * theta)) / np.sqrt(2.0 ** (n_qubits + 1))
    return amps.astype(complex)


def build_ghz_phase(n_qubits: int, theta: float = 0.0) -> Circuit:
    """Hadamard + phase rotation on qubit 0, then a CNOT chain.

    The circuit output matches ``ghz_state(n_qubits, theta)`` exactly up to a
    global phase (the RZ convention contributes e^{-i theta/2} overall, which
    is invisible at the density-matrix level).
    """
    gates = [Gate.h(0), Gate.rz(theta, 0)]
    gates += [Gate.cnot(q, q + 1) for q in range(n_qubits - 1)]
    return Circuit(n_qubits, tuple(gates))


def build_twisted(n_qubits: int, theta: float = 0.0) -> Circuit:
    """GHZ-phase circuit followed by a Hadamard on every qubit."""
    base = build_ghz_phase(n_qubits, theta)
    gates = base.gates + tuple(Gate.h(q) for q in range(n_qubits))
    return Circuit(n_qubits, gates)


def singlet_state() -> np.ndarray:
    """(|01> - |10>) / sqrt(2)."""
    return (basis_ket("01") - basis_ket("10")) / np.sqrt(2.0)


def werner_exact(p: float, n_pairs: int = 1, p2: float | None = None) -> np.ndarray:
    """Closed-form Werner state(s): (1-p)/4 * 1 + p |s><s| with s the singlet.

    With ``n_pairs=2`` the result is the tensor product of two such states,
    the second at level ``p2`` (defaults to ``p``).
    """
    if not -1.0 / 3.0 <= p <= 1.0:
        raise ValueError(f"werner parameter {p} outside [-1/3, 1]")
    one = (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p * projector(singlet_state())
    if n_pairs == 1:
        return one
    if n_pairs == 2:
        q = p if p2 is None else p2
        return np.kron(one, werner_exact(q))
    raise ValueError("n_pairs must be 1 or 2")


def build_werner_pair(theta_a: float, theta_b: float) -> Circuit:
    """Four-qubit circuit whose (qubit 0, qubit 1) marginal is a Werner state.

    Qubits 2 and 3 are ancillas; entangling them with the signal pair and
    discarding them produces the mixture.  The angles steer the mixing
    weight; (0, pi) yields the pure singlet.
    """
    gates = (
        Gate.ry(theta_a, 0),
        Gate.cnot(0, 1),
        Gate.ry(theta_b, 0),
        Gate.ry(theta_b, 1),
        Gate.cnot(0, 2),
        Gate.cnot(1, 3),
        Gate.h(0),
        Gate.cnot(0, 1),
    )
    return Circuit(4, gates)


def run_werner_pair(theta_a: float, theta_b: float, noise: NoiseModel = NoiseModel.none()) -> np.ndarray:
    """Run the Werner-pair circuit and trace out the two ancilla qubits."""
    rho = run_circuit(build_werner_pair(theta_a, theta_b), noise)
    reduced = partial_trace(rho, (0, 1))
    return 0.5 * (reduced + reduced.conj().T)


def werner_weight(rho_pair) -> float:
    """Best-fit mixing weight p of a two-qubit state against the Werner form."""
    rho_pair = as_matrix(rho_pair)
    if rho_pair.shape != (4, 4):
        raise ValueError("werner_weight expects a two-qubit state")
    overlap = float(np.real(singlet_state().conj() @ rho_pair @ singlet_state()))
    return (4.0 * overlap - 1.0) / 3.0
