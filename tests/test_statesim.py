import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo.operators import PAULI_I, PAULI_X, basis_ket, embed_one_qubit, partial_trace, pauli_string, projector
from symtomo import statesim
from symtomo.statesim import (
    CHANNELS,
    KRAUS_COMPLETENESS_ATOL,
    Circuit,
    Gate,
    NoiseModel,
    apply_channel,
    apply_channel_to_all,
    build_ghz_phase,
    build_twisted,
    build_werner_pair,
    gate_unitary,
    ghz_state,
    kraus_operators,
    run_circuit,
    run_werner_pair,
    singlet_state,
    twisted_state,
    werner_exact,
    werner_weight,
)


def test_gate_unitaries_basic_actions():
    h = gate_unitary(Gate.h(0), 1)
    assert np.allclose(h @ h, np.eye(2))
    assert np.allclose(h @ basis_ket("0"), np.array([1, 1]) / np.sqrt(2))

    rz = gate_unitary(Gate.rz(np.pi / 3, 0), 1)
    assert np.allclose(rz, np.diag([np.exp(-1j * np.pi / 6), np.exp(1j * np.pi / 6)]))

    ry = gate_unitary(Gate.ry(np.pi / 2, 0), 1)
    assert np.allclose(ry @ basis_ket("0"), np.array([1, 1]) / np.sqrt(2))

    cx = gate_unitary(Gate.cnot(0, 1), 2)
    assert np.allclose(cx @ basis_ket("10"), basis_ket("11"))
    assert np.allclose(cx @ basis_ket("00"), basis_ket("00"))
    # control on the lower-index qubit as seen from either side
    cx_rev = gate_unitary(Gate.cnot(1, 0), 2)
    assert np.allclose(cx_rev @ basis_ket("01"), basis_ket("11"))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.cnot(1, 1)
    with pytest.raises(ValueError):
        Circuit(2, (Gate.h(5),))
    with pytest.raises(ValueError):
        NoiseModel(channel="fuzz", level=0.1)
    with pytest.raises(ValueError):
        NoiseModel(channel="bit_flip", level=1.5)
    with pytest.raises(ValueError):
        NoiseModel(channel="depolarizing_pauli", level=0.8)  # cap at 3/4
    # each of these failed late: a TypeError in Circuit or run_circuit, or numpy's duplicate-axes error
    for gate, message in [
        (lambda: Gate("cnot", 0), "control must be an integer, got None"),
        (lambda: Gate("cnot", 1, control=1), "cnot control and target must differ"),
        (lambda: Gate("cnot", 1, control=-1), "control must be >= 0, got -1"),
        (lambda: Gate("cnot", 1, control=0.0), "control must be an integer, got 0.0"),
        (lambda: Gate("h", 1.5), "qubit must be an integer, got 1.5"),
        (lambda: Gate("h", -1), "qubit must be >= 0, got -1"),
        (lambda: Gate.ry(0.3, True), "qubit must be an integer, got True"),
    ]:
        with pytest.raises(ValueError, match=message):
            gate()


def test_apply_channel_rejects_a_qubit_outside_the_register():
    # the qubit as given and the register's own count, not those of rho's 2n-axis vector view
    for n, qubit in [(2, 2), (3, -1), (3, 3)]:
        with pytest.raises(ValueError, match=f"^qubit {qubit} out of range for {n} qubits$"):
            apply_channel(np.eye(2**n) / 2**n, "bit_flip", 0.1, qubit)


def test_run_circuit_rejects_an_unknown_gate_kind():
    # refused where the gate is built, so no circuit can hold it
    with pytest.raises(ValueError, match="unknown gate kind 'swap'"):
        Gate("swap", 0)


def test_a_channel_on_every_qubit_keeps_no_accumulator():
    # one contraction holds rho, tensordot's reordered copy of it and the result: 3 d x d arrays, no accumulator
    rho = projector(ghz_state(9, 0.3))
    tracemalloc.start()
    try:
        apply_channel_to_all(rho, "depolarizing", 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rho.nbytes


@pytest.mark.parametrize("channel", [c for c in CHANNELS if c != "none"])
@pytest.mark.parametrize("level", [0.0, 0.05, 0.3, 0.75])
def test_kraus_completeness(channel, level):
    ops = kraus_operators(channel, level)
    acc = sum(k.conj().T @ k for k in ops)
    assert np.allclose(acc, np.eye(2), atol=KRAUS_COMPLETENESS_ATOL)


@settings(max_examples=120, deadline=None)
@given(
    channel=st.sampled_from(CHANNELS + ("bogus",)),
    level=st.one_of(st.sampled_from([np.nan, -0.1, 0.0, 0.75, 1.0, 1.5]), st.floats(-0.5, 1.5)),
)
def test_every_noise_path_keeps_the_one_channel_rule(channel, level):
    # NoiseModel, kraus_operators and both channel appliers all refuse, or all give finite results
    rho = projector(ghz_state(2))
    paths = [
        lambda: NoiseModel(channel, level),
        lambda: kraus_operators(channel, level),
        lambda: apply_channel(rho, channel, level, 1),
        lambda: apply_channel_to_all(rho, channel, level),
    ]
    outcomes = []
    for path in paths:
        try:
            outcomes.append(path())
        except ValueError:
            outcomes.append(None)
    refused = [o is None for o in outcomes]
    assert refused == [refused[0]] * 4
    if not refused[0]:
        assert all(np.isfinite(k).all() for k in outcomes[1])
        assert np.isfinite(outcomes[2]).all() and np.isfinite(outcomes[3]).all()


@pytest.mark.parametrize("channel, level", [("none", 0.3), ("bit_flip", 0.0), ("depolarizing", 0.0)])
def test_the_identity_channel_returns_its_input(channel, level):
    rho = werner_exact(0.4)
    assert apply_channel_to_all(rho, channel, level) is rho


def test_amplitude_damping_fixes_ground_state():
    rho = projector(basis_ket("0"))
    out = apply_channel(rho, "amplitude_damping", 0.37, 0)
    assert np.allclose(out, rho, atol=1e-12)
    # and decays the excited state toward it
    excited = projector(basis_ket("1"))
    out = apply_channel(excited, "amplitude_damping", 0.37, 0)
    assert np.isclose(out[0, 0].real, 0.37)
    assert np.isclose(out[1, 1].real, 0.63)


def test_depolarizing_replacement_form():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = apply_channel(rho, "depolarizing", 0.3, 0)
    assert np.allclose(out, 0.7 * rho + 0.3 * np.eye(2) / 2, atol=1e-12)


def test_depolarizing_pauli_alias_matches_replacement():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    q = 0.21
    twirl = apply_channel(rho, "depolarizing_pauli", q, 1)
    direct = apply_channel(rho, "depolarizing", 4.0 * q / 3.0, 1)
    assert np.allclose(twirl, direct, atol=1e-12)


def test_run_circuit_examples():
    # empty circuit leaves the register in |0...0>
    out = run_circuit(Circuit(1, ()))
    assert np.allclose(out, projector(basis_ket("0")))
    # single Hadamard gives |+>
    out = run_circuit(Circuit(1, (Gate.h(0),)))
    assert np.allclose(out, np.full((2, 2), 0.5))
    # full depolarizing noise wipes everything out
    out = run_circuit(
        Circuit(1, (Gate.h(0),)), NoiseModel(channel="depolarizing", level=1.0)
    )
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def each_qubit(rho, channel, level):
    for q in range(int(np.log2(len(rho)))):
        rho = apply_channel(rho, channel, level, q)
    return rho


@pytest.mark.parametrize("channel", CHANNELS)
def test_post_noise_is_the_channel_on_every_qubit(channel):
    circuit = build_ghz_phase(3, 0.4)
    rho = projector(basis_ket("000"))
    for gate in circuit.gates:
        u = gate_unitary(gate, 3)
        rho = u @ rho @ u.conj().T
    noisy = each_qubit(rho, channel, 0.3)
    assert np.array_equal(apply_channel_to_all(rho, channel, 0.3), noisy)
    if channel == "none":
        noisy = rho
    assert np.array_equal(run_circuit(circuit, NoiseModel(channel, 0.3)), 0.5 * (noisy + noisy.conj().T))


def test_noise_policies_differ():
    circ = build_ghz_phase(2, 0.7)
    noise_post = NoiseModel(channel="bit_flip", level=0.1, policy="post")
    noise_gate = NoiseModel(channel="bit_flip", level=0.1, policy="pergate")
    assert not np.allclose(run_circuit(circ, noise_post), run_circuit(circ, noise_gate))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
def test_ghz_amplitudes(n, theta):
    vec = ghz_state(n, theta)
    want = np.zeros(2**n, dtype=complex)
    want[0] = 1 / np.sqrt(2)
    want[-1] = np.exp(1j * theta) / np.sqrt(2)
    assert np.allclose(vec, want, atol=1e-12)
    # circuit builder prepares the same state
    rho = run_circuit(build_ghz_phase(n, theta))
    assert np.allclose(rho, projector(vec), atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 1.1, np.pi / 2])
def test_twisted_amplitudes(n, theta):
    vec = twisted_state(n, theta)
    d = 2**n
    want = np.zeros(d, dtype=complex)
    for x in range(d):
        parity = bin(x).count("1") % 2
        want[x] = (1 + (-1) ** parity * np.exp(1j * theta)) / np.sqrt(2 ** (n + 1))
    assert np.allclose(vec, want, atol=1e-12)
    rho = run_circuit(build_twisted(n, theta))
    assert np.allclose(rho, projector(vec), atol=1e-9)


def test_twisted_theta_zero_single_qubit_is_ground():
    assert np.allclose(twisted_state(1, 0.0), basis_ket("0"), atol=1e-12)
    # for larger registers theta = 0 lands on the uniform even-parity state
    vec = twisted_state(3, 0.0)
    for x in range(8):
        parity = bin(x).count("1") % 2
        assert np.isclose(vec[x], 0.0 if parity else 0.5, atol=1e-12)


def test_werner_exact_properties():
    singlet = projector(singlet_state())
    assert np.allclose(werner_exact(1.0), singlet, atol=1e-12)
    assert np.allclose(werner_exact(0.0), np.eye(4) / 4, atol=1e-12)
    w = werner_exact(0.51)
    assert np.isclose(np.trace(w).real, 1.0)
    assert np.isclose(werner_weight(w), 0.51)
    # collective-rotation invariance
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(a)
    u = np.kron(q, q)
    assert np.allclose(u @ w @ u.conj().T, w, atol=1e-10)
    with pytest.raises(ValueError):
        werner_exact(-0.5)


@pytest.mark.parametrize("args, message", [
    ((0.5, 1, 0.1), r"p2 \(the second pair's level\) needs n_pairs=2"),
    ((0.5, 3), "n_pairs must be 1 or 2"),
    (("0.5",), "werner parameter must be a number, got '0.5'"),
    ((float("nan"),), "werner parameter must be finite, got nan"),
    ((0.5, 2, "0.1"), "werner parameter must be a number, got '0.1'"),
], ids=["p2-on-one-pair", "three-pairs", "string-p", "nan-p", "string-p2"])
def test_werner_exact_refuses_what_it_cannot_prepare(args, message):
    # a p2 on one pair was ignored, and a string level raised TypeError
    with pytest.raises(ValueError, match=message):
        werner_exact(*args)


def test_werner_exact_two_pairs():
    w = werner_exact(0.76, n_pairs=2, p2=0.63)
    assert w.shape == (16, 16)
    assert np.allclose(w, np.kron(werner_exact(0.76), werner_exact(0.63)), atol=1e-12)


# angle pairs and the mixing weights they should produce (4-qubit circuit,
# two ancillas traced out)
WERNER_ANGLE_TABLE = [
    (1.00, 0.00, 3.14),
    (0.76, 0.33, 2.50),
    (0.40, 0.27, 2.00),
    (0.63, 0.34, 2.31),
    (0.81, 0.25, 2.60),
]


@pytest.mark.parametrize("p,theta_a,theta_b", WERNER_ANGLE_TABLE)
def test_werner_circuit_reproduces_tabulated_weights(p, theta_a, theta_b):
    rho = run_werner_pair(theta_a, theta_b)
    assert rho.shape == (4, 4)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
    p_hat = werner_weight(rho)
    assert abs(p_hat - p) <= 0.02
    # the reduced state is Werner-form up to the two-decimal angle rounding
    assert np.abs(rho - werner_exact(p_hat)).max() <= 0.01


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(policy="pergate"), NoiseModel("depolarizing", 0.05),
                                   NoiseModel("amplitude_damping", 0.1), NoiseModel("depolarizing", 0.05, "pergate"),
                                   NoiseModel("amplitude_damping", 0.1, "pergate")],
                         ids=lambda m: f"{m.channel}-{m.policy}")
def test_the_werner_pair_is_exactly_hermitian(noise):
    # run_circuit's Hermitian part stays exactly Hermitian through partial_trace, so no second symmetrization
    for theta_a in np.linspace(0.0, np.pi, 7):
        for theta_b in np.linspace(0.0, np.pi, 7):
            rho = run_werner_pair(theta_a, theta_b, noise)
            assert np.array_equal(rho, rho.conj().T)


def test_build_werner_pair_uses_four_qubits():
    circ = build_werner_pair(0.33, 2.50)
    assert circ.n_qubits == 4
    full = run_circuit(circ)
    reduced = partial_trace(full, keep=(0, 1))
    assert np.allclose(reduced, run_werner_pair(0.33, 2.50), atol=1e-12)


def test_ghz_circuit_with_noise_stays_physical():
    for channel in ("amplitude_damping", "bit_flip", "depolarizing"):
        rho = run_circuit(
            build_ghz_phase(3, 0.4), NoiseModel(channel=channel, level=0.2)
        )
        evals = np.linalg.eigvalsh(rho)
        assert evals[0] >= -1e-10
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)


def test_singlet_expectations():
    s = projector(singlet_state())
    for ops in ("XX", "YY", "ZZ"):
        assert np.isclose(np.trace(pauli_string(ops) @ s).real, -1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Dense reference: every operator built on the full register with np.kron
# ---------------------------------------------------------------------------

def dense_one(op, qubit, n):
    factors = [PAULI_I] * n
    factors[qubit] = op
    return reduce(np.kron, factors)


def dense_gate(gate, n):
    if gate.kind == "cnot":
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        term0, term1 = [PAULI_I] * n, [PAULI_I] * n
        term0[gate.control] = p0
        term1[gate.control] = p1
        term1[gate.qubit] = PAULI_X
        return reduce(np.kron, term0) + reduce(np.kron, term1)
    if gate.kind == "h":
        local = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    elif gate.kind == "ry":
        c, s = np.cos(gate.theta / 2.0), np.sin(gate.theta / 2.0)
        local = np.array([[c, -s], [s, c]])
    else:
        local = np.diag([np.exp(-0.5j * gate.theta), np.exp(0.5j * gate.theta)])
    return dense_one(local, gate.qubit, n)


def dense_channel(rho, channel, level, qubit):
    n = int(np.log2(len(rho)))
    out = np.zeros_like(rho)
    for k in kraus_operators(channel, level):
        full = dense_one(k, qubit, n)
        out += full @ rho @ full.conj().T
    return out


def dense_run(circuit, noise):
    n = circuit.n_qubits
    rho = projector(basis_ket("0" * n))
    noisy = noise.channel != "none"
    for gate in circuit.gates:
        u = dense_gate(gate, n)
        rho = u @ rho @ u.conj().T
        if noisy and noise.policy == "pergate":
            for q in gate.qubits:
                rho = dense_channel(rho, noise.channel, noise.level, q)
    if noisy and noise.policy == "post":
        for q in range(n):
            rho = dense_channel(rho, noise.channel, noise.level, q)
    return 0.5 * (rho + rho.conj().T)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 5))
    kinds = ["h", "ry", "rz"] + (["cnot"] if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "cnot":
            control, target = draw(st.permutations(range(n)))[:2]
            gates.append(Gate.cnot(control, target))
        else:
            qubit = draw(st.integers(0, n - 1))
            gates.append(Gate(kind, qubit) if kind == "h" else Gate(kind, qubit, theta=draw(st.floats(-7.0, 7.0))))
    return Circuit(n, tuple(gates))


@st.composite
def noise_models(draw):
    channel = draw(st.sampled_from(CHANNELS))
    level = draw(st.floats(0.0, 0.75 if channel == "depolarizing_pauli" else 1.0))
    return NoiseModel(channel, level, draw(st.sampled_from(["post", "pergate"])))


@settings(max_examples=60)
@given(circuit=circuits(), noise=noise_models(), seed=st.integers(0, 2**32 - 1))
def test_local_operators_match_the_dense_reference(circuit, noise, seed):
    n = circuit.n_qubits
    assert np.abs(run_circuit(circuit, noise) - dense_run(circuit, noise)).max() <= 1e-12
    for gate in circuit.gates:
        assert np.abs(gate_unitary(gate, n) - dense_gate(gate, n)).max() <= 1e-12
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    qubit = int(rng.integers(n))
    assert np.abs(embed_one_qubit(op, qubit, n) - dense_one(op, qubit, n)).max() <= 1e-12
    got = apply_channel(rho, noise.channel, noise.level, qubit)
    assert np.abs(got - dense_channel(rho, noise.channel, noise.level, qubit)).max() <= 1e-12


def test_a_cnot_permutes_entries_as_its_superoperator_does():
    rng = np.random.default_rng(61)
    for n in range(2, 6):
        a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        for control in range(n):
            for target in (q for q in range(n) if q != control):
                gate = Gate.cnot(control, target)
                want = statesim._evolve(a, statesim._superoperator([statesim._gate_matrix(gate)]), gate.qubits)
                u = dense_gate(gate, n)
                got = statesim._apply_cnot(a.copy(), control, target)
                assert np.array_equal(got, want)
                assert np.array_equal(got, u @ a @ u.T)  # U is a real permutation
                assert np.array_equal(np.sort_complex(got.ravel()), np.sort_complex(a.ravel()))


def test_circuits_apply_no_cnot_superoperator(monkeypatch):
    noises = [NoiseModel("depolarizing", 0.05, policy) for policy in ("post", "pergate")]
    want = [run_circuit(build_twisted(5, 0.3), noise) for noise in noises]
    evolve = statesim._evolve

    def refuse_two_qubit(rho, superop, qubits):
        assert len(qubits) == 1, f"contracted a superoperator on qubits {qubits}"
        return evolve(rho, superop, qubits)

    monkeypatch.setattr(statesim, "_evolve", refuse_two_qubit)
    got = [run_circuit(build_twisted(5, 0.3), noise) for noise in noises]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("family", [ghz_state, twisted_state])
def test_states_refuse_a_qubit_count_that_is_not_an_integer(family):
    with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.0"):
        family(2.0)


@pytest.mark.parametrize("family", [ghz_state, twisted_state])
def test_states_refuse_a_non_finite_phase(family):
    # it gave NaN amplitudes
    with pytest.raises(ValueError, match="theta must be finite, got inf"):
        family(2, float("inf"))


@pytest.mark.parametrize("gate", [lambda: Gate.ry(float("inf"), 0), lambda: Gate.rz(float("nan"), 0),
                                  lambda: Gate("rz", 0)], ids=["infinite-ry", "nan-rz", "no-angle"])
def test_rotation_gates_refuse_an_angle_that_is_not_a_finite_number(gate):
    with pytest.raises(ValueError, match="theta must be"):
        gate()


@pytest.mark.parametrize("channel, level, message", [
    ("depolarizing", "0.1", "noise level must be a number, got '0.1'"),
    ("depolarizing", True, "noise level must be a number, got True"),
    ("none", "abc", "noise level must be a number, got 'abc'"),
    ("none", None, "noise level must be a number, got None"),
    ("none", float("nan"), "noise level must be finite, got nan"),
    ("bit_flip", float("inf"), "noise level must be finite, got inf"),
    ("bit_flip", 1.5, r"noise level 1.5 outside \[0, 1.0\]"),
    ("depolarizing_pauli", 0.8, r"noise level 0.8 outside \[0, 0.75\]"),
])
def test_noise_model_refuses_a_level_that_is_not_a_real_in_range(channel, level, message):
    # a string level raised TypeError from a comparison; "none" took any object
    with pytest.raises(ValueError, match=message):
        NoiseModel(channel, level)


@pytest.mark.parametrize("channel, level", [("none", 0), ("none", 7.5), ("depolarizing", np.float32(0.1)),
                                            ("amplitude_damping", 1)])
def test_noise_model_takes_any_real_level_in_range(channel, level):
    assert NoiseModel(channel, level).level == level
