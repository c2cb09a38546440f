import random

from moorelimit import kernels

from oracle import naive_enumerate


def test_backend_is_reported():
    assert kernels.BACKEND == "python"
    assert callable(kernels.consistent_machine_encodings)


def test_known_counts_python_backend():
    # trace 0,1 over a binary output alphabet, single input
    assert len(kernels.consistent_machine_encodings(2, 1, 2, (0,), (0, 1))) == 2
    assert len(kernels.consistent_machine_encodings(1, 1, 2, (0,), (0, 1))) == 0
    assert len(kernels.consistent_machine_encodings(3, 1, 2, (0,), (0, 1))) == 5


def test_encoding_shape():
    encodings = kernels.consistent_machine_encodings(2, 1, 2, (0,), (0, 1))
    for enc in encodings:
        m = enc[0]
        assert len(enc) == 1 + m * 1 + m  # header + flattened delta + outputs
        assert all(0 <= t < m for t in enc[1 : 1 + m])
        assert all(0 <= o < 2 for o in enc[1 + m :])


def test_counts_match_oracle_on_random_instances():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 3)
        ni = rng.randint(1, 2) if n < 3 else 1  # the oracle takes seconds at N=3 with two inputs
        no = rng.randint(1, 3)
        length = rng.randint(1, 5)
        outs = tuple(rng.randrange(no) for _ in range(length))
        ins = tuple(rng.randrange(ni) for _ in range(length - 1))
        encodings = kernels.consistent_machine_encodings(n, ni, no, ins, outs)
        assert all(a < b for a, b in zip(encodings, encodings[1:]))  # sorted, no duplicates
        reps = naive_enumerate(ins, outs, n, ni, no)
        for bound in range(1, n + 1):
            assert sum(enc[0] <= bound for enc in encodings) == sum(
                rep[0] <= bound for rep in reps
            )
