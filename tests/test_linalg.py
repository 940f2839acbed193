import numpy as np

from saddlelab.linalg import SeededRng


def test_distinct_streams_differ():
    a = SeededRng(42, 0).normal(size=32)
    b = SeededRng(42, 1).normal(size=32)
    assert not np.array_equal(a, b)


def test_pinned_philox_vectors():
    # frozen regression vectors; a numpy upgrade that breaks bit-stream
    # stability would trip these
    v = SeededRng(12345, 7).normal(size=4)
    assert v.tolist() == [
        -0.16609734794103043,
        1.0505799526112878,
        1.0975804094733415,
        -0.3901168994783908,
    ]
    assert SeededRng(0, 0).normal(size=3).tolist() == [
        0.15929546600623282,
        -1.7741885208017214,
        1.3265118818830892,
    ]
    assert SeededRng(1, 2).permutation(6).tolist() == [5, 0, 4, 2, 3, 1]


def test_rng_state_roundtrip_resumes_stream():
    rng = SeededRng(99, 3)
    rng.normal(size=10)
    state = rng.get_state()
    expected = rng.normal(size=10)
    resumed = SeededRng.from_state(state)
    assert np.array_equal(resumed.normal(size=10), expected)


def test_child_streams_are_deterministic_and_distinct():
    a = SeededRng(7).child("batches")
    b = SeededRng(7).child("batches")
    c = SeededRng(7).child("noise")
    assert np.array_equal(a.normal(size=8), b.normal(size=8))
    assert not np.array_equal(SeededRng(7).child("batches").normal(size=8),
                              c.normal(size=8))
