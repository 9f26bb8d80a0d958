"""Unit tests for the named random-stream factory."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams, Stream


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.exponential(1) for _ in range(5)] == [
            b.exponential(1) for _ in range(5)
        ]

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        xs = [streams.stream("x").exponential(1) for _ in range(5)]
        ys = [streams.stream("y").exponential(1) for _ in range(5)]
        assert xs != ys

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(3)
        s1.stream("a")
        x1 = s1.stream("b").exponential(1)

        s2 = RandomStreams(3)
        x2 = s2.stream("b").exponential(1)  # no "a" created first
        assert x1 == x2

    def test_bulk_streams(self):
        streams = RandomStreams(0).streams(["a", "b"])
        assert set(streams) == {"a", "b"}
        assert all(isinstance(s, Stream) for s in streams.values())


class TestStreamDraws:
    def test_exponential_mean(self):
        stream = RandomStreams(42).stream("exp")
        draws = [stream.exponential(3.0) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(3.0, rel=0.05)

    def test_exponential_zero_mean_is_zero(self):
        stream = RandomStreams(0).stream("z")
        assert stream.exponential(0) == 0.0

    def test_exponential_negative_mean_rejected(self):
        stream = RandomStreams(0).stream("n")
        with pytest.raises(ValueError):
            stream.exponential(-1)

    def test_uniform_bounds(self):
        stream = RandomStreams(1).stream("u")
        draws = [stream.uniform(2, 5) for _ in range(1000)]
        assert all(2 <= d < 5 for d in draws)

    def test_integer_bounds(self):
        stream = RandomStreams(1).stream("i")
        draws = [stream.integer(0, 3) for _ in range(300)]
        assert set(draws) == {0, 1, 2}

    def test_choice_uniformity(self):
        stream = RandomStreams(9).stream("c")
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(3000):
            counts[stream.choice(["a", "b", "c"])] += 1
        for v in counts.values():
            assert v == pytest.approx(1000, rel=0.15)

    def test_choice_empty_rejected(self):
        stream = RandomStreams(0).stream("e")
        with pytest.raises(ValueError):
            stream.choice([])

    def test_geometric_at_least_one_floor(self):
        stream = RandomStreams(5).stream("g")
        draws = [stream.geometric_at_least_one(0.01) for _ in range(100)]
        assert all(d >= 1 for d in draws)

    def test_geometric_at_least_one_mean_preserved(self):
        stream = RandomStreams(5).stream("g2")
        draws = [stream.geometric_at_least_one(8.0) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(8.0, rel=0.05)

    def test_shuffle_permutes_in_place(self):
        stream = RandomStreams(11).stream("s")
        items = list(range(20))
        original = list(items)
        stream.shuffle(items)
        assert sorted(items) == original
        assert items != original  # vanishingly unlikely to be identity


# -- the buffered exponential path against an unbuffered reference -----------

def _reference_exponential(ref, mean):
    """What ``Stream.exponential`` must return for a plain Generator."""
    if mean < 0:
        raise ValueError(mean)
    return 0.0 if mean == 0 else float(ref.exponential(mean))


#: Public ``Stream`` method -> (argument strategy, reference draw).
_REFERENCE = {
    "exponential": (
        st.sampled_from([0.0, -1.0, 0.37, 1.0, 6.0, 1e-3]),
        _reference_exponential,
    ),
    "uniform": (
        st.sampled_from([(0.0, 1.0), (2.0, 5.0), (-3.0, -1.0)]),
        lambda ref, a: float(ref.uniform(*a)),
    ),
    "integer": (
        st.sampled_from([(0, 3), (5, 6), (-10, 10)]),
        lambda ref, a: int(ref.integers(*a)),
    ),
    "choice": (
        st.sampled_from([(), ("a",), ("a", "b", "c")]),
        lambda ref, seq: _reference_choice(ref, seq),
    ),
    "shuffle": (
        st.integers(0, 12),
        lambda ref, n: _reference_shuffle(ref, n),
    ),
    "poisson_count": (
        st.sampled_from([0.0, 0.5, 4.0]),
        lambda ref, mean: int(ref.poisson(mean)),
    ),
    "geometric_at_least_one": (
        st.sampled_from([0.0, 0.01, 6.0, 8.0]),
        lambda ref, mean: max(
            1, int(round(_reference_exponential(ref, mean)))
        ),
    ),
}


def _reference_choice(ref, seq):
    if len(seq) == 0:
        raise ValueError("empty")
    return seq[int(ref.integers(0, len(seq)))]


def _reference_shuffle(ref, n):
    items = list(range(n))
    ref.shuffle(items)
    return items


def _stream_call(stream, method, arg):
    if method in ("uniform", "integer"):
        return getattr(stream, method)(*arg)
    if method == "shuffle":
        items = list(range(arg))
        stream.shuffle(items)
        return items
    return getattr(stream, method)(arg)


_STEP = st.one_of(
    *(
        st.tuples(st.just(name), args, st.integers(1, 70))
        for name, (args, _) in sorted(_REFERENCE.items())
    ),
    st.tuples(st.just("pickle"), st.none(), st.just(1)),
)


class TestBufferedStreamEqualsReference:
    """Any interleaving of draws equals a plain numpy Generator's."""

    def test_reference_covers_every_public_method(self):
        public = {
            name
            for name, attr in vars(Stream).items()
            if not name.startswith("_") and callable(attr)
        }
        assert public == set(_REFERENCE)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(_STEP, min_size=1, max_size=30),
    )
    def test_any_interleaving_matches(self, seed, steps):
        stream = Stream("s", np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        for method, arg, repeat in steps:
            if method == "pickle":
                stream = pickle.loads(pickle.dumps(stream))
                continue
            reference = _REFERENCE[method][1]
            for _ in range(repeat):
                try:
                    expected = reference(ref, arg)
                except ValueError:
                    with pytest.raises(ValueError):
                        _stream_call(stream, method, arg)
                    continue
                got = _stream_call(stream, method, arg)
                assert got == expected
                assert type(got) is type(expected)
        # Both generators end in the same place, whatever was buffered.
        assert stream.uniform() == float(ref.uniform())

    def test_pickle_mid_buffer_continues_the_sequence(self):
        stream = RandomStreams(3).stream("p")
        ref = RandomStreams(3).stream("p")
        head = [stream.exponential(1.0) for _ in range(10)]
        clone = pickle.loads(pickle.dumps(stream))
        assert head == [ref.exponential(1.0) for _ in range(10)]
        tail = [ref.exponential(1.0) for _ in range(100)]
        assert [clone.exponential(1.0) for _ in range(100)] == tail
        assert [stream.exponential(1.0) for _ in range(100)] == tail

    def test_zero_and_negative_means_consume_nothing(self):
        stream = RandomStreams(4).stream("z")
        ref = np.random.default_rng(np.random.SeedSequence([4, zlib.crc32(b"z")]))
        stream.exponential(1.0)
        ref.exponential(1.0)
        assert stream.exponential(0) == 0.0
        with pytest.raises(ValueError):
            stream.exponential(-0.5)
        assert stream.integer(0, 1000) == int(ref.integers(0, 1000))
        assert stream.exponential(2.0) == float(ref.exponential(2.0))
