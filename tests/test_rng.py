"""Portable RNG: reference-sequence agreement, determinism, stream state."""

import math

import numpy as np
import pytest

from denscore.rng import PortableRng, derive_seed

from oracles import splitmix64_stream


class TestRawStream:
    def test_matches_pure_python_reference(self):
        for seed in (0, 1, 42, 2**64 - 1, 123456789):
            expected = splitmix64_stream(seed, 50)
            got = PortableRng(seed).raw(50)
            assert [int(v) for v in got] == expected, f"seed {seed} diverges"

    def test_stream_continues_across_calls(self):
        rng = PortableRng(7)
        combined = np.concatenate([rng.raw(13), rng.raw(7), rng.raw(30)])
        again = PortableRng(7).raw(50)
        assert np.array_equal(combined, again)

    def test_distinct_seeds_distinct_streams(self):
        a = PortableRng(1).raw(100)
        b = PortableRng(2).raw(100)
        assert not np.array_equal(a, b)


class TestDeviates:
    def test_uniforms_in_half_open_unit_interval(self):
        u = PortableRng(3).uniforms(10000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_uniforms_mean_near_half(self):
        u = PortableRng(5).uniforms(200000)
        assert abs(u.mean() - 0.5) < 2e-3

    def test_uniform_value_construction(self):
        # (top 53 bits + 1) * 2^-53, checked against the raw stream
        raw = splitmix64_stream(11, 4)
        u = PortableRng(11).uniforms(4)
        expected = [((r >> 11) + 1) * 2.0**-53 for r in raw]
        assert u.tolist() == expected

    def test_normals_match_box_muller_reference(self):
        raw = splitmix64_stream(21, 8)
        u = [((r >> 11) + 1) * 2.0**-53 for r in raw]
        # pairs are (u1, u2) with all u1 drawn first, then all u2
        expected = []
        for u1, u2 in zip(u[:4], u[4:]):
            radius = math.sqrt(-2.0 * math.log(u1))
            expected.append(radius * math.cos(2.0 * math.pi * u2))
            expected.append(radius * math.sin(2.0 * math.pi * u2))
        got = PortableRng(21).normals(8)
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_normals_odd_count_and_moments(self):
        z = PortableRng(9).normals(100001)
        assert z.shape == (100001,)
        assert abs(z.mean()) < 1e-2
        assert abs(z.std() - 1.0) < 1e-2

    def test_permutation_is_a_permutation(self):
        p = PortableRng(13).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PortableRng(0).raw(-1)
        with pytest.raises(ValueError):
            PortableRng(0).normals(-2)


class TestDerivedStreams:
    def test_derive_seed_matches_stream_step(self):
        # mix64(x) is the first output of the stream seeded at x - golden, so
        # derive_seed = mix64(seed ^ mix64(key + 1)) (both mod 2**64) is
        # pinned to the pure-Python reference
        def mix64(x):
            return splitmix64_stream((x - 0x9E3779B97F4A7C15) % 2**64, 1)[0]

        for seed, key in [(99, 0), (5, 3), (0, 2**64 - 1), (2**64 - 1, 7),
                          (-1, 3), (-(2**63), -2), (123456789, 2**63)]:
            assert derive_seed(seed, key) == mix64(seed % 2**64 ^ mix64(key + 1))

    def test_derive_seed_stable(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(5, 4)
        assert derive_seed(5, 3) != derive_seed(6, 3)


class TestSeedConversion:
    @pytest.mark.parametrize("seed", [2.7, 2.0, True, "2", None])
    def test_non_integer_seed_names_the_argument(self, seed):
        # a bare int() would replay seed 2 for 2.7 and seed 1 for True
        with pytest.raises(TypeError, match="seed must be an integer"):
            PortableRng(seed)
        with pytest.raises(TypeError, match="seed must be an integer"):
            derive_seed(seed, 3)

    @pytest.mark.parametrize("key", [1.9, True])
    def test_non_integer_key_names_the_argument(self, key):
        with pytest.raises(TypeError, match="key must be an integer"):
            derive_seed(1, key)

    def test_numpy_and_negative_integers_keep_their_streams(self):
        assert np.array_equal(PortableRng(np.int64(7)).raw(5), PortableRng(7).raw(5))
        assert np.array_equal(PortableRng(-1).raw(5), PortableRng(2**64 - 1).raw(5))
        assert derive_seed(np.int64(5), np.int64(3)) == derive_seed(5, 3)
        assert derive_seed(-1, 3) == derive_seed(2**64 - 1, 3)
