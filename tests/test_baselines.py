import numpy as np
import pytest

from nessim.baselines import max_policy, random_policy
from nessim.env import EnvAction, decode_action


class TestMaxPolicy:
    @pytest.mark.parametrize("s, expected", [(1, 8), (2, 80), (3, 728)])
    def test_index(self, s, expected):
        assert max_policy(s).index == expected

    def test_all_deltas_maximal(self):
        for s in (1, 2, 3):
            deltas = decode_action(max_policy(s), s)
            assert deltas.tolist() == [[1.0, 5.0]] * s

    def test_constant(self):
        assert max_policy(3) == max_policy(3)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            max_policy(0)


class TestRandomPolicy:
    def test_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(9)
        n = 100_000
        for _ in range(n):
            counts[random_policy(1, rng).index] += 1
        assert np.all(np.abs(counts / n - 1 / 9) < 0.02 / 9 + 0.003)

    def test_range(self):
        rng = np.random.default_rng(1)
        assert all(random_policy(1, rng).index < 9 for _ in range(1000))

    def test_seed_reproducible(self):
        a = [random_policy(2, np.random.default_rng(7)).index for _ in range(1)]
        b = [random_policy(2, np.random.default_rng(7)).index for _ in range(1)]
        seq1 = [random_policy(2, np.random.default_rng(3)).index for _ in range(20)]
        seq2 = [random_policy(2, np.random.default_rng(3)).index for _ in range(20)]
        assert a == b and seq1 == seq2
