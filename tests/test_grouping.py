import numpy as np
import pytest

from objassoc.errors import InvalidConfigurationError, InvalidInputError
from objassoc.grouping import form_groups

from conftest import make_keyframe


def kfs(ids):
    return [make_keyframe(i) for i in ids]


class TestFormGroups:
    def test_sliding_windows_cover_everything(self):
        # 10 keyframes, window 4, overlap 1: the three full windows already
        # cover every keyframe, so no residual group is emitted.
        groups = form_groups(kfs(range(10)), group_size=4, overlap=1)
        assert [g.keyframe_ids for g in groups] == [
            (0, 1, 2, 3),
            (3, 4, 5, 6),
            (6, 7, 8, 9),
        ]

    def test_singleton_mode(self):
        groups = form_groups(kfs(range(5)), group_size=1, overlap=0)
        assert len(groups) == 5
        assert all(len(g) == 1 for g in groups)

    def test_whole_sequence_fits_one_group(self):
        groups = form_groups(kfs(range(8)), group_size=8, overlap=2)
        assert len(groups) == 1
        assert groups[0].keyframe_ids == tuple(range(8))

    def test_residual_group_with_new_keyframes(self):
        groups = form_groups(kfs(range(6)), group_size=3, overlap=1)
        assert [g.keyframe_ids for g in groups] == [(0, 1, 2), (2, 3, 4), (4, 5)]
        assert groups[-1].overlap_with_prev == 1

    def test_bad_window_config(self):
        with pytest.raises(InvalidConfigurationError):
            form_groups(kfs(range(4)), group_size=0, overlap=0)
        with pytest.raises(InvalidConfigurationError):
            form_groups(kfs(range(4)), group_size=3, overlap=3)
        # a non-integer window is refused before range() sees it
        with pytest.raises(InvalidConfigurationError):
            form_groups(kfs(range(4)), group_size=2.5, overlap=0)
        with pytest.raises(InvalidConfigurationError):
            form_groups(kfs(range(4)), group_size=3, overlap=1.5)

    def test_unsorted_keyframes_rejected(self):
        with pytest.raises(InvalidInputError):
            form_groups(kfs([3, 1, 2]), group_size=2, overlap=0)

    def test_duplicate_keyframe_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            form_groups(kfs([5, 5]), group_size=3, overlap=1)

    def test_group_indices_start_at_one(self):
        groups = form_groups(kfs(range(9)), group_size=4, overlap=2)
        assert [g.group_index for g in groups] == list(range(1, len(groups) + 1))
        assert groups[0].overlap_with_prev == 0


def documented_windows(ids, group_size, overlap):
    """Window n covers indices [(n-1)*stride, (n-1)*stride + size); the last one reaches the end."""
    stride = group_size - overlap
    count = 1 + max(0, -(-(len(ids) - group_size) // stride))
    return [tuple(ids[(n - 1) * stride : (n - 1) * stride + group_size]) for n in range(1, count + 1)]


class TestGroupingLaw:
    def test_windows_follow_the_stride_formula_on_random_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            n = int(rng.integers(1, 201))
            group_size = int(rng.integers(1, 11))
            overlap = int(rng.integers(0, group_size))
            ids = np.cumsum(rng.integers(1, 4, size=n)).tolist()
            batch = form_groups(kfs(ids), group_size, overlap)
            assert [g.keyframe_ids for g in batch] == documented_windows(ids, group_size, overlap)

            covered = set()
            for g in batch:
                covered.update(g.keyframe_ids)
            assert covered == set(ids)

            for prev, cur in zip(batch, batch[1:]):
                shared = set(prev.keyframe_ids) & set(cur.keyframe_ids)
                assert len(shared) == overlap
