"""Partition a keyframe stream into overlapping keyframe groups.

Groups are sliding windows of ``group_size`` keyframes advancing by
``group_size - overlap``, so consecutive groups share exactly ``overlap``
keyframes. A shorter final window is emitted only when it contains at least
one keyframe not already covered, so no keyframe is ever dropped and no
fully redundant group is produced.

With ``group_size=1, overlap=0`` every keyframe becomes its own group, which
is the flat per-keyframe association baseline.

:func:`form_groups` is the only grouper; ``run_association`` calls it on the
whole keyframe sequence. An online caller gets the same windows by buffering
keyframes and cutting window n at index ``(n-1)*(group_size-overlap)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Keyframe, is_int
from .errors import InvalidConfigurationError, InvalidInputError


def _validate_window(group_size: int, overlap: int) -> None:
    if not (is_int(group_size) and is_int(overlap)):
        raise InvalidConfigurationError(
            f"group_size and overlap must be integers, got {group_size!r} and {overlap!r}"
        )
    if group_size < 1:
        raise InvalidConfigurationError(f"group_size must be >= 1, got {group_size}")
    if not 0 <= overlap < group_size:
        raise InvalidConfigurationError(
            f"overlap must satisfy 0 <= overlap < group_size, got {overlap} (size {group_size})"
        )


@dataclass(frozen=True)
class KeyframeGroup:
    """An ordered window of keyframe ids; ``overlap_with_prev`` is 0 for the first group."""

    group_index: int
    keyframe_ids: tuple[int, ...]
    overlap_with_prev: int

    def __post_init__(self):
        ids = tuple(self.keyframe_ids)
        if not ids:
            raise InvalidInputError("a keyframe group cannot be empty")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise InvalidInputError(f"group keyframe ids must be strictly increasing: {ids}")
        object.__setattr__(self, "keyframe_ids", ids)

    def __len__(self) -> int:
        return len(self.keyframe_ids)


def form_groups(
    keyframes: Sequence[Keyframe], group_size: int, overlap: int
) -> list[KeyframeGroup]:
    """Group an ordered keyframe sequence into overlapping windows.

    Window n (1-based) covers input indices
    ``[(n-1)*(group_size-overlap), (n-1)*(group_size-overlap) + group_size)``.
    The last window is the first one that reaches the end of the sequence; it
    may be shorter, and it always holds a keyframe no earlier window covered.
    """
    _validate_window(group_size, overlap)
    ids = [kf.keyframe_id for kf in keyframes]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise InvalidInputError("keyframes must be sorted by strictly increasing id")

    stride = group_size - overlap
    groups: list[KeyframeGroup] = []
    for start in range(0, len(ids), stride):
        groups.append(
            KeyframeGroup(
                group_index=len(groups) + 1,
                keyframe_ids=tuple(ids[start : start + group_size]),
                overlap_with_prev=0 if not groups else overlap,
            )
        )
        if start + group_size >= len(ids):
            break  # this window reaches the end; a later one would add nothing
    return groups
