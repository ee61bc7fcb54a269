"""Byte-identity of written maps: SHA-256 of six preset maps, pinned.

Each map is ``run_association`` on a preset's seed-0 dataset with the default
``RunConfig`` (hierarchical, or its flat baseline), written by
``records.write_map`` with the ``config_to_mapping`` manifest. A change that is
meant to keep behaviour must keep these bytes; a change that alters them on
purpose updates the digests here and says why in CHANGES.md.

Digests recorded with numpy 2.4.6 and scipy 1.17.1 (Python 3.11); other
versions of the linear-algebra stack may round differently.
"""

import hashlib

import pytest

from objassoc import records
from objassoc.association import run_association
from objassoc.config import RunConfig, config_to_mapping
from objassoc.synth import generate, preset, with_seed

GOLDEN = {
    ("aisle_slow", "hierarchical"): "ae367b5084bd76b94a2f48043e11a97865249b11313f2fa9fa2ae771422a588c",
    ("aisle_slow", "flat"): "155fcc4046b8b3e5ed590d2568a74c4727cff297dd4107bf9fd224b179f7abf8",
    ("aisle_quick", "hierarchical"): "0a79f5b00f414437c98048b3ecb41470428dccf8c5d6717e8498a0014f4509ff",
    ("aisle_quick", "flat"): "e28876674fa2eb6a883ec3563c4b027a3c6651d4d87a96bf8278d23876002dd2",
    ("office_desk", "hierarchical"): "7442ebcc25bf732c5980edcbcfbcf416bb8049ed09077f3d9a456ca9f906c88d",
    ("office_desk", "flat"): "b41cb629b50a49ae2dd73e19220c8c58e2f00a130a499193ea83f0c79a68df66",
}


@pytest.mark.parametrize("name, variant", sorted(GOLDEN), ids=lambda v: str(v))
def test_map_bytes_match_golden_digest(tmp_path, name, variant):
    config = RunConfig().with_seed(0)
    if variant == "flat":
        config = config.flat()
    dataset = generate(with_seed(preset(name), 0))
    result = run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )
    path = tmp_path / f"{name}_{variant}.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, variant)], f"map {name}/{variant} (seed 0) changed: {digest}"
