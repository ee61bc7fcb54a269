"""Byte-identity of written maps: SHA-256 of 60 preset maps, pinned.

Each map is ``run_association`` on a preset's dataset with the default
``RunConfig`` (hierarchical, or its flat baseline), for seeds 0-9, the
dataset seed equal to the association seed, written by ``records.write_map``
with the ``config_to_mapping`` manifest. A change that is meant to keep
behaviour must keep these bytes; a change that alters them on purpose updates
the digests here and says why in CHANGES.md.

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
    ("aisle_quick", 0, "flat"): "e28876674fa2eb6a883ec3563c4b027a3c6651d4d87a96bf8278d23876002dd2",
    ("aisle_quick", 0, "hierarchical"): "0a79f5b00f414437c98048b3ecb41470428dccf8c5d6717e8498a0014f4509ff",
    ("aisle_quick", 1, "flat"): "0e332f9e0c06e4ad26b1bafbbfb8a7ee439656d90fab8da436e919459c77820b",
    ("aisle_quick", 1, "hierarchical"): "073937ef669c048e8d57f6752799b568f86733af69f68eb7a8e60ae85739caec",
    ("aisle_quick", 2, "flat"): "4eb23b3ee9af004dfb311a7182a27c8eeef9982ce4676cd6df8350b598342abb",
    ("aisle_quick", 2, "hierarchical"): "a3d3a177d31e832b56e402caa43c65b6e8043e25753879b53851a0b0a838cfee",
    ("aisle_quick", 3, "flat"): "f57b2af29f3c78f069a516d9d3b55229799466fb7158cba2a38fb554f6e0b79a",
    ("aisle_quick", 3, "hierarchical"): "8e12a6470029efdc7f2c90914ec2ae8f1a3ec7974a374b693c3f25a99fcf00d7",
    ("aisle_quick", 4, "flat"): "35fe61b4d3bc846c35aa2110d0adb6005de828eeaf978d148af75be78f3fdd06",
    ("aisle_quick", 4, "hierarchical"): "43e667686bb96a3d2e8f776dcbb0c88cfc29fdeeb38c08afbba8cafbb4caca56",
    ("aisle_quick", 5, "flat"): "302a71177496b9e53b39ce82af449d4ec5ac32b83587ca96f9f2f38b8f90f2c2",
    ("aisle_quick", 5, "hierarchical"): "f0e37ef625b24e5931d4cb642d96dd9a27f40fd4e61660f94c16343380d6c06c",
    ("aisle_quick", 6, "flat"): "05fce3636f06b2d933d49b4225ef1f29df3bdcc687eac33bb9a2d88e84621868",
    ("aisle_quick", 6, "hierarchical"): "c676133351b69f0d628f145f81258f0b95a1287b2e25d53ae67c699f7f5ffe57",
    ("aisle_quick", 7, "flat"): "5c43b76b2c1feae825254672c4aea525c73abf342470b9effc844aa5a2f638d7",
    ("aisle_quick", 7, "hierarchical"): "bb3e6eb20e82d109994dcd7ba56a65eb79a67b6043bd7b6a4f49f845a835c125",
    ("aisle_quick", 8, "flat"): "3502dc57dd349f91c9e6bc0377ae16d6c10d1b3f516f6dc7f85699e1330ea493",
    ("aisle_quick", 8, "hierarchical"): "435caba9279ff72c627799fac2b73d97020bc3bd538f6474c8add3b4289bfc4e",
    ("aisle_quick", 9, "flat"): "ad4c5043feef629959e92882c499cf965c9817ecbd48ccfe8e778be07d9ec5ca",
    ("aisle_quick", 9, "hierarchical"): "6c41837c178f73c78be32e53976f60915ffd2601c9f9424edd48a5987dc06034",
    ("aisle_slow", 0, "flat"): "155fcc4046b8b3e5ed590d2568a74c4727cff297dd4107bf9fd224b179f7abf8",
    ("aisle_slow", 0, "hierarchical"): "ae367b5084bd76b94a2f48043e11a97865249b11313f2fa9fa2ae771422a588c",
    ("aisle_slow", 1, "flat"): "295bbb1b578aa92149a58a4b457d582989466010d9648be274f1d9312701a136",
    ("aisle_slow", 1, "hierarchical"): "bb89a50fb1eeb55dc1f9ff1c52ebb016af8486cd6eb7a6f112a81a3c010a9c96",
    ("aisle_slow", 2, "flat"): "551f8ced57aacac8a38038c3d5a90f0033a4b2aa24f8848d281c0fdd1a8f2189",
    ("aisle_slow", 2, "hierarchical"): "88221e06e98971e67fa7777d6e987a19eddd716a154e486e74139f2e6b18affd",
    ("aisle_slow", 3, "flat"): "a15b7538d7846e73d6387e297a706a0e5701f237ec69fe42bfd84e2023760372",
    ("aisle_slow", 3, "hierarchical"): "f9454914fef3a52c735b6dd7f26d7ebc68a9ffdbee1d06d76baf24844de07deb",
    ("aisle_slow", 4, "flat"): "788105b622fd76028868014cca652271f5004f026de1eac550810c86a8a9721a",
    ("aisle_slow", 4, "hierarchical"): "02e611ec8ef172d591850baffd1157616bbfe87808f1b68e659530151c11ad31",
    ("aisle_slow", 5, "flat"): "6763e0d481a3a318f0721170178a829e560f0361b02133ce40e6c6297bc2ab64",
    ("aisle_slow", 5, "hierarchical"): "335db4b6b4100d3c73f6c06ba36a29dcc352370c3321dd87e51791e8de01818a",
    ("aisle_slow", 6, "flat"): "83bff3aa4c6b17b47e0a3ad6bc938b6974781c60522eac610ca2716f453a8b7d",
    ("aisle_slow", 6, "hierarchical"): "13e565371972c01dd89ccc6ddab90216f4ee5e55f3adde7265b1e4f6864971ff",
    ("aisle_slow", 7, "flat"): "491fa100de4bd8baa2d4e8cdb3631fcd4c2c21916185f481026fca72b3e9f97c",
    ("aisle_slow", 7, "hierarchical"): "404c11aee9735705274a4a3b302795183e8adf27fcff74aebf961177cb03b706",
    ("aisle_slow", 8, "flat"): "ac3017d96df31b6f7dccfedeb7cd4437026c0ea1cbc94ed4090bf3fa534afaa6",
    ("aisle_slow", 8, "hierarchical"): "e0cdb20ce617be028f041661f28b572eb9e946d86db9331ce0ae214b9d0520f7",
    ("aisle_slow", 9, "flat"): "db8795f62ed00a8dbed886e548df44dfb9792d09ae90118f92b3e0bbc82a42d4",
    ("aisle_slow", 9, "hierarchical"): "ba73436ce9bda70bb86551f7fd74da7203caa3cfb347e986664e2fdc1e644949",
    ("office_desk", 0, "flat"): "b41cb629b50a49ae2dd73e19220c8c58e2f00a130a499193ea83f0c79a68df66",
    ("office_desk", 0, "hierarchical"): "7442ebcc25bf732c5980edcbcfbcf416bb8049ed09077f3d9a456ca9f906c88d",
    ("office_desk", 1, "flat"): "267a0d058510380a6468642a8896c2e4e9661cb374bf071e19f3f66cdff720f8",
    ("office_desk", 1, "hierarchical"): "61f4ea7ac7b8234dd2c47c6949b4bca91d46f5792e86b068c1b26919093ee3ab",
    ("office_desk", 2, "flat"): "6a74d9984c12f308803ea69a7c76170ceff047f986300da1b58f1ed71cb5c432",
    ("office_desk", 2, "hierarchical"): "d79bcccf5dcb838c2b2de7cd6decfe1d188cf097db3a6bdfd097b13a7c5637ff",
    ("office_desk", 3, "flat"): "6a384e13f1b650f4d1b21bdc907427fc2be1f44288cae094174f8857497b534d",
    ("office_desk", 3, "hierarchical"): "1d15956d38d1fc7f91484a6607272f75b12556ec0dc74881a5eecf6013f836ac",
    ("office_desk", 4, "flat"): "e7b3b8b4161ce7f3932271c3d9870e660962babdac3e0303dad5cfc253920721",
    ("office_desk", 4, "hierarchical"): "3c5d1040602938f6af125889c94d6ccc03e98bb0fdd0abfd89b56b7566611bec",
    ("office_desk", 5, "flat"): "f4cae97b326e5dbe965bbb18fee62f575fe729f943dff11f8b2051198c71f2e8",
    ("office_desk", 5, "hierarchical"): "c1148ac1bb923dce6f73ace54605ebb9d30a2042b448f3731728a28afb965542",
    ("office_desk", 6, "flat"): "6753bf81dcf26cfc47f41f5de9306e45f674ae16e571e3b5fa29294015489d37",
    ("office_desk", 6, "hierarchical"): "46805e15f1b9fc55a8f0d00b20bd747bb6425f310757faaab263e3d009530b0f",
    ("office_desk", 7, "flat"): "3cd1c4c5d4e22334eb31844c24cebc3f062fba384c8756263b56108b535cbdc3",
    ("office_desk", 7, "hierarchical"): "fcc0d8042689dbb9e3f44e8460fec5e3e7c8ab226aa3cb4b854c8c69afa84697",
    ("office_desk", 8, "flat"): "14cbc6874bc2c70f318a714cead0f7746b98b61d94da14ea289190a79d26f73c",
    ("office_desk", 8, "hierarchical"): "e669119fb76815a99d5f18ba87b86bbef1cee0388e47a951d78cba7ed9b52523",
    ("office_desk", 9, "flat"): "4f285229a7a1a654f6d38d23270e55ecf0d388a3dbebe33ba9f68c916b250465",
    ("office_desk", 9, "hierarchical"): "6daec5b9cdad451d6085ce0033256610cdbdbdf96521bd75125ad10ea08f245f",
}




def _case_id(name: str, seed: int, variant: str) -> str:
    # seed 0 keeps the id it had when only seed 0 was pinned
    return f"{name}-{variant}" if seed == 0 else f"{name}-{variant}-seed{seed}"


@pytest.mark.parametrize(
    "name, seed, variant", [pytest.param(*key, id=_case_id(*key)) for key in sorted(GOLDEN)]
)
def test_map_bytes_match_golden_digest(tmp_path, name, seed, variant):
    config = RunConfig().with_seed(seed)
    if variant == "flat":
        config = config.flat()
    dataset = generate(with_seed(preset(name), seed))
    result = run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )
    path = tmp_path / f"{name}_{seed}_{variant}.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, seed, variant)], (
        f"map {name}/{variant} (seed {seed}) changed: {digest}"
    )
