"""Byte-identity of written datasets, maps and eval reports: SHA-256 digests, pinned.

Each map is ``run_association`` on a preset's dataset with the default
``RunConfig`` (hierarchical, or its flat baseline), for seeds 0-9, the
dataset seed equal to the association seed, written by ``records.write_map``
with the ``config_to_mapping`` manifest; each report is ``metrics.evaluate``
of the same run against its dataset, written by ``records.write_report``.
Each dataset is a preset's seed-0 dataset written by ``records.write_dataset``;
its scenario record and every report are their dataclass fields in
declaration order, so reordering a field changes these bytes. A change that
is meant to keep behaviour must keep these bytes; a change that alters them
on purpose updates the digests here and says why in CHANGES.md.

Digests recorded with numpy 2.4.6 (Python 3.11); other numpy versions may
round differently. Both assignment problems are solved in pure Python
(``objassoc.assignment``), so no scipy version enters these bytes.
"""

import functools
import hashlib
from dataclasses import replace

import pytest

from objassoc import records
from objassoc.association import run_association
from objassoc.config import RunConfig, config_to_mapping
from objassoc.metrics import evaluate
from objassoc.synth import generate, preset

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

GOLDEN_DATASETS = {
    "aisle_quick": "357a22eaf47ee4c80a8720246db637a9b1f7b365db1c17a9744f23240487e6f6",
    "aisle_slow": "ec0e5b5c03b13cea414928878785c29bbc2f32a1467b9c23be322806acaf79df",
    "office_desk": "ad19929ecd75fe00383a61ed79032ad3a31b179c7ef022add0ebe94262c709cf",
}

GOLDEN_REPORTS = {
    ("aisle_quick", 0, "flat"): "9803485fc611ba0d1e85978b89662eec594f54b1027de222725d13e56254a450",
    ("aisle_quick", 0, "hierarchical"): "ed775c8f591a02a33c612adfa1a56fbbd4090a833edfb2bd72a2a4f855f0cf70",
    ("aisle_quick", 1, "flat"): "c2fb0b10e365afbb3a923ea2012fad7c167492a5696a9ddbe5e240dc88d24cef",
    ("aisle_quick", 1, "hierarchical"): "2507dec491c6f04189503011098b727842fc6ba05fbc1d05fd08265827438b89",
    ("aisle_quick", 2, "flat"): "72ffbe1227af9b4685960b513ba93095aba7173b13b1ad8a08cfc13efe668d31",
    ("aisle_quick", 2, "hierarchical"): "3dcc783e1885db72fad847565e493fc953482c5a7c5738f910bba83b7f7cd933",
    ("aisle_quick", 3, "flat"): "9d86c53e62db2abb64584494098f5b10290640ea14cef04a85c695a332f5933c",
    ("aisle_quick", 3, "hierarchical"): "06366c6840f755bf55cb3c32b2f60dbd17c3e5168912139850de4df9e7b81c27",
    ("aisle_quick", 4, "flat"): "9b4849e3160fc5317c5efb6988271969c5e6584b0afab4d7c5f2704550e28e35",
    ("aisle_quick", 4, "hierarchical"): "3961f43881fce78750b24134e4baac25343fefd6890272b1bd0c27b704ef2ec5",
    ("aisle_quick", 5, "flat"): "a22c217d9cb9b5034c83bd7b5bd3db91d513aab7cb8b4c4a305e96f7174497d2",
    ("aisle_quick", 5, "hierarchical"): "989d2b67da4bd4d1cabbee13b7d570d308a9e8feef1a3ad822c5a0c77f72f6d0",
    ("aisle_quick", 6, "flat"): "913a59bd0bfa5a57d4a7ec25cee933b3256ea6218b60ab579ed69afcaefe7779",
    ("aisle_quick", 6, "hierarchical"): "36d5a88d3c7a3e2eebd19445703004fb4c16e6e05dfd00a2fa11013cad593dd4",
    ("aisle_quick", 7, "flat"): "f9a4e6784deeecdd6d04e6aa50a0e26e34e22377b9be5e1fb075ab06935bdfd9",
    ("aisle_quick", 7, "hierarchical"): "6a3e6bb77fcdb2b31480e2888fa8694b63df6290cb2913e3279c83234b97f98c",
    ("aisle_quick", 8, "flat"): "d12ee21c87263de06a3358455d6d430a8aa845b06004db6a8fb5d4ffff5f62e1",
    ("aisle_quick", 8, "hierarchical"): "dc78f9b17e2afeacb573ddb930202cef01da5440650eca2e8f94f43a00d9373a",
    ("aisle_quick", 9, "flat"): "04403234cac0bdd508b1fb1e095efd51c16e6154f3291dae11dc60e621d20b61",
    ("aisle_quick", 9, "hierarchical"): "9baaf394082b79c2b114c6582fa0428b4c8f6a18cf64be392fe31a501971d5b2",
    ("aisle_slow", 0, "flat"): "87921a4c662ae1d752aade367afab94a241816416a4236815f156553533ff591",
    ("aisle_slow", 0, "hierarchical"): "4aeb53e423074280200cbf9144d0f12f169f1fe39b71d7ba92077805a09c83ed",
    ("aisle_slow", 1, "flat"): "37a6580086c91e388ed5b20ff141c99263dd06cde723e3ffb58caca8487c0ded",
    ("aisle_slow", 1, "hierarchical"): "e69383ec9d5215d91e39fcf45217f5cd6d1795018ea6c6f9fe48fb8c392fa04c",
    ("aisle_slow", 2, "flat"): "52bbd0b968c395adc57068457cdab5e3c056e4a5cda14d662a1c3556b1344959",
    ("aisle_slow", 2, "hierarchical"): "27e920b07f75278bdcfba00bb6a38b422751af71493464eb26e02ddb25d0b6d6",
    ("aisle_slow", 3, "flat"): "d3456722f8094e8ea370c8948d284d021544eba8a37289065d4b1a6bac4dce62",
    ("aisle_slow", 3, "hierarchical"): "d4240f595eda5b6ecfaa46f624667cab1373fad3aa4c492412d162231a75c923",
    ("aisle_slow", 4, "flat"): "18eece02d0d4a57a9fbb4dd04e9d9a5527ba34481f675525fbf7b8d437172041",
    ("aisle_slow", 4, "hierarchical"): "2fa71dc1405f64ffb956ef1f54a4d764004a9568608478f0835caca3a9a2d161",
    ("aisle_slow", 5, "flat"): "f97413ac99dee80303a8abee7be01a550c38f61de66d8f262e15091d9a7fb005",
    ("aisle_slow", 5, "hierarchical"): "c8faa3c1305f517a74f4caec9bcc7c40ed8c552252d53286c8dd4ba6a0344451",
    ("aisle_slow", 6, "flat"): "d0b28da58ea94d4be69b44424ea4ba5d8829c3a8bc18e64b348de66a64e8fa7e",
    ("aisle_slow", 6, "hierarchical"): "ede29918470fe4b84cc49f4b79b24b1b785ed82ac751f45942a6c6f121efc84d",
    ("aisle_slow", 7, "flat"): "ac85c1194f0599f4404cf651cd0a39388cb3c4dd22ca90cd9c0a52b5ae35a011",
    ("aisle_slow", 7, "hierarchical"): "b4b7c23c9d4a9f1cc0fe225ffcd9397b960025e3b897a1379cc2a7c3cee8eebf",
    ("aisle_slow", 8, "flat"): "eaecaa59980f421d1e96c84733b664e61f62256ad12de9d148a9de78ca241a40",
    ("aisle_slow", 8, "hierarchical"): "bd2b7a2d857a0ba41d80f8c78f735b6b1394811dedede875c7ff735bcaee7162",
    ("aisle_slow", 9, "flat"): "aeff4f6d20bc8bdde38390c676547f5b76a3791eaa0f96c001a3e05ee8b7d16d",
    ("aisle_slow", 9, "hierarchical"): "e7de67a39b962704d3dbbb36393b8a0c04a64097b1a638712606b7eb1264c930",
    ("office_desk", 0, "flat"): "27b97abde056a34fccc3217f364cd3d14a13d90270c42845c5d7cd47f764a9d4",
    ("office_desk", 0, "hierarchical"): "75500ff12d494dabeea84c22afec15a970fe68dd1f79bc907ee1cbd607e55429",
    ("office_desk", 1, "flat"): "e5074fb33dc6acbf4ea6ae43d01324c4f19e105197663e6f876a8a36644fbfb4",
    ("office_desk", 1, "hierarchical"): "0723c8a606accbe22a4b05aa1cdf469680d3d1a03b5d4950aee02ae77077c7b5",
    ("office_desk", 2, "flat"): "d660ce093ebb230378c77a6d03e136b1f0dd1eea1587b65dff4542ae142ca7dc",
    ("office_desk", 2, "hierarchical"): "4320a8915081c07cd2d77e3456859ab27d024d8f5e990a172ca1734eaa6ba89d",
    ("office_desk", 3, "flat"): "6b86f989ade772be8e69c4ed6a8adc8d4aef7051382a1db6fac03fb062af966c",
    ("office_desk", 3, "hierarchical"): "c6dc624335301ee1afffe222e2dbbdbaa0399700acd42842b6c309ec4c514620",
    ("office_desk", 4, "flat"): "b4fbfba5fd35200ad0e76c22bf62ffada88599a0ab0e0303db9c92c510e7ee3a",
    ("office_desk", 4, "hierarchical"): "5bd6b906ffb6dbbc270ca46cbd7ea43cf2e582db134d9736c8c6b52c60359885",
    ("office_desk", 5, "flat"): "12f9895ebabd2460d74ca119cf5873aae3fc52aeece390aa87a15daeec5f3fba",
    ("office_desk", 5, "hierarchical"): "fc82ad6ec6aa0db526bd9f53c4cbd17bd6f443b2bff951e0c535ac103a5797f9",
    ("office_desk", 6, "flat"): "b8883f85bd7591a49614055ec4d9bfb52da3b19a7178162d9c142c1dcceaa15f",
    ("office_desk", 6, "hierarchical"): "637710cbc209b3ec45f3a434029ea3534625564307e574ba9d05ca9461be7904",
    ("office_desk", 7, "flat"): "07facd775536fa23b760acc4cdc4c572ae07d2926a90ac228fc372bdb6126516",
    ("office_desk", 7, "hierarchical"): "35fa7e2464097e1a95889fb0f48492efd05d92cec6619a2e6f6dd6982e06430c",
    ("office_desk", 8, "flat"): "c92f338f6a14bdd67657cd62a6f6e74ed7de8c792e13f92e602dcea707a7b7b1",
    ("office_desk", 8, "hierarchical"): "58c810199cced63d679fded78ef91783905070af7b8c191dbf84ba6aa2b49e55",
    ("office_desk", 9, "flat"): "4a90eebafb10529d315e6aedc28ed62905c3bc737166c966003f4adf6fec7e82",
    ("office_desk", 9, "hierarchical"): "e1f7fbd5b6693887049ae91a43e206c76314a03801a9cff5d8dc045ef6f486ce",
}


def _case_id(name: str, seed: int, variant: str) -> str:
    # seed 0 keeps the id it had when only seed 0 was pinned
    return f"{name}-{variant}" if seed == 0 else f"{name}-{variant}-seed{seed}"


@functools.lru_cache(maxsize=None)
def _run(name: str, seed: int, variant: str):
    """(config, dataset, result) of one pinned case, shared by the map and report checks."""
    config = RunConfig().with_seed(seed)
    if variant == "flat":
        config = config.flat()
    dataset = generate(replace(preset(name), seed=seed))
    result = run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )
    return config, dataset, result


CASES = [pytest.param(*key, id=_case_id(*key)) for key in sorted(GOLDEN)]


@pytest.mark.parametrize("name, seed, variant", CASES)
def test_map_bytes_match_golden_digest(tmp_path, name, seed, variant):
    config, _, result = _run(name, seed, variant)
    path = tmp_path / f"{name}_{seed}_{variant}.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, seed, variant)], (
        f"map {name}/{variant} (seed {seed}) changed: {digest}"
    )


@pytest.mark.parametrize("name, seed, variant", CASES)
def test_report_bytes_match_golden_digest(tmp_path, name, seed, variant):
    _, dataset, result = _run(name, seed, variant)
    path = tmp_path / f"{name}_{seed}_{variant}.report.jsonl"
    records.write_report(evaluate(result.landmarks, result.assignments, dataset), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[(name, seed, variant)], (
        f"report {name}/{variant} (seed {seed}) changed: {digest}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_DATASETS))
def test_dataset_bytes_match_golden_digest_and_round_trip(tmp_path, name):
    path = tmp_path / f"{name}.assoc.jsonl"
    records.write_dataset(generate(replace(preset(name), seed=0)), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_DATASETS[name], f"dataset {name} changed: {digest}"
    again = tmp_path / f"{name}_again.assoc.jsonl"
    records.write_dataset(records.read_dataset(path), again)
    assert again.read_bytes() == path.read_bytes()
