"""Cross-commit output identity: every output byte of a fixed run matrix.

Each run's SHA-256 covers the stats payload (as written to stats.json), the
trace JSON lines (as written to trace.jsonl) and the wire log (trace.bin).
A change that alters any simulated result must say so and update these
digests; a refactor must leave them untouched. st_entries=1 drives the
overflow memory path on condvar, hash_table and linked_list.
"""

import hashlib
import json

from ndpsync.cli import RunConfig, run_once, stats_payload
from ndpsync.topology import SCHEMES
from ndpsync.workloads import WORKLOAD_NAMES

GOLDEN = {
    "syncron/lock/st1": "e015f5f0f7a3d7dcca53ec4c99490638d1c0883da78bd77579d98a78d585ee2a",
    "syncron/lock/st64": "3cb74dfe1ceeab8b7c5963607d5c9d0a3655bd38331d4c5ad17298af5761e274",
    "syncron/barrier/st1": "22a9b7f813a781ee61bc312c722fff8d9dfbfa95abde2670297f64763de93a5d",
    "syncron/barrier/st64": "2dcf0478314b6e6e4fbac68ff043cd087c1f24a81bcf9c9b12d3876e22c870a5",
    "syncron/semaphore/st1": "c2487a4712fca8073df3e1812166bfcc841f6084b02fec2e7b420e99729ab6fb",
    "syncron/semaphore/st64": "499d067f2ec89d09528a175faa899eb10e22a2e864310ef058ff214ed5eae5b3",
    "syncron/condvar/st1": "dc7ea9dc950c8820c2280f1d5677206c37e4e9c45d13cc6aad290d6e6c560dbd",
    "syncron/condvar/st64": "3f956ae1f9170972c278c300372d09c017f52db2c68f12388ab6e90f00ee6f79",
    "syncron/stack/st1": "7e2c2056aadab5e5fff0ee5c7d80af27b007f6d25d1dbb3fa984c640ff75d7b7",
    "syncron/stack/st64": "d8e7f368c08e9fa80c4b4de70c98e1b3a911bc966e961078f030427d187bf635",
    "syncron/queue/st1": "3293e06c846ef8fb9cbd08594ba818a798b7278c472363ee77f7875bb81ce6af",
    "syncron/queue/st64": "fb5bac83c465f2353088a75744112c40b70a59b3ecd64c3cc9342231077fd840",
    "syncron/array_map/st1": "1c1a0137c09358285974e07e8830eead055f4c5d3a15701943c867c2a3647127",
    "syncron/array_map/st64": "d2d6419fb83e41f53f9838a7ec661b105f50a4fe4e4b8388651fa75c97c53879",
    "syncron/hash_table/st1": "fec18b573dc121ce5eaa656e0f937c7da2f9eb6d95465b166c34cf45e21a52fc",
    "syncron/hash_table/st64": "b3c0252930a55cb737cb787065e0c312f460561e168d0963a35b1726eb59d1d6",
    "syncron/linked_list/st1": "c6d4dbf6714a94b40522f88f8ad2d45efd39f0ffa1d5630edd0d8c6a08c2a86a",
    "syncron/linked_list/st64": "2ff9705ccd6d18d012150437917e3cf806132ff6a2e267de302dbf774c35d38e",
    "flat/lock/st1": "6817ce16e03e3148dc8c69624c6acc0ef16a71006a91e31db66eef33bc6e69f9",
    "flat/lock/st64": "1ddf695ba8d75944fbc0eb7cbc311ce005eb7c2f36c924a2094933201c2fe504",
    "flat/barrier/st1": "3b6fed0d4fa5c7baa47552006886d2d6d76229177771c74b89cd5f3d46f06894",
    "flat/barrier/st64": "2848e78556b2acead16cdbae3e3d9d29349400de91f3d9f97631013aa7620f83",
    "flat/semaphore/st1": "132a12c9761dc4255e30a5c3a637bb56872a10852a80a0cc19170ba0e6a3e27f",
    "flat/semaphore/st64": "a588161e0284391fdfdae5f62e87ff4ee9a9226c2ea58de64b61e1297f89d766",
    "flat/condvar/st1": "c3540ab806aec84097780375b576c643534589781bd8528d6f1624bad99afad5",
    "flat/condvar/st64": "8bc317e48a363264c243f446cf97397c668e90920ffcd57c894545164e747535",
    "flat/stack/st1": "dafa07cec598f18edea3389a660ac61ccb1f6ba8e56f5bc83fb5faaf47be80e2",
    "flat/stack/st64": "8547aef742ec705eb8ed1b59e2403fe9fdb4b0e576c3c47aa0354eb656368f73",
    "flat/queue/st1": "529423ed60c69e41e8764e58dae38d23a9dad067ebfb7dae7dc522be358b643d",
    "flat/queue/st64": "87b492d9cce2ec66e44511dd0f1f0d907d62d0af048bd560133300d8dab46e11",
    "flat/array_map/st1": "e9a48ddec67ac66a8c7258cd11e2872cfb2825f396ecab66186e33ac6a6e6010",
    "flat/array_map/st64": "1571f5a90fdb4fb2c038848ff53cc960f21fcb73b474d847b2f06cce44f69dde",
    "flat/hash_table/st1": "41bec035c31c729a0894524e30373940b0e57de6823f53f8e43e17a7f260275f",
    "flat/hash_table/st64": "427aae169f2c6d22aaf6425aead4ab6816974d9bdc5e911ca5038a2486a11b31",
    "flat/linked_list/st1": "c6dca18576c4ed08bd3c5eddcc56a7778027ccf9a2a04fa93ad952991b4a5564",
    "flat/linked_list/st64": "45d986335901c4bfc1965e74dddeeb3bd19bb618a26fb7cc9a175ef28d9c1fed",
    "central/lock/st1": "bd9f9c447e52af584ba391b19c1ce3e4c6e7e4e9a9023e866021a8297abd532f",
    "central/lock/st64": "14731190cacacf0022caedabdbffeb738a9653668e38786a9adba37cecc36fed",
    "central/barrier/st1": "45f77dc8e9c2aa9441dd9f68bdc2feff0a98eaf1c50b20dc68c27651c3cdf680",
    "central/barrier/st64": "dae5b04701064607251daea0a0899ba94b7ca9360d3ebc76bf3608ff9f3b58a8",
    "central/semaphore/st1": "8e391c5a27950ce6d7ccf9d342c64a8c650614472488af17670c12fdd18cf7b0",
    "central/semaphore/st64": "2289c6c448ac6e5795b8b5ce71016b6016928997626d2a5fd96f9e1ad3e09e7b",
    "central/condvar/st1": "0e0b25232dd8b998dd8acda2fc8e3a8ede19dae0d147033d8b35115929c38785",
    "central/condvar/st64": "bf5d019d820b73fc6c462a79878fa0915c1777a4a4fede25ab7e9a8f2530f149",
    "central/stack/st1": "61ffc680e04000393a00b5273c2053a59ade26514731725ceac23506ac652a88",
    "central/stack/st64": "1d07f8ae9c27768a8cb250232adc3f22d4c87a9d3804e1b3573af0304cc7ad62",
    "central/queue/st1": "676610cd0966df241a108e78e41adfbe8589f4ef0396865cfb77b42509ba612e",
    "central/queue/st64": "a904329d4ffa6111d50eba8fb25b3e5b06b58ecf8d426cc67087a2707fd46995",
    "central/array_map/st1": "36c487869ce2705b1a089d20b98faba84b5b987c29dd9c1757f0c403ec9b0de7",
    "central/array_map/st64": "c42500541e490ebdc91422c79bd66663605c8720e347fc727e99f46592875fcd",
    "central/hash_table/st1": "3f21c5c6c282d4095725ee82e4ae0ac4dca7884689c32d84d9040a3b9938a01b",
    "central/hash_table/st64": "900e8fe32e98e53bf29d126d80d09eccb7f7840766275c34d8ce7a664e6b6206",
    "central/linked_list/st1": "bd1020dba734e8f027466f58d648ee9cdf60c837d8c9a410da6f43bc151f4ba1",
    "central/linked_list/st64": "f8a592058a555a770aeca29381c5a8603ed95fcfa6cf13b377d3a82071f8c425",
    "hier/lock/st1": "25e88cbdee5003925ef5a38d4084c66194ae3a395fe77afac57d51c0da4e7ed3",
    "hier/lock/st64": "6b09b5a3563ce03d7a1b569417f1e60b83dd2a6c8431d1465ed65a2f717969e6",
    "hier/barrier/st1": "2ea48aa7d2cee76ab38aa0de6f6f9989e1d8acdc3df4acd1063ab64545a84f35",
    "hier/barrier/st64": "1449148ecba50109bd5d62368dbf8abac784ca40c6e08493c7d5e6a10f1f1c9d",
    "hier/semaphore/st1": "cabfbb4d8e8cc525e21a6b2d6ad81d25b226070715fc357463de9bfbebbbbf23",
    "hier/semaphore/st64": "d4c82af6d067e5ad26df2080889d2f3c7afe39e9349515874a388e70c00bf76d",
    "hier/condvar/st1": "be88f3c875714848eacc8e8698f16d8d049b32a674c773f5a32e714405c3edd5",
    "hier/condvar/st64": "407cdabe4ad09ed6ef0d07f431c3278ad2986c3a099f89ff614bead0a7e9015a",
    "hier/stack/st1": "3343fd4534216e8270e052618061ec8108dbbc0c57abec868f3d650749adaa1e",
    "hier/stack/st64": "52bed4bab60e181ecc8c8258c9cc428d43d90d7219b587f8c235b88ee7cd0cb3",
    "hier/queue/st1": "f237acb3c31a9911ef958046ad0c7677db3e38a2e563014a9c59e9087049da2f",
    "hier/queue/st64": "4d30814d0021b41ee73b3ff74698ca2a9a3a6cf14580b611ae050b5d089e05ed",
    "hier/array_map/st1": "c5b7da71d00cbc24c09bb17174faeec99bbc56437e7742a0c9965384c474f5ba",
    "hier/array_map/st64": "62e0876387e1f91de3b5c3fcc33ae61eef7b77b0498e64d404e6582da1df09c8",
    "hier/hash_table/st1": "885952747b328839e184f40746995df07251cc8c55b3d56f35a127017263ab0f",
    "hier/hash_table/st64": "79332abeaf8aa1efb19528cc3de4c8e64e2ba72bd0c8df4458b1be6ea4f6369e",
    "hier/linked_list/st1": "7e6dec9297c43dd6edbaea3e72e2ca0a121d9d69f1be5241cd1fcaff7cc153fe",
    "hier/linked_list/st64": "46d69d5b3dd7e186983fdbb928551993b77d12fca9151714405607a762e4b48c",
    "ideal/lock/st1": "a7b6348694ce1d0f68917cdd2eb10de54e02873b22e8641f67a29ce3e97a66bf",
    "ideal/lock/st64": "81266134ca3f06528762a5346f8a7b4133447979e6289ea141cfbb20a4eba2e8",
    "ideal/barrier/st1": "9a60c76b0a00936c105f791ee86d7844960148dee12d8a8689cf322335955e36",
    "ideal/barrier/st64": "cea1bfbb13a7c4611496da73ec34a7aaffe7dec0234a52384d41d0812d0c4529",
    "ideal/semaphore/st1": "149635c5f61d24d557d61be97fd62d8b98fc12a9114c7f8e0be950af5360f98b",
    "ideal/semaphore/st64": "926c728bb9993d8976bb05e63e986796f24c097605a3667c2bba66d209bb970b",
    "ideal/condvar/st1": "6512581e645ed4d92166a47407243dd03c046b0470d80966f13e1f61b840732a",
    "ideal/condvar/st64": "3159ca8be23aef97c6608e27ab69342c7bb5648cddc86d483dcf117f336670fd",
    "ideal/stack/st1": "cd5807454bec55bb5309437f40d0bdda4a6666985c4a8415d1d38bbc3ed60da1",
    "ideal/stack/st64": "c2fd75be851bee44265cce1005dbb10134cbfedf48a3efdbb8aaa340fce5a5b7",
    "ideal/queue/st1": "ce412aef1a364a879b44da124ba41b66222211f50e61398476ccefe4024e2fff",
    "ideal/queue/st64": "af059f6ee23ed8dfc83e87060a927ec248f6dac9b10fa242bf6f679df10fc5d8",
    "ideal/array_map/st1": "6861150efab64e8e22ea644b63a67a2f23214da3969da2667fed7eb932d21400",
    "ideal/array_map/st64": "b2facf5a5dfeb04c316c60977298a12e326af6404741b5ed2b8f4067ffd0fa42",
    "ideal/hash_table/st1": "feda80d6341deac62555997fddb80f0e6123e74710cf62568d475548ac363c67",
    "ideal/hash_table/st64": "88b6d22e2655fb5030b48d0dfbb3e6df75707ffd8021f078b3b6cf77cb7ac2ab",
    "ideal/linked_list/st1": "ddb25b7ff2987c273a4e27d244051d5779eafeba3faa539925ca63494ca1050b",
    "ideal/linked_list/st64": "b0a2408999c403d70580df552975b5691d7ff5e27f386374b6a8ec4eb48433ca",
}

# The paper-size 4x16 system under the four message-passing schemes. The
# iteration counts are cut (lock 10, condvar 2) to keep the runs short.
GOLDEN_4X16 = {
    "syncron/lock/st4": "1ed5d553f36d89fbcd067952a137d462fac1dd0768eac6a2f6983de9b329a5f2",
    "syncron/lock/st64": "f29c67770f5ad408aa131d4bc2a2cf0fb5c2f8e8497e04ae6c07d09280f690c7",
    "syncron/condvar/st4": "39a6009925eea02ee64baf74bf1b5a6f26eba439c743c8276257621545919d72",
    "syncron/condvar/st64": "9a4943309e9688296c12c4bd14e107a8575c4e688080c55dc14e6e4bd450a7c7",
    "flat/lock/st4": "015338d1bbeeeab748ec0e14e777a87068c8b6d5822af375e6ebb9d5c904afa5",
    "flat/lock/st64": "dd98f73f5e0b9b6cf3ba505c68aca0fc5e469410d071aac4452e5fc70b076ec5",
    "flat/condvar/st4": "54e74183b78d061abfe1fcc380644b5def8f66afe0fca2b733580cb199c3c035",
    "flat/condvar/st64": "babd4186f472bdb5ac89410b4706a5cbdc35f20916603bf2017c76d867cf5527",
    "hier/lock/st4": "c55118f5e5e3f9c28c404cbd8517bf6f438fd8b60694e883c1b6a55e7a8713d6",
    "hier/lock/st64": "f57b1d642f671d2310acbbfc4744dea1811c2c0c5bead9c88ff35901b2362bfe",
    "hier/condvar/st4": "d3bf5014c7013be4da0f9ae3a2b1c60b0f06d0811147fa45a53eef817b717560",
    "hier/condvar/st64": "6aaa57a1b9a6f39bee8f35547b351445cdfafed5258e49b140af035127599e8c",
    "central/lock/st4": "21eed54c7db00a66030c81e40b0b2924e139dc3b234038e9b98705aa5c9271fc",
    "central/lock/st64": "8c317e7ed26cb50458c504dc2b98a7b956d5f62e297f460f156d910eb2bffc61",
    "central/condvar/st4": "71a1e98194e96f94bf3c0b7823154f69d7c1c45078968bce90935f7ec070e383",
    "central/condvar/st64": "38faf77c0126ab29a2eacf589d5183a36effffbd209c05e98afc27b6440e78b9",
}
ITERATIONS_4X16 = {"lock": 10, "condvar": 2}

# syncron 4x4 with a small table: the master queues overflow waiters of
# several units at once (linked_list), and hash_table at st_entries=1 makes
# one grant choose between a unit's overflow core and a lower unit's aggregate.
GOLDEN_4X4 = {
    "syncron/hash_table/st1": "71e778242507e27ab41e473ab0a7efcba63e24a2b23d2f4917883c1093136dc6",
    "syncron/hash_table/st4": "18b8b2b9081f4a72934643b18e6d9ed9a96532fdbda5f57e40dd1a915b5ad8b0",
    "syncron/linked_list/st1": "64265568b19ee88514f21944076de1b86bd7c1cdd2929c9790148d01397a4408",
    "syncron/linked_list/st4": "6f6f497b9e68b711a5617bc5cc439d2f9fae91448a3007f095b8ef16469e8aee",
}

# The paper-size 4x16 system with a 4-entry table on the lock-based data
# structures: most requests overflow under syncron (0.85-0.86) and flat
# (0.28-0.59), and inboxes reach depths 14-25, past the default inbox_depth 16.
GOLDEN_OVERFLOW_4X16 = {
    "syncron/hash_table": "de5bc0556e224b80be457fdb18836c339bb56ba0fe8d6643655100ddb9784892",
    "syncron/linked_list": "a65775f8f2467224e6531978fbf6344e86a45aff70ffc7ccd0af6152d636db7c",
    "flat/hash_table": "eff8458a656af61a2f5e60e77b192e0f6ef5bf49de9dfe77d8f78ae6bc59d959",
    "flat/linked_list": "aeee1dc91c73ba293f25afa4219f8e8166decedbfd273067ec5ec042da356e1e",
    "hier/hash_table": "6a1f9e8c016c34f119718439811b18d1b20e4fc5fe40bb41f86bfabe5eae9e2b",
    "hier/linked_list": "4dc4b51c6a227f161c7d32a43895d6cec0430a6fe5e0dbe9f4dd4bb20905b7f9",
}
OPS_OVERFLOW_4X16 = {"hash_table": 3, "linked_list": 2}


def output_digest(rc: RunConfig) -> str:
    stats, sim = run_once(rc, trace=True)
    h = hashlib.sha256()
    h.update(json.dumps(stats_payload(rc, stats), indent=2, sort_keys=True).encode())
    # the same bytes as json.dumps(..., sort_keys=True), without a new encoder per record
    line = json.JSONEncoder(sort_keys=True).encode
    for rec in sim.trace:
        h.update(line(rec.to_json_dict()).encode() + b"\n")
    h.update(bytes(sim.wire_log))
    return h.hexdigest()


def assert_digests(golden: dict, runs) -> None:
    """Each named run of `runs`, (name, RunConfig) pairs, matches its digest in
    `golden`. A failure names every moved run with its new digest, as the golden
    line a declared change rewrites."""
    got = {name: output_digest(rc) for name, rc in runs}
    assert set(got) == set(golden)
    moved = [f'"{name}": "{got[name]}",' for name in sorted(got) if got[name] != golden[name]]
    assert not moved, "outputs changed for:\n" + "\n".join(moved)


def test_outputs_match_golden_digests():
    assert_digests(GOLDEN, (
        (f"{scheme}/{workload}/st{st}",
         RunConfig(scheme=scheme, workload=workload, units=2, cores_per_unit=4,
                   st_entries=st, seed=3))
        for scheme in SCHEMES for workload in WORKLOAD_NAMES for st in (1, 64)))


def test_paper_size_outputs_match_golden_digests():
    assert_digests(GOLDEN_4X16, (
        (f"{scheme}/{workload}/st{st}",
         RunConfig(scheme=scheme, workload=workload, units=4, cores_per_unit=16,
                   st_entries=st, seed=3, workload_params={"iterations": iterations}))
        for scheme in ("syncron", "flat", "hier", "central")
        for workload, iterations in ITERATIONS_4X16.items() for st in (4, 64)))


def test_multi_unit_overflow_outputs_match_golden_digests():
    assert_digests(GOLDEN_4X4, (
        (f"syncron/{workload}/st{st}",
         RunConfig(scheme="syncron", workload=workload, units=4, cores_per_unit=4,
                   st_entries=st, seed=3))
        for workload in ("hash_table", "linked_list") for st in (1, 4)))


def test_paper_size_overflow_outputs_match_golden_digests():
    assert_digests(GOLDEN_OVERFLOW_4X16, (
        (f"{scheme}/{workload}",
         RunConfig(scheme=scheme, workload=workload, units=4, cores_per_unit=16,
                   st_entries=4, seed=3, workload_params={"ops_per_core": ops}))
        for scheme in ("syncron", "flat", "hier") for workload, ops in OPS_OVERFLOW_4X16.items()))
