"""Byte-identity of certificates and trial outcomes for fixed seeds.

The SHA-256 of ``decompose(...).to_json()`` and of ``run_trial(...).to_dict()``
is pinned for twelve spaces at seeds 0-3.  A change that moves any bit of a
certificate (the matrix, the sign table, a residual, a discrepancy) or of a
trial outcome fails here.  So does a change to the order in which
``decompose`` queries the oracle: the SHA-256 of the bytes of
``np.array(oracle.query_log)`` is pinned for the same spaces and seeds.
The digests were made with numpy 2.4.6 and its OpenBLAS on x86-64; a
different BLAS build can change the last bits of least-squares results.

Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json

import numpy as np
import pytest

from phaseiso import NormSpec
from phaseiso.decomposition import decompose
from phaseiso.harness import run_trial
from phaseiso.phase_maps import generate_isometry, generate_phase_isometry

INF = float("inf")
POLY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]

SPACES = {
    "l1_n3": NormSpec.lp(3, 1),
    "l1_n8": NormSpec.lp(8, 1),
    "linf_n3": NormSpec.lp(3, INF),
    "linf_n8": NormSpec.lp(8, INF),
    "l2_n2": NormSpec.lp(2, 2),
    "l2_n6": NormSpec.lp(6, 2),
    "l1p5_n5": NormSpec.lp(5, 1.5),
    "l3_n5": NormSpec.lp(5, 3),
    "poly_n3": NormSpec.polyhedral(3, POLY3),
    "wl1p5_n3": NormSpec.weighted_lp(3, 1.5, [1.0, 2.0, 0.5]),
    "l1_n1": NormSpec.lp(1, 1),
    "poly_n2": NormSpec.polyhedral(2, [[1, 0], [0, 1], [1, 1]]),
}
SEEDS = range(4)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def digests(name: str, seed: int):
    space = SPACES[name]
    oracle = generate_phase_isometry(generate_isometry(space, seed), seed)
    cert = decompose(oracle, seed=seed)
    return _sha(cert.to_json()), _sha(run_trial(space, seed).to_dict())


def query_log_digest(name: str, seed: int) -> str:
    oracle = generate_phase_isometry(generate_isometry(SPACES[name], seed), seed)
    decompose(oracle, seed=seed)
    return hashlib.sha256(np.array(oracle.query_log).tobytes()).hexdigest()


PINNED = {
    "l1_n1": {
        "0": ["dac8b62361a6cdba73fb4171f1095e6096b0778d31125b98789179d52acc68ba",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["dac8b62361a6cdba73fb4171f1095e6096b0778d31125b98789179d52acc68ba",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["edc9c868c41a2d002507a0c6f32d4cf59115b6aecc2d62c85a4a35977e7af3af",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["edc9c868c41a2d002507a0c6f32d4cf59115b6aecc2d62c85a4a35977e7af3af",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "l1_n3": {
        "0": ["d4cd95823dbef454c75a5620091a475a321451d37f540537d16e757f9da05ddb",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["3aad58f5b6ba7d331167d4990c9b84594c81a8d6905aeb68fe89f84479eeccf6",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["8b45b2cd6da5c5f9ffa9a752698a19fdfcbba1859858b187f89a330414b2ca67",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["a9219ca80efb94524fab381a17f473467691d3c10f3ebe5989aaed81afb570de",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "l1_n8": {
        "0": ["ff1975b3d7f16519aa970690eb8a291ce79c54173d250ecfe45ca8a1c3b38f4f",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["67ac8623ef743d383953ed358ff3e7be3bbd3fc21e39faf91d2bca40312d6086",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["3faa68b72f945736e8156a912a90125332deb8004feae20f46e55128b787add4",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["238a8eea6335d395d58ab45942dfc6b95cb791b692e381f883a5b8cf8c81afc5",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "l1p5_n5": {
        "0": ["d6c2e6719221e9d581ceb9797b1dd40d4cafa4a4b74645a660ebf606c8c93eff",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["44561e09edcc3a85ce10403880b22352529cd59ec9981bea07a5df831e55af9b",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["c0877d8f8f050af8dfe833704e82c873438f05f6b19a5a9e5d32e3eefe71f9f2",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["3088d499d4558ffcf94c4b8f798e105effd6529f1fb3d918e1630ce55fea8bd3",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "l2_n2": {
        "0": ["a5e51038c0d68687c87103af729456d2fdea048ac70648f52e8bc6ce09edbe0e",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["06878ecbb8d08949bc54e26ee41d5432f8fdcc168a6d1d318afa06bbae7d2e19",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["4b8555d18369c0e870168db7ef1a460ad0d52d6fe3f383c78a5396ae4dcf5da9",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["0642e7e0e86ab5d120bef4b84f49141621bc46c559c116dfb41f27d4072c278f",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "l2_n6": {
        "0": ["513ef255a697b63dfaf96c10b7ba451169774d34074603f45cc84b5551b52cd8",
              "6e2d77eab79c6fcfaca71a363b354b4673e531f54a718358f5d0d629eae710ab"],
        "1": ["5d373617d97b9e32a192b356a19532086902c52c824c8a5a61842cf8502b6db2",
              "a6b34ddf6004e2da89acc548aa78f3697bf21e7053cca592af60e79b4a4b9ba3"],
        "2": ["6712a6dc9be16a74b751e1f5aafcb3b50db3dada787790f216b2c1bb16de92da",
              "8e533d04154ff8898350bc30c44da9fc9fb74576e7361d6adc6ec66cd87f6d67"],
        "3": ["bfcbde813835c8c3b6fb9edf2d942320a24f4cc25e79624bfd64d997b84ccf84",
              "8f5e3c26b6e61f7b1f6a045fa0b26e4c37cb1a22a26b976f6bc76009e739c91f"],
    },
    "l3_n5": {
        "0": ["5c1c072479e956dc7ec18539fb176e1224f861b96340d62ef7352ddc46eb08d6",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["30b9bdf48552a146afaefde2f9a5fa424db27341cecbf045db106968657107b0",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["9fa16f7fdab2d43dc58b4d94d879630e09f9c53da500f0ae03e336da6f762a0c",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["2609c0c48d8d8908de91fbb008e189fdece79dfb604f8418d75ed3f8803b31de",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "linf_n3": {
        "0": ["503165e3f66bc0c8d8fb1beb0580974adec0e0fc37e1d7f15e15a8efcd9b9504",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["5af693325b30009997efde13d92749ee28d4c2d0b34ff87572a3a50dea30575c",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["5306b06685389f161cb3f164703a2938af7a056eada3d8b220326f8da7c7de10",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["8af2fa4bff666fc03696f3d192da884fe11a5f1c8cea1a302c0b6617ea7f547b",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "linf_n8": {
        "0": ["c8ecc85988ba08fd3efc4b5f36981839634f0fb4c2fa0e32099aef917621caeb",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["cdd7413c553269fd0148c6e245b5c2548c2e04b245e509f9d692114e8d20f697",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["154dd93d9a0142b08558df784afc52cffa12eee76ce2de07d72be0466814b51f",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["a2b7aea6fd86616b44b6c7cae594b7586eca2fefefbda9c2d7ead974142618f7",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "poly_n2": {
        "0": ["7c04dd71ef3adc8ee6c1390647a1ce407373507c0bdc38702d9fa939fb23f952",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["9429a9e6f2e1f28a74030645c9d04d6baba75c72a45bf590cb2d5aa0c8cc7a84",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["5dffc635f75d27e6ef9e6330b31dec836293e737163c1336f59f0292bda3f30d",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["a7ccc5fef042912af72f3b86ba5a770ccb00aba67e5f4f629f68638ee4f2c461",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "poly_n3": {
        "0": ["df614a1317f5cf6e0b3ceeabcaa1854c733afc56c93175db0849afaff106a4d5",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["af7acefd7d49af37472a85ae4d9147caa0f1f8450d96dcc815fad9238bd9f4fd",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["05bc84228dac7e4c4272163dbf5d95735fb99eaac2564e48f49d4a4dee73deea",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["e4e996654314fc2e5ae7c0936e919b8b2bcb7400b2f637a1634945b0a64eb1cc",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
    "wl1p5_n3": {
        "0": ["d85797edc67641ee69415ebb062b1bebd48ec8775e025930dc6fbb59e57f9788",
              "b02f4211b2449c946be9fb5ffad88b1fa023acafdb530bc0f9e770f6b0e5f3f5"],
        "1": ["81026d587980b241a7bf90a4aa04197f6c1ac09b72b10f73ed5579461695aed7",
              "bb1ae273bec26d28d984a53be6b7d937cde8c9098e4609a9a9aab50c4631395c"],
        "2": ["32e34dc24f94d0ddca0afbe690edee052285c1d36631e5132fdea6cd8d251d73",
              "c232e8caadc2626970b5b636f9b5025f4079ac9add593327e283fed5c3c196a3"],
        "3": ["9ed6f041a405be1c0ea08fa7b8d0e2f7031e75e657d39b8815f463ca60fd87bd",
              "fdaecca5ce2138f9d1f5df7de7b87cd82d1e46ba289830a35095d6b857d83b2b"],
    },
}


PINNED_QUERY_LOGS = {
    "l1_n1": {
        "0": "eee1cef9269c3d60b9139bd847c67bf7ea0f3c9f2f2d49221d7ad46d07024603",
        "1": "c37161544bbe22d82e5fa92e322ffa723228db0aeb0f63307802edcb39da63bd",
        "2": "3f9933f32fc11e187e1fc14c71fa6ffe0e7d24c174b6d6eb7c0db03f8ee0b12f",
        "3": "10af7d3185ce1de0a80b5268c33b03d5d2e1d2539464b9bab69a1c909c67e3e2",
    },
    "l1_n3": {
        "0": "715ab23c6391f15562eb8c7fab84ed9314992290ef674e36c62b939b415d073c",
        "1": "c4958cfdf14291e587e0a5f9c2727ab8de2221192f439f0e6510ab79a1644c5e",
        "2": "4e79c235479bd65a0a6e43bc906266f843b56a8ca63249d08dc31e1f86396d7b",
        "3": "8c5b5caceac4fc20bb0403727a935decd578f092baf60494d7b312ca39856307",
    },
    "l1_n8": {
        "0": "a204ab74f782a07e771726203b7af3dbbbbfc4f29a637c626296470b1a9e16f0",
        "1": "6d6ad90de73e0d29b79fc5fc8825892389a37cd253fc40ec906509e9adc2e906",
        "2": "8d061864bb9e20c0eaf86767beee937cc8a0e9c88131fc016a398b4c9609f3f1",
        "3": "a832ccfcd1ddb518532a779c861c7896ba0836f11611a1e6db211a9762a1eda2",
    },
    "l1p5_n5": {
        "0": "8810b5285b433752083497eede0db1b3cecd41c98c19e31331db303c1f8a87f6",
        "1": "9225e04078a2ec246d50b38ce91793699968a08908b6e826687f08e46f41f78e",
        "2": "729dd459a76ffad2a6da433d0b5612c724944e08a74507f6d09deada26e74df1",
        "3": "fb3c4ec20800844e2be6adee9c61a40721159570a6da7fb3391d5cbb90dc6dcc",
    },
    "l2_n2": {
        "0": "c2f92de4efd1dff4bf9d03cadce2c51688a6ac3b073dbc1c94efbcf5c855c4b3",
        "1": "e256347ec8251d092ea76420429760d8f3c38d3f7a79a9eb02fdd9befd3add4b",
        "2": "0656bda566516de8becccb39054e4d4877a46de57794502c20096669643a5bce",
        "3": "de9cebb49c649bff65e611decabb71dc1254b27deb87341b0f504aa4124b7431",
    },
    "l2_n6": {
        "0": "17675ffd29b14a7084a4295bf3444ea0a543ee10f5d08956ad1c4171f658ce21",
        "1": "6ba4c62df30a509ae6b18fc1daeb05ae5792703cac6fd764ddbaf52959ba098b",
        "2": "27a1c21f0727032b3bfc1a909c9185682fa9f7fcc0f44e9b4cefb0f9ef563c72",
        "3": "85ceddb9128ac42defd583abc0ebaa072779488304e306fd28ab837a2d03ebbf",
    },
    "l3_n5": {
        "0": "8810b5285b433752083497eede0db1b3cecd41c98c19e31331db303c1f8a87f6",
        "1": "9225e04078a2ec246d50b38ce91793699968a08908b6e826687f08e46f41f78e",
        "2": "729dd459a76ffad2a6da433d0b5612c724944e08a74507f6d09deada26e74df1",
        "3": "fb3c4ec20800844e2be6adee9c61a40721159570a6da7fb3391d5cbb90dc6dcc",
    },
    "linf_n3": {
        "0": "396b27ccc997b47c663541e34b90abd51e65c4c022f4319b67064207785e7511",
        "1": "74e1a3e85780c8b753fda472d74e07a6a3c3b6b2986ce030a44d79ff6e294918",
        "2": "55674864ef38f94cfb0a1cc8abab59dc3d3b4b0c4bba04acaa7869d90d36be40",
        "3": "61e0ba15703551a011c4c180c1e33d7280a1dd0e54a3f979a9ff682f9edf7f8e",
    },
    "linf_n8": {
        "0": "8642ef245043866398a3ff1cf8e16bf17e82b3454940d3cc906f64284a81fe62",
        "1": "16654d953863a6fd116155097fb2afdac3d603542faff8804e81ee3bb0eb3c74",
        "2": "2ceb8352b5d038ac738b9d5852b351d778b760e3c7c68d3560de9a275a3326aa",
        "3": "0d6af86da799190418985286d7319ba87fc9e29bf37233c280aa34794c4fb593",
    },
    "poly_n2": {
        "0": "8834aece8d928cadde8d1cc5b447c3868629a170c8d06707901b88c54d45b793",
        "1": "e4ec194033fef1111f108bc501e2c7dac5477e56df14d4c85e8ff300c3750e30",
        "2": "7866192e15770388636ce74e798155491b9b22a775bf849e3bac5becdd38e2fd",
        "3": "7dae0a9d1f1a3bb4b42ed9e50ad66aae7c6269429fa2f6826a8f6247cc1a0804",
    },
    "poly_n3": {
        "0": "411f94f4f17e6796b66698bb8fb44ef07ae8fea1457fecacd27f37ce4941e0f6",
        "1": "e283393e35e95f672f9da8d758e4a6ef28da16c12a51b43ea6254779a91e1754",
        "2": "e634e6c4bcab95276af5a9b94209de0a77379edf133a4d5071157450f78b3c0a",
        "3": "991785d21d439fe5aa7ad000dfa2ebc32d1b84798e6773d483d908f96e2afcfb",
    },
    "wl1p5_n3": {
        "0": "69b230bdc5da935cc347e736326c2da585046edb93a18527bd655a523ab210df",
        "1": "cbedf347fb1ae5d6ec096c46a39357c1cdc6822691669ec36c13cb514603cfc3",
        "2": "0b0cd4c63c909f7ee5b676bae1c50e0529155cf3556f6dfac3feb9ec57e6f30d",
        "3": "9a67f5c95380798a139f71860dc425a202f78fa5cf1709956a2af96b37317523",
    },
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_certificates_and_outcomes_are_pinned(name):
    got = {str(seed): list(digests(name, seed)) for seed in SEEDS}
    assert got == PINNED[name]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_query_order_is_pinned(name):
    got = {str(seed): query_log_digest(name, seed) for seed in SEEDS}
    assert got == PINNED_QUERY_LOGS[name]


if __name__ == "__main__":
    pinned = {name: {str(seed): list(digests(name, seed)) for seed in SEEDS}
              for name in sorted(SPACES)}
    print("PINNED =", json.dumps(pinned, indent=4, sort_keys=True))
    logs = {name: {str(seed): query_log_digest(name, seed) for seed in SEEDS}
            for name in sorted(SPACES)}
    print("PINNED_QUERY_LOGS =", json.dumps(logs, indent=4, sort_keys=True))
