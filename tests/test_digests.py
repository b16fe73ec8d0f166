"""Byte-identity of certificates and trial outcomes for fixed seeds.

The SHA-256 of ``decompose(...).to_json()`` and of ``run_trial(...).to_dict()``
is pinned for twelve spaces at seeds 0-3.  A change that moves any bit of a
certificate (the matrix, the sign table, a residual, a discrepancy) or of a
trial outcome fails here.  So does a change to the order in which
``decompose`` queries the oracle: the SHA-256 of the bytes of
``np.array(oracle.query_log)`` is pinned for the same spaces and seeds, and
so is the layout of every probe plan: the SHA-256 of the bytes of
``np.array(plan.all_points())``, the row order of ``phaseiso gen`` tables, for
each space's own route and, from dimension 2 on, the ``generic`` route.
The table path is pinned end to end through ``phaseiso``'s command lines:
the bytes of the ``gen`` table and hidden truth, of the table-mode
``decompose`` certificate and of the ``check`` report (500 pairs, the
default cap on a 2,000-row table, and a failing check on a shifted table),
each with its exit code.
The digests were made with numpy 2.4.6 and its OpenBLAS on x86-64; a
different BLAS build can change the last bits of least-squares results.

Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from phaseiso import NormSpec, cli
from phaseiso.decomposition import decompose, plan_queries, route_for
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


def plan_routes(name: str):
    """The routes a run on the space may take: its own and, from dimension 2, generic."""
    space = SPACES[name]
    own = route_for(space)
    return [own] if space.dim == 1 or own == "generic" else [own, "generic"]


def plan_digest(name: str, route: str, seed: int) -> str:
    points = plan_queries(SPACES[name], route, seed).all_points()
    return hashlib.sha256(np.array(points).tobytes()).hexdigest()


TABLE_SPACES = ("l1_n8", "l2_n6", "linf_n8", "poly_n3")
TABLE_SEEDS = range(2)
BIG_TABLE_ROWS = 2000


def cli_digest(argv, *outputs) -> str:
    """SHA-256 of a ``phaseiso`` run's exit code and the bytes it wrote."""
    data = f"exit={cli.main(argv)}\n".encode()
    return hashlib.sha256(data + b"".join(Path(p).read_bytes() for p in outputs)).hexdigest()


def table_digests(name: str, seed: int, workdir: Path):
    """gen (table and hidden truth), table-mode decompose and a 500-pair check."""
    spec, s = json.dumps(SPACES[name].to_json()), str(seed)
    table, hidden, cert, report = (str(workdir / f"{name}_{seed}.{ext}")
                                   for ext in ("jsonl", "hidden.json", "cert.json", "check.json"))
    return {
        "gen": cli_digest(["gen", "--space", spec, "--seed", s, "--out", table,
                           "--extra", "100", "--hidden", hidden], table, hidden),
        "decompose": cli_digest(["decompose", "--space", spec, "--samples", table, "--seed", s,
                                 "--declare-surjective", "--out", cert], cert),
        "check": cli_digest(["check", "--space", spec, "--samples", table, "--seed", s,
                             "--max-pairs", "500", "--out", report], report),
    }


def big_check_digest(seed: int, workdir: Path) -> str:
    """The default pair cap on a 2,000-row l1, n=8 table."""
    space = SPACES["l1_n8"]
    spec, s = json.dumps(space.to_json()), str(seed)
    plan_rows = len(plan_queries(space, route_for(space), seed).all_points())
    table, report = str(workdir / f"big_{seed}.jsonl"), str(workdir / f"big_{seed}.check.json")
    cli.main(["gen", "--space", spec, "--seed", s, "--out", table,
              "--extra", str(BIG_TABLE_ROWS - plan_rows)])
    return cli_digest(["check", "--space", spec, "--samples", table, "--seed", s,
                       "--out", report], report)


def shifted_check_digest(workdir: Path) -> str:
    """A failing check: the l2, n=6 table at seed 0 with every fx shifted."""
    spec = json.dumps(SPACES["l2_n6"].to_json())
    table, shifted = str(workdir / "l2.jsonl"), str(workdir / "l2_shifted.jsonl")
    report = str(workdir / "shifted.check.json")
    cli.main(["gen", "--space", spec, "--seed", "0", "--out", table, "--extra", "20"])
    with open(table) as src, open(shifted, "w") as dst:
        for line in src:
            rec = json.loads(line)
            rec["fx"] = [v + 0.25 for v in rec["fx"]]
            dst.write(json.dumps(rec) + "\n")
    digest = cli_digest(["check", "--space", spec, "--samples", shifted, "--seed", "0",
                         "--max-pairs", "200", "--out", report], report)
    assert json.loads(Path(report).read_text())["failures"]
    return digest


def all_table_digests(workdir: Path):
    return {
        "tables": {name: {str(seed): table_digests(name, seed, workdir) for seed in TABLE_SEEDS}
                   for name in TABLE_SPACES},
        "big_check": {str(seed): big_check_digest(seed, workdir) for seed in TABLE_SEEDS},
        "shifted_check": shifted_check_digest(workdir),
    }


def plan_digests(name: str):
    return {route: {str(seed): plan_digest(name, route, seed) for seed in SEEDS}
            for route in plan_routes(name)}


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


PINNED_PLANS = {
    "l1_n1": {
        "one_dim": {
            "0": "4b93f92299bd75c7611c593fa50f8bc5c1cb76cf132b5fffc80c35e12f03da94",
            "1": "1c2cb366c5f90bec098245ddf7d691f0634a03ca9e56d37ae1b5e07528e23b95",
            "2": "d07cb86f2def40fd7a444fad66b792ef8e9dd46cb949e2b345fb9c6d9ed82687",
            "3": "28db11d6740964bbea6527c470cc07302e9aa996cdcb97117dae3d9a4102949a"
        }
    },
    "l1_n3": {
        "generic": {
            "0": "267e52d0a8ba16b36af385f397b7034a01af3e0cf02137c1452b394013b64a43",
            "1": "7e21da8a6e03d276ad3ebacb561d1e22cfc0bd0bf345ab991ace4ddaf5f57c04",
            "2": "1980ce9d52a00dcf17a040a1ce80358c2cf9d01738e00f63aee867d5b2d77d2e",
            "3": "084e037c44ec3c95db6e3c5bb1bf190cdd72fe695ac5892a98b32b939ee96d2b"
        },
        "l1": {
            "0": "51213551aa17b32ffe72b2fa8398bb441dfbc5c298f29deabc8f416efaff584d",
            "1": "29f62278116580590dc3bc5f843ec63ef37665e4ab689c368025d474849b9bc9",
            "2": "6ff0340ac783a0b5196922be307aa8d23fff60fff48ba1f5d9ebe74bb1a2fc15",
            "3": "7e4c766fdaddc78fc909922e45ce1132ef2ff8ba5bba15bb887c138c282abe86"
        }
    },
    "l1_n8": {
        "generic": {
            "0": "4d527f10cb4f7a59f3de8856d70b5f1e6a30a9ddb7b54183db5187bbee92ff9f",
            "1": "e90c905a95699029e1590fe0d313b28f31c36c3922363a2c8e0db1ad93b930b2",
            "2": "eb9a576579e4f828d61825c04a996d84ee3d87f4a224a5848e6009b4b175baea",
            "3": "047618ed94dab9c7a5fc0f8a0a8ad7ffd564648295d74639322dc9d4ebcbbf7c"
        },
        "l1": {
            "0": "79390dd111a6c63412560426b7c99717832353fb20e0bed408361eb9ea4d325d",
            "1": "10539cb83a8b57e798b3520c912d2f704fcc72cc0435ae177cd76e261d765bcd",
            "2": "8a60c9966c2c546feee83041ae6defbc8152ab8d984a8799111feedffea715cc",
            "3": "dcf4f13e64c1519a34b139a388ad4732d979f4b5efdfff3cd393d571b679a029"
        }
    },
    "l1p5_n5": {
        "generic": {
            "0": "f685c8bd4b570637032e826da54411bfa5ea66664f87633c2b120434ae13316b",
            "1": "07a1a5c8b3a071be07f344111fb2babb9c7f01eaed1af97260839f83c1b3d046",
            "2": "c25a359d654cb826d12913379c6569b2201642d09773c7945871f0870e07b78c",
            "3": "ace89dfa308b3352708e748acc6ef9b831f5b8001b84e8d3e225289b150d8ae8"
        },
        "smooth": {
            "0": "f45d51eaf2a166b4bd61819039ead45d8398f1afd6bed2f648899f6ff744a26e",
            "1": "1be2060959fecf6a184c9c320a76e94972d3650400f0873931c674be5ca126c4",
            "2": "a985706c66e1ab8ac3693feac2d1835ce8da68a3c70149004c5028ad6ca7be26",
            "3": "cf8d41efe84ac5aa5a7a3f563b241d203cb5c23531b360b7512cfe21005175de"
        }
    },
    "l2_n2": {
        "generic": {
            "0": "5b6e2028ff12508e45cc6854b6c80475dd21d22a9ab5f3d41a7f68cd6a44e70d",
            "1": "b0b0626893878e730a93f3f69b7f4dc3cc51c8ba8fef4b14311528b8edaaa461",
            "2": "6b97bfe1264bd9fb04e8288261d83c82655ea035b2c78d3c749b0fab408cc0a6",
            "3": "fbfb4566cc76505c0e71907653e8be8cea6f2ded497308899946d5fd8fbcae84"
        },
        "smooth": {
            "0": "5b6e2028ff12508e45cc6854b6c80475dd21d22a9ab5f3d41a7f68cd6a44e70d",
            "1": "b0b0626893878e730a93f3f69b7f4dc3cc51c8ba8fef4b14311528b8edaaa461",
            "2": "6b97bfe1264bd9fb04e8288261d83c82655ea035b2c78d3c749b0fab408cc0a6",
            "3": "fbfb4566cc76505c0e71907653e8be8cea6f2ded497308899946d5fd8fbcae84"
        }
    },
    "l2_n6": {
        "generic": {
            "0": "1ecd66f9b50dad10b71911d76c4f7c55264d576df8ea1548c27078ea0dbc20af",
            "1": "862bd705abfa423805b0da2cf5db5a76a447c21e7ff7ad645b1572e10bb8df8b",
            "2": "672533e194dc4c780ce44af291055a20ae17c2182e2a46f6402c8ac75f19d636",
            "3": "88416d9d5ba163de10004a43e1e5c2e4317305be163a02f9e67c08cd094fbf1d"
        },
        "smooth": {
            "0": "acffca5de7585e037af7e781262992d6548be486fe4ee996a7d0e13199a937db",
            "1": "02ad0297a5be2c4397334953cd91eeeaeb942f241d448b1674edb50671c874b9",
            "2": "470e7e3cc76305fa844c6bff97755cfcb314fba3e40ace053b24df0db36c401f",
            "3": "d8b881386d77881317e964d77b492ccd84da5d735aec1ed543c2240e99b549a4"
        }
    },
    "l3_n5": {
        "generic": {
            "0": "f685c8bd4b570637032e826da54411bfa5ea66664f87633c2b120434ae13316b",
            "1": "07a1a5c8b3a071be07f344111fb2babb9c7f01eaed1af97260839f83c1b3d046",
            "2": "c25a359d654cb826d12913379c6569b2201642d09773c7945871f0870e07b78c",
            "3": "ace89dfa308b3352708e748acc6ef9b831f5b8001b84e8d3e225289b150d8ae8"
        },
        "smooth": {
            "0": "f45d51eaf2a166b4bd61819039ead45d8398f1afd6bed2f648899f6ff744a26e",
            "1": "1be2060959fecf6a184c9c320a76e94972d3650400f0873931c674be5ca126c4",
            "2": "a985706c66e1ab8ac3693feac2d1835ce8da68a3c70149004c5028ad6ca7be26",
            "3": "cf8d41efe84ac5aa5a7a3f563b241d203cb5c23531b360b7512cfe21005175de"
        }
    },
    "linf_n3": {
        "generic": {
            "0": "267e52d0a8ba16b36af385f397b7034a01af3e0cf02137c1452b394013b64a43",
            "1": "7e21da8a6e03d276ad3ebacb561d1e22cfc0bd0bf345ab991ace4ddaf5f57c04",
            "2": "1980ce9d52a00dcf17a040a1ce80358c2cf9d01738e00f63aee867d5b2d77d2e",
            "3": "084e037c44ec3c95db6e3c5bb1bf190cdd72fe695ac5892a98b32b939ee96d2b"
        },
        "linf": {
            "0": "a5778cb59f2be0d60b63cbb672491c3d49c034ba49dd0d78985cdaaf3e648f79",
            "1": "25d4c8a0d01dd4e169a61c8a438785947ae2ba0d0104fe0ffe98ed1c4df9fe7e",
            "2": "14140ef2c2615d908a9a3084dbb550fc3a90f8c52fe30f191f91c00058f290e0",
            "3": "897608c67b81d1ef542fd6c566b7b18eb6e1c97f933d1decc14203e4340c8593"
        }
    },
    "linf_n8": {
        "generic": {
            "0": "4d527f10cb4f7a59f3de8856d70b5f1e6a30a9ddb7b54183db5187bbee92ff9f",
            "1": "e90c905a95699029e1590fe0d313b28f31c36c3922363a2c8e0db1ad93b930b2",
            "2": "eb9a576579e4f828d61825c04a996d84ee3d87f4a224a5848e6009b4b175baea",
            "3": "047618ed94dab9c7a5fc0f8a0a8ad7ffd564648295d74639322dc9d4ebcbbf7c"
        },
        "linf": {
            "0": "0399ce411b4daa2946d3e6c3d5ca784330b2a0efa57966b6ceeb9ed8622ea52d",
            "1": "90811790764ce94099cfcd3e87eb3508714e6468977574329592e59b5e23906e",
            "2": "bacd69e80f2045bbe8d584d678b1d809f8f70f76c537948aed10af9489eb5c97",
            "3": "8e6645208d2fe0225a274ad4f6f50df05bc8c699ced78f76016a225bf691d9ee"
        }
    },
    "poly_n2": {
        "generic": {
            "0": "1a6ac1c7d1fb0985ea40a56d75697ad3812ed93b66df96a0b4e2d1072f05ce97",
            "1": "485ca9fb1a8d562f35253b30a38e000bba1b061cc42808af6f9a6253657dfd83",
            "2": "07b289a3b964da71358bcfbf5270c9f2d9e629727d92b6fa648e72497105071b",
            "3": "a97f8128fe98175f1ba8a20a1c5f01067125bd7d7fc7b880e9ec40694e10cf1d"
        }
    },
    "poly_n3": {
        "generic": {
            "0": "267e52d0a8ba16b36af385f397b7034a01af3e0cf02137c1452b394013b64a43",
            "1": "7e21da8a6e03d276ad3ebacb561d1e22cfc0bd0bf345ab991ace4ddaf5f57c04",
            "2": "1980ce9d52a00dcf17a040a1ce80358c2cf9d01738e00f63aee867d5b2d77d2e",
            "3": "084e037c44ec3c95db6e3c5bb1bf190cdd72fe695ac5892a98b32b939ee96d2b"
        }
    },
    "wl1p5_n3": {
        "generic": {
            "0": "267e52d0a8ba16b36af385f397b7034a01af3e0cf02137c1452b394013b64a43",
            "1": "7e21da8a6e03d276ad3ebacb561d1e22cfc0bd0bf345ab991ace4ddaf5f57c04",
            "2": "1980ce9d52a00dcf17a040a1ce80358c2cf9d01738e00f63aee867d5b2d77d2e",
            "3": "084e037c44ec3c95db6e3c5bb1bf190cdd72fe695ac5892a98b32b939ee96d2b"
        },
        "smooth": {
            "0": "ddfc66d7808a619f65be6f00819b9246fc0bec2e210b2c730a7f8f1f623abe68",
            "1": "83fe4029bb861916a80dd570e9980a712d8cbeee3fc8a265a21f14396e678523",
            "2": "ec76a45e23d0efe268f28cd5c95c847d53f055ce1b1c84707b57e4d072fd8aa3",
            "3": "3e7ec91a6c52071e66fdc14a1c130f79c3d6e01158779a35aca2a4b158c98c6d"
        }
    }
}


PINNED_TABLE_PATH = {
    "big_check": {
        "0": "f7a2f2c996df3941992d2e1e785135ff799d89873b93f907feb95a638a9efd44",
        "1": "f7a2f2c996df3941992d2e1e785135ff799d89873b93f907feb95a638a9efd44"
    },
    "shifted_check": "6b06f9d9b0bc9b6b50b3939ce5759ba7a74d5a94d09f4207b0c2ea95ca452994",
    "tables": {
        "l1_n8": {
            "0": {
                "check": "0bb32323ea6f5012e1d7b3c40e5a762516d7ba6242576b225441ec1aae4212b2",
                "decompose": "236b1c09c0bd4050b83520973f2787b705d22c8fb6b5fe81e9cdb6c83b8dabe9",
                "gen": "c60910a1f35be43293bc67cf74be3257cf68dd3847e799afe58f9923729537f3"
            },
            "1": {
                "check": "e11e8e288f24833e0115b77d3591416b10248651dd83bedac13ade86d56a9e23",
                "decompose": "e208a02c37000ef4707b9c77e62ed99c8eab067cd774c28f84a61e524a2881a2",
                "gen": "aa295dc4f471329eae4b2882a8cc430d026fdbafae4ab0e7ccef4ca16f7cb846"
            }
        },
        "l2_n6": {
            "0": {
                "check": "f89a4bcea5db8e841387bc379bfcf81c2903c53610b773331c847f3ed0399247",
                "decompose": "df356b24579fc4979ea4d19fd5fb5ea1655ff2f1561ceb67d1adbf0c1687427e",
                "gen": "4403742af9ba75acfb455feeb933a9e668f212e2135303d89176c5109039549d"
            },
            "1": {
                "check": "d13ee0d9bed3b16b9fa5f3a2e060aa93365350ecacaf81358f39d1302f1fb6fd",
                "decompose": "d9642a729a622130ea7cc0e38f5aa4c8bf361468861c1a285602a41ef8dfb241",
                "gen": "9e54b86405ed4ece7171934077c964ef17f28af022e63597ed8c691071454d6d"
            }
        },
        "linf_n8": {
            "0": {
                "check": "d4d24a26a38bfb8ab9b51acae851567eb1387a3871e159898cc7fadc87c9e0b3",
                "decompose": "a2f9a314c3a1722275b548c7cae53215840d41f7781bdbedf5801e517c01d8ad",
                "gen": "c8d45b7d837fcd10b3d60b773fec4e154ed8ce76ce0f19fd6b89d7e5e9758b74"
            },
            "1": {
                "check": "d4d24a26a38bfb8ab9b51acae851567eb1387a3871e159898cc7fadc87c9e0b3",
                "decompose": "1bd7addc7c63654688143656f3c645c334a4ce910d313e59f0eec4d9e4e5fb4a",
                "gen": "583ddf6ee0f8d191a2cfb2aba678a4a7640ed0ce1689a31e1b6fbd54de14f249"
            }
        },
        "poly_n3": {
            "0": {
                "check": "d4d24a26a38bfb8ab9b51acae851567eb1387a3871e159898cc7fadc87c9e0b3",
                "decompose": "b4f1b31fd29ed9d19d0b3f85c67e23b5bea98fbe7803d08eb69057b65abbf05a",
                "gen": "f7ad492050060453e5530e4c2f9da8eb07351e1482f325c4f1dc466adf22fa95"
            },
            "1": {
                "check": "d4d24a26a38bfb8ab9b51acae851567eb1387a3871e159898cc7fadc87c9e0b3",
                "decompose": "c8ff69a1d42faedc7d772c02988645ea398c7f6597ff74b1f408c966e12227bf",
                "gen": "0a45a5850a3d21ab5acf0a4ac74076a9d30af5dfd8d6eb79267af2fd702cfa15"
            }
        }
    }
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_certificates_and_outcomes_are_pinned(name):
    got = {str(seed): list(digests(name, seed)) for seed in SEEDS}
    assert got == PINNED[name]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_query_order_is_pinned(name):
    got = {str(seed): query_log_digest(name, seed) for seed in SEEDS}
    assert got == PINNED_QUERY_LOGS[name]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_plan_layout_is_pinned(name):
    assert plan_digests(name) == PINNED_PLANS[name]


@pytest.mark.parametrize("seed", TABLE_SEEDS)
@pytest.mark.parametrize("name", TABLE_SPACES)
def test_table_path_is_pinned(name, seed, tmp_path):
    assert table_digests(name, seed, tmp_path) == PINNED_TABLE_PATH["tables"][name][str(seed)]


@pytest.mark.parametrize("seed", TABLE_SEEDS)
def test_default_pair_cap_check_is_pinned(seed, tmp_path):
    assert big_check_digest(seed, tmp_path) == PINNED_TABLE_PATH["big_check"][str(seed)]


def test_failing_check_is_pinned(tmp_path):
    assert shifted_check_digest(tmp_path) == PINNED_TABLE_PATH["shifted_check"]


if __name__ == "__main__":
    pinned = {name: {str(seed): list(digests(name, seed)) for seed in SEEDS}
              for name in sorted(SPACES)}
    print("PINNED =", json.dumps(pinned, indent=4, sort_keys=True))
    logs = {name: {str(seed): query_log_digest(name, seed) for seed in SEEDS}
            for name in sorted(SPACES)}
    print("PINNED_QUERY_LOGS =", json.dumps(logs, indent=4, sort_keys=True))
    plans = {name: plan_digests(name) for name in sorted(SPACES)}
    print("PINNED_PLANS =", json.dumps(plans, indent=4, sort_keys=True))
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tables = all_table_digests(Path(tmp))
    print("PINNED_TABLE_PATH =", json.dumps(tables, indent=4, sort_keys=True))
