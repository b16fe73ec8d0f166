"""Byte-identity of certificates and trial outcomes for fixed seeds.

The SHA-256 of ``decompose(...).to_json()`` and of ``run_trial(...).to_dict()``
is pinned for twelve spaces at seeds 0-3.  A change that moves any bit of a
certificate (the matrix, the sign table, a residual, a discrepancy) or of a
trial outcome fails here.  So does a change to the order in which
``decompose`` queries the oracle: the SHA-256 of the bytes of
``np.array(oracle.query_log)`` is pinned for the same spaces and seeds.  The
set of queried points is pinned apart from its order, as the SHA-256 of the
logged rows sorted lexicographically, so a change that only reorders the
queries moves the order pins and keeps these.  The layout of every probe
plan is pinned too: the SHA-256 of the bytes of
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


def query_set_digest(name: str, seed: int) -> str:
    oracle = generate_phase_isometry(generate_isometry(SPACES[name], seed), seed)
    decompose(oracle, seed=seed)
    # + 0.0 as in the cache key: of two points equal but for a zero's sign, the first is logged
    rows = np.array(oracle.query_log) + 0.0
    return hashlib.sha256(rows[np.lexsort(rows.T[::-1])].tobytes()).hexdigest()


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
        "3": "10af7d3185ce1de0a80b5268c33b03d5d2e1d2539464b9bab69a1c909c67e3e2"
    },
    "l1_n3": {
        "0": "6cf99407cfce8c223c3135d95f205cfe36a739a1e5ee1fa77846ba40db347440",
        "1": "4679eb04cb24be2dfe8a70510c3002f855c2f18e590e0421cac790027760b6d7",
        "2": "6c8303b23747f0eee165da5acd96a8873c49bba3bfdc7c05b40be7346743f7a4",
        "3": "42b3841aff5f0b69ae01bf01a908d41006df204bac0398e21cdae0f94aed6e57"
    },
    "l1_n8": {
        "0": "7bea680b7c946e757991294343fae869ec16b8b787a0854d2e34ac4784ca6d61",
        "1": "e1eda3cda87d1b954668aafde47873e821e4d89b096dc7f69c312749752f28f2",
        "2": "0a975dd72ecccd99e1e4bf7637c2e790d40ca54ebbc6d9bb7fe0b9a828eb43fd",
        "3": "384f9eb76c53c64e5fb95d060853a78bd97e964bb203cd21cc35e97dbdc04b0e"
    },
    "l1p5_n5": {
        "0": "40846053409eb4b99b7bb64d635680cf3c35dc405c179802be461623dc44d753",
        "1": "e6f4b4099d5d012904101bb607afff9ff9a9449334d090478105c6ee0618ae8e",
        "2": "4062852dfe49c5804b86cad47d594baa721526bd1f50d8b050a5eef3497b15c9",
        "3": "0b2009ee8e2d64ebdf52b60f544acd8cc1537ad4358c7a8b46a655d5bf3d4558"
    },
    "l2_n2": {
        "0": "fa1038899d834bb56b311a05131702624332206613a3cf5034d1a21fe4cc0dfb",
        "1": "f0f2489f1c528bc4167ac4fcd5cfc3aa261006eb606663a8c556ebdf877c69ef",
        "2": "7cfab007ce4e7282cdbb0f0d3de97d9e987a397457e60d7e6843886af431464e",
        "3": "c8b6fd76fee3b2853dad4274a67eb044c90bb6c4ff56f98e81d56779ab374454"
    },
    "l2_n6": {
        "0": "54f0274dfda271453c7dff57b62dcfd9f4ae47a9bb8b646d796637fb2da19d72",
        "1": "9435cc6be2fe4093a1604bb6ab85c56b55c22afbf5c738ad41fd14068b126b62",
        "2": "c84088d96d7683cff99f0e884ce737e1fe046952ee086c3932a03e0d906d4358",
        "3": "5a7627e92a91549f30917c87af6b6a0c54c66d0265796cfab194da386473a961"
    },
    "l3_n5": {
        "0": "40846053409eb4b99b7bb64d635680cf3c35dc405c179802be461623dc44d753",
        "1": "e6f4b4099d5d012904101bb607afff9ff9a9449334d090478105c6ee0618ae8e",
        "2": "4062852dfe49c5804b86cad47d594baa721526bd1f50d8b050a5eef3497b15c9",
        "3": "0b2009ee8e2d64ebdf52b60f544acd8cc1537ad4358c7a8b46a655d5bf3d4558"
    },
    "linf_n3": {
        "0": "f2bb551dd8e5263c212958d4e6d79ebd82043e5a19f4838eeed5b01747e14e2b",
        "1": "05f360f5a2a046773813386b9b63914dc0e698c8300520aef74374efcde45526",
        "2": "6f8f6973bc7942123ddfc5211c1197622b86045892b9ff6a2bab7ab460b9b620",
        "3": "140c659a9c42d3253f5b2443ffa2dc0ae61324a1ea015163646cf7f68907b3c1"
    },
    "linf_n8": {
        "0": "1ed624229bb139d8437abff8b5d838fe8f94ec3a88ce74305eb56be09f903112",
        "1": "0e4888e26e6f11e93213fec5eafa9282a43be02485ff2c2f1cb8716b6b30b045",
        "2": "57d2faf17cc079dfd95e714ae983b4255799e03b5db188261177bb71fa238a8f",
        "3": "e9a2fe79490552e2abd44b497e4b535bc97177a1a475ea93aa983aad7cfb3f1e"
    },
    "poly_n2": {
        "0": "c76d76883a0ae082859ee6b3ffd2c0bfd23352d6f0091b3608f33871c81d2183",
        "1": "4e0206d6c016b6a0ff7cb7b7076d938fab644a31feeee4c1345cea3bc67e34b7",
        "2": "c2a42928eb9de6d96803b3e1bc62b5c3bcd755ba4857f5f737e07b3d4c4afe44",
        "3": "b4c81388bc2470b08bf915b80ed55867f3d6a9a8530b2ec5a2ab23268439373d"
    },
    "poly_n3": {
        "0": "df0e2399822e61f143e45785ce685f35b827e59090dbf12e916d3bcb05b5f822",
        "1": "0998e7f79c500f1296805b144b7bd7374af38b91af648ae4f0bb76f88a2b9e1f",
        "2": "c9d40707a58f37f542a88cad4be5304ac98c46c3d700333e0eb30f9b41ba8779",
        "3": "f13c828d30d2e9be49f8b3056841278dc83dbb58704b38c3302c1913fffc62c0"
    },
    "wl1p5_n3": {
        "0": "8a3ada6cbb60a80fbad1483fac59b0839dcb5f23310131c17264aafe1e61db2b",
        "1": "f55dce5a1d0d783d9860b3128b7519d698fb30efb189da3c88ccec316f5771bb",
        "2": "c0b889d28f90dea0bc04f08688e2603ce4ea217df9651e0b249f97c5e2dceed5",
        "3": "8030a37f086d57f04c58dc17c9a07a5937b2b8e7892f79cad4de482053ee2cd8"
    }
}


PINNED_QUERY_SETS = {
    "l1_n1": {
        "0": "33df9db0cbaf8efd719e9c8bd246d5619f04ba2ebdffeff3da497daa60c0e0c7",
        "1": "ef12e112f8a4287987c54ec44de9d3b0a119a2066a6a8903c0fe95f2b7343439",
        "2": "21ba63dfafa4454d519ef2f2654405478c6bdf6fa161bf9e4a2c9446cd43069d",
        "3": "9d3d146a4ea37122d9b05585eb33de368ffe9c8d07ea2d9684996f324705aa73"
    },
    "l1_n3": {
        "0": "5c2e8d751ecf42b313b5b188d3bbf77f098f4da5e3a17c90deed4717a4e8ea79",
        "1": "217b615a7b3fb0a8add0da1a30b4d7a211238452133f8bb4e50472e442a98689",
        "2": "c7474d10d51dba11de06e23ec861d47c45935f987e810b16cf01f2e51b584f04",
        "3": "232e6b2e8f2175c59a6dc9d8938da6cab3d3c18c98d6157d7531bcb00280dc94"
    },
    "l1_n8": {
        "0": "0945de20f64e5320e81a1ce3151abbd3c49dfed56288d09537226e77b39204da",
        "1": "eb5327cf57641a59e4e0297acb4e52639f0eb0eac886a44b6e9068933f87b04e",
        "2": "794b47a61abf42cd3e57f1e97d2f079a8b4a8dbf16bdd34c25804f58af6c8d4b",
        "3": "4ba0397dc24806405cf02be2d59e8886c3b471f9bfe2c7751c80c23839bbfaf8"
    },
    "l1p5_n5": {
        "0": "f20e4cd815c48c151e13efef18c0ea5340b9fe941550dfd16ffc54a5f79c0b2e",
        "1": "efe4eaba560394a76f9d201a6a7a88425562ba7a420ddfbc3d77d3e63a1e0c49",
        "2": "6a1c1d659aafec9dd0aed7fdb302a83f736f8955463f3ed019cd0c703a3ea812",
        "3": "7d759ad1058b131aff0c218f1e907e279f3bf6d797334550b276128d9dbb4f99"
    },
    "l2_n2": {
        "0": "4e7f6c01aa3d1c265f2ba03d0196e8eb8cec153c1b06b801ae8120e6d9d498bc",
        "1": "73249ec1ed718527d5b1abac95903304732a00daeb6e9b6cfffd954a8066ff80",
        "2": "e1a0f18e4b6ddb0967a80303ff85a8f7c2ca85ff45ab9209e81e5dd7b0d3f2cf",
        "3": "8926b6e9632262359aaa7eddadc871d27b777b3767742fe74d71194f357c9d92"
    },
    "l2_n6": {
        "0": "cb70f05771543de1da4d2cbf201abeeb49474e39454da04b33cbc724b347c639",
        "1": "56648ec9cbfa3fd0c631b8afbbdc0c99b63e616c1bfca173ef0d358afc660a9c",
        "2": "3a1451170b224489d6135d18bf5b39e97a90b8abddd4658341bc457ebb2172ad",
        "3": "64f3ae2220505f31aa392b31c43bdd3145212345ae5d6a640a3689422e3abaea"
    },
    "l3_n5": {
        "0": "f20e4cd815c48c151e13efef18c0ea5340b9fe941550dfd16ffc54a5f79c0b2e",
        "1": "efe4eaba560394a76f9d201a6a7a88425562ba7a420ddfbc3d77d3e63a1e0c49",
        "2": "6a1c1d659aafec9dd0aed7fdb302a83f736f8955463f3ed019cd0c703a3ea812",
        "3": "7d759ad1058b131aff0c218f1e907e279f3bf6d797334550b276128d9dbb4f99"
    },
    "linf_n3": {
        "0": "9c7801831cb64ea4e97783544347d554a8b39613dbc14f1dec767f8a2d004123",
        "1": "31b276dda0db941f80451c526db6d329ffb611c236119119b7ba8b13ea38d611",
        "2": "0fc0834abd2c5a772c3ec7f2eda8e8663e77db6e63a13b4be7a7bf00805ca9a1",
        "3": "6fc25b423c3cd21652129e2e3cda50b3d6c61de9816cc77bb70b40550f1dee71"
    },
    "linf_n8": {
        "0": "77130ae4440d38d9a6413b98eaffed3259fa6424d1cdb1309b45feae1fe44582",
        "1": "ed8329707b88c9e9da9638c538c907ebedb67aa3f62d3c8aec353008514e1034",
        "2": "90e53fcb3141f10489381ed596745b9bbf2387bef60ce6af9a1cc1b14396365f",
        "3": "0896e2dab3f2102de39f66df9986a27d90025e127ddc5388f72b78f9e7c69c87"
    },
    "poly_n2": {
        "0": "e7a7e32af63146e7df889f1a262a7e1ba7678b930d188db71c4b9e0a41a25b83",
        "1": "8fd21c8680e2965e5982ac6bc0866c65a5e12230a5cfbe03ec217a3c970937ee",
        "2": "1d4d21b59b9a631588e9ccc84b7b3b178211c117fc8b2fc82a7ea8b4ddca7843",
        "3": "369cfc763a1c83f2576126421e1d266957205a71d1df009f2118ef29c36dc21a"
    },
    "poly_n3": {
        "0": "cb23d0ca7cbbdc70dc49854e5e2d093a1d0dbcd5673524c288d6b18767efb3b6",
        "1": "96f67839f0dd96b3e2257a603876f9e1d60313264f31264e516b1ee9689cff1a",
        "2": "93dfd4deffd2490c8bc68b075697c980fc4e6d6044f177114065620c316a3a6b",
        "3": "2a449a81edcfe0b9fb00ce90f4d4f6b103636f9ef3b65e94351f906017ab5e84"
    },
    "wl1p5_n3": {
        "0": "2c53c7b1abad1c52776151f8ce3c5c7f3715a767711acff012e24ced40c3a4e6",
        "1": "acd5c60f4f06ceac4548ac0daaaece199c54f34bd3960562af286233f071f873",
        "2": "a410fe892ddfe98c688ec4b80658c335eef43881b0ac927a6d223623ee124695",
        "3": "76d6f2fdca2323a49220b44e527280c0ecaed94c18836115ea82708447a57df1"
    }
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
def test_query_set_is_pinned(name):
    got = {str(seed): query_set_digest(name, seed) for seed in SEEDS}
    assert got == PINNED_QUERY_SETS[name]


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
    sets = {name: {str(seed): query_set_digest(name, seed) for seed in SEEDS}
            for name in sorted(SPACES)}
    print("PINNED_QUERY_SETS =", json.dumps(sets, indent=4, sort_keys=True))
    plans = {name: plan_digests(name) for name in sorted(SPACES)}
    print("PINNED_PLANS =", json.dumps(plans, indent=4, sort_keys=True))
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tables = all_table_digests(Path(tmp))
    print("PINNED_TABLE_PATH =", json.dumps(tables, indent=4, sort_keys=True))
