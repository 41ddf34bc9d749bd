"""Report text pinned by digest: one small config per suite.

Each entry is the SHA-256 of the ``strip_timing`` table and JSON reports
of one run.  A change that alters report text on purpose updates the
digest here and says so in the change log; any other change must leave
these runs byte-identical.  To print the current digests, run this file
as a script: ``PYTHONPATH=src python tests/test_report_digests.py``.
"""

import hashlib

import pytest

from unitcat import duality as D
from unitcat import suites as SU
from unitcat.instances import parse_instance, parse_tnorm
from unitcat.reports import emit_report, strip_timing

GENERATORS_DOC = (
    '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
    ' "poset": {"leq": [[1, 0, 1], [0, 1, 1], [0, 0, 1]]},'
    ' "functions": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]]}'
)

# Generators on the same vee whose act-and-join closure is not every
# function: the closure falls through to its tensor worklist.
FALL_THROUGH_DOC = (
    '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
    ' "poset": {"leq": [[1, 0, 1], [0, 1, 1], [0, 0, 1]]},'
    ' "functions": [["0", "1", "0"], ["1", "1/2", "0"]]}'
)

# (suite, tnorm, grid, max-size, corpus, instance document or None)
CONFIGS = (
    ("quantale-axioms", "lukasiewicz", 3, 2, 1000, None),
    ("quantale-axioms", "product", 2, 2, 50, None),
    ("monad-laws", "lukasiewicz", 2, 3, 1000, None),
    ("representability", "lukasiewicz", 2, 2, 1000, None),
    ("representability", "min", 3, 2, 1000, None),
    ("functoriality", "lukasiewicz", 2, 2, 20, None),
    ("total-partial", "lukasiewicz", 2, 2, 1000, None),
    ("total-partial", "min", 3, 1, 1000, None),
    ("stone-weierstrass", "lukasiewicz", 2, 3, 1000, None),
    ("stone-weierstrass", "min", 3, 2, 1000, None),
    ("stone-weierstrass", "lukasiewicz", 2, 2, 1000, GENERATORS_DOC),
    ("enriched-roundtrip", "lukasiewicz", 2, 2, 1000, None),
    ("enriched-roundtrip", "min", 2, 2, 1000, None),
    ("lemma1", "lukasiewicz", 2, 2, 1000, None),
    ("lemma1", "ordinal:0-1/2-lukasiewicz", 2, 2, 1000, None),
    ("twovalued", "lukasiewicz", 2, 2, 1000, None),
    ("tensor-maximality", "lukasiewicz", 2, 1, 1000, None),
    # the runs whose C(X) spaces are reused most
    ("tensor-maximality", "lukasiewicz", 2, 2, 1000, None),
    ("twovalued", "lukasiewicz", 2, 3, 1000, None),
    ("total-partial", "lukasiewicz", 3, 2, 1000, None),
    ("enriched-roundtrip", "lukasiewicz", 3, 2, 1000, None),
    # the enriched audits under tensors other than Lukasiewicz
    ("tensor-maximality", "min", 2, 2, 1000, None),
    ("lemma1", "min", 2, 3, 1000, None),
    ("enriched-roundtrip", "ordinal:0-1/2-lukasiewicz", 2, 2, 1000, None),
    # min has idempotents besides 0 and 1: every grid row is lax
    ("twovalued", "min", 2, 2, 1000, None),
    # the distributor maps: the benchmark's functoriality run, whose
    # sampled pool reaches size 4, and total-partial at size 3 and grid 5
    ("functoriality", "lukasiewicz", 2, 4, 500, None),
    ("total-partial", "min", 2, 3, 1000, None),
    ("total-partial", "lukasiewicz", 5, 2, 1000, None),
    # the functional scans over join-irreducibles: the benchmark's scan
    # config (tenlax in the cut), size 3 under both tensors, and the
    # fullness scan under min at grid 3
    ("representability", "lukasiewicz", 3, 2, 1000, None),
    ("representability", "lukasiewicz", 3, 3, 1000, None),
    ("representability", "min", 2, 3, 1000, None),
    ("enriched-roundtrip", "min", 3, 2, 1000, None),
    # the functional scans where (n+1)^|J| is large (7^12 and 5^8): both
    # still run over every join-preserving table
    ("representability", "lukasiewicz", 6, 2, 1000, None),
    ("enriched-roundtrip", "lukasiewicz", 4, 2, 1000, None),
    # all 242 posets of size <= 4: the scan whose cut is decided on J for
    # every survivor
    ("representability", "lukasiewicz", 3, 4, 1000, None),
    # the benchmark's sweep runs (its lemma1 min g2 m3 is pinned above):
    # closures, separation and density on masks, C(X) by admissible
    # levels, the monad-law unions from lower covers
    ("stone-weierstrass", "lukasiewicz", 2, 4, 1000, None),
    ("stone-weierstrass", "min", 2, 4, 1000, None),
    ("lemma1", "lukasiewicz", 2, 3, 1000, None),
    ("monad-laws", "lukasiewicz", 2, 4, 1000, None),
    ("stone-weierstrass", "lukasiewicz", 2, 1, 1000, FALL_THROUGH_DOC),
)

DIGESTS = {
    "quantale-axioms lukasiewicz g3 m2 c1000": (
        "b210783897cc669fa31d31d8b2296464a5099f2333f34b0196a712316fa6b8f0",
        "7f96f85fff0bf2bb6333ae7b2a41a51e1a1e7b0c4e8d205424b2ec735397ab45",
    ),
    "quantale-axioms product g2 m2 c50": (
        "656e63bc6b82510475e1ca52ff919b9a7d021c9242b9f0b2dd5820d2b2f922ed",
        "16444c63a0cab48b1ed8deb3000b5f001aec45c2750514c0474bd95287c83e47",
    ),
    "monad-laws lukasiewicz g2 m3 c1000": (
        "f9f1115cd0ed2e212828a932bfbd72ea6522117d8a3e9152718af83e842d3b2e",
        "4380e1af21a201be4b906585c80940f77fd58c43a709e5cc88460059c98f65e8",
    ),
    "representability lukasiewicz g2 m2 c1000": (
        "996ea0990da480d533866b0f41785fe51f8f08a76b388b5eeea1c20727c7a9e3",
        "fb692ac6fd19fa8474e93807600c64b5c825c97c77f357dd7cc86047c5db3ea3",
    ),
    "representability min g3 m2 c1000": (
        "73684abfce5e1f9bb0a20f0c866b64fc91fc24153789ee7cee975fe1a1eb0766",
        "702c4d9ceab097f1737e4649ad15bb7c4bcf1e1a1d2c7b3db4b38862be33b38c",
    ),
    "functoriality lukasiewicz g2 m2 c20": (
        "0a353cf71482f315a7139323ddac11eccc7731895cc94f6583b0a7da7492eddf",
        "79be220a9e762e89cbb12c44162f19ec4cc56ba66db6f4c392a087756725ba80",
    ),
    "total-partial lukasiewicz g2 m2 c1000": (
        "223f6a8a222f4d0194e75ab1d8818aa591bf2fc182cb024b46174f955e0e528a",
        "878a677029e41679b9450a9549f7a4a6500762710df3d19cfaec31abb7ea21a9",
    ),
    "total-partial min g3 m1 c1000": (
        "71e052fe1f4b782734ad9d65d00c4124f028154a86437785705ae0ed28eba50d",
        "713d63fc1ca07e2126bd43c7ae63c5b1bf5e288bed00ff692526e27a13adc0d9",
    ),
    "stone-weierstrass lukasiewicz g2 m3 c1000": (
        "40721c871c3950accaeff1f099cffc9d699e8927098704b686a877e8db35733a",
        "a865964c1d26c45c662bec32fe184ef6d90a5c9ea3350081e55b442f2a91f05c",
    ),
    "stone-weierstrass min g3 m2 c1000": (
        "d3905fcc1da4c81132b02812ece3625c91f894c383267427fb2ad2a0f2626f60",
        "d0ad5686cdc0e478daf8f906381c340a7ca9a84f3d7c51997e4bac874c82c26e",
    ),
    "stone-weierstrass lukasiewicz g2 m2 c1000 doc": (
        "b32cf70b2de37ead617bb5166e96472091ae655598b6b97e9a1241ad9f21bf86",
        "9e759c39b528a1ab82ecd875f907b3c8f902331fa54db49faf9a1c4cfe53c589",
    ),
    "enriched-roundtrip lukasiewicz g2 m2 c1000": (
        "afbdaabbae59ddf327d96c3328eb6511f55d98b05f9875090800c3066dc317f7",
        "e1779c94fcdf024faa4b1dd102be385202bb945ea5c4bd57c7fb21ec26d46103",
    ),
    "enriched-roundtrip min g2 m2 c1000": (
        "ea23f3a10028b288aaa2d2b7918449f04be2708e02a385b19870aa3c901fca6e",
        "7a4985798853e6c9a255ba3614cb1302956bffe86a7e32c1074ad2edc87c88f3",
    ),
    "lemma1 lukasiewicz g2 m2 c1000": (
        "04a3f685474c58318679c5240f63ab4d86af3c8f991dcddf11c603130af575df",
        "f980606f69b80ee7728e755fa6f57e6169ed637140817b0cf33adbe79c3d0a30",
    ),
    "lemma1 ordinal:0-1/2-lukasiewicz g2 m2 c1000": (
        "5fc6e5c30c0539727fe60c9ba1e90c0b7d0b8956da52ccbe4482ecf1b9dae8eb",
        "b9c8ef43b1b9d60dcb637eb0ac8b16a4ad5960d02a0c59ee3521c502a494ecf1",
    ),
    "twovalued lukasiewicz g2 m2 c1000": (
        "04d43838dd38898aa68187b74c2869a731eeebc61065eaf1f3c81676a861346f",
        "48109f3a60da0f996be63fcbd6a6337a46b4352583cb756afddc9ec73d034a21",
    ),
    "tensor-maximality lukasiewicz g2 m1 c1000": (
        "a88fe0482beae4f514af73db7eebc4b535269d52414e452440e0d10bd18b9a94",
        "826c7059e4c4291ce4b746bde6bf90c6d5c39083b20800483348e2e637e9df74",
    ),
    "tensor-maximality lukasiewicz g2 m2 c1000": (
        "50a9f4387a402983d921a726178d51436fa92de68def8d6536e330b6ad80b49a",
        "30d69df8c0b51215c1cc14c42b66c9325490aec26abccedfbda5ba85c7bacb5c",
    ),
    "twovalued lukasiewicz g2 m3 c1000": (
        "649633a2bac7b9d3c6a5136b62a8f9a29e1a3db672056ad88dbcd5c813ea1c17",
        "321e696d31918dfdaee9c5ff653565a6b7d3ee8252accc232daf18a02b5137c0",
    ),
    "total-partial lukasiewicz g3 m2 c1000": (
        "4c1bf955f59d6313fca2dd89c58126dc07754f4c41187170f978a24ddfaaf60f",
        "6e0a5c83dbce33911be7c5aba55209f047cdfdaf40fd65282bdf052620f15c51",
    ),
    "enriched-roundtrip lukasiewicz g3 m2 c1000": (
        "6d943f02d99665f6417cfe280904acedd42d67fda7c7f31a7fa95541451d419f",
        "3992a4b68892c5a90bbbe82788761afa45165c6a77f0921ace1cf2cbebaf56f1",
    ),
    "tensor-maximality min g2 m2 c1000": (
        "16a63d955a9ca25842d8e55b9d26baa30d2fbc1ce53820c6c47a67e21c676155",
        "28640da635534ef0ef2bdea88f7626870cc15295ed905efa1bb4d8d3c29dc488",
    ),
    "lemma1 min g2 m3 c1000": (
        "58597830daf6a919e96fb767073a121c756ead86ab59127a82f08cecc2ad4bf2",
        "d99d6df9dd5f984953f9b1e1cb6b35d3d49bc52e3149af48371ee5efbd32505b",
    ),
    "enriched-roundtrip ordinal:0-1/2-lukasiewicz g2 m2 c1000": (
        "a332a794682299d2e456d827dbe7b8f26bc7730d15b41c69beb7c595927e2786",
        "1102a44ee2bee23a5715f38adcd5175c785a4f1d5e9adf1ddd24bac1b6cbca16",
    ),
    "twovalued min g2 m2 c1000": (
        "b6fda31eaf761bdef287c5eaf40635889e069589469dc4fc90638b4913003488",
        "6ea962e786b8d711dd4cc7dc1bab74085a54adf03d9cbd2f72be2aa41f479df9",
    ),
    "functoriality lukasiewicz g2 m4 c500": (
        "56e807d5be39504ac78186555fb9b64c822fcc82144357a89606b33a2bcec6a5",
        "7a1593bca83ddffdff2ca41737d42047178e01342a0b8e5f59475e1f49f614c4",
    ),
    "total-partial min g2 m3 c1000": (
        "47d213783114514456be0e5a438cd39d2fb7bae2f6f9f016d228d4d9838b41fd",
        "9bc45e5b032ffba72c5cee2dad9a81d093ed00ee11ee961c366c8019b893ac61",
    ),
    "total-partial lukasiewicz g5 m2 c1000": (
        "0c795e1982f575afe863a849e3bb1bcfd0508aaad4d99e277399759920331011",
        "75523e3d9b16832d5d12e3ce76966230f60687a452435f32818eec4208bb273f",
    ),
    "representability lukasiewicz g3 m2 c1000": (
        "09f7f59e84f714608777121d1467519e588c031638d1efb6421180c903405f75",
        "dfd979c1b6ad39685010bc7fa36138fa52c9d480efb74a48d4ce97e28fd288ca",
    ),
    "representability lukasiewicz g3 m3 c1000": (
        "300d529d86359d4b140d69838c9c46f9ff5d602c74b5932aae7839f17b2b7e40",
        "aeaf7a24c1be1fc0cc69bfbf017311bd36f066ad50f8b126d3f8f4de2b69f6ec",
    ),
    "representability min g2 m3 c1000": (
        "27d57aa6dac671ce076e7d89d70648e7d56ecb76ca738cc33ea894b57285ac14",
        "5ed1187dc2d43d164e84f0215b6ca3ef499eeab9865e5b6789bf7e56746c86f6",
    ),
    "enriched-roundtrip min g3 m2 c1000": (
        "786efd1502f583e7cd065fddb9fde4e9b33a305db777ad9bc2e83703809a3fc5",
        "e14ef6ed9002653e5c47d33314d0b399c689c46531e8023e153c12a9e8e1f993",
    ),
    "representability lukasiewicz g6 m2 c1000": (
        "76bcba0111d0b08c43f058e138987c6416a0283bb0459bb8a0f2ecd7c6a65f24",
        "bf3827684c763176745888fc3d2cdde7f85315015b904fc6f2a05d536604447c",
    ),
    "enriched-roundtrip lukasiewicz g4 m2 c1000": (
        "f22a76d62721de3d901f5fdf63a89c9a39f005efadfa66c66f7d7263db730062",
        "6ca15fffd9d7aee1c3024f4d4cad4a25cfa1bcabf1ef20d775ace133a9fb2ccf",
    ),
    "representability lukasiewicz g3 m4 c1000": (
        "0808b8f4047e94a6ecf19475cd2514eeee7770d80b022394f64906d10740a68c",
        "7eda7d36bd583ae8b4128b519dc2848ee1abc3d3d6bdf02ef26486507c27586c",
    ),
    "stone-weierstrass lukasiewicz g2 m4 c1000": (
        "8e7050211632701474af9d1a504ac3d1877e47247c6aca5f2bc005a5a76f8ed2",
        "7276ab7db36e3d70ae1fa3886fa3f4366e5ccc28d56c832bdc5e9affb2e714a7",
    ),
    "stone-weierstrass min g2 m4 c1000": (
        "03b70a4ee0afbe83a733d51e20a8227ac35345fd274d49646b7db502db8125fd",
        "90bfe6ea2d7c75403269050b02f4b8d52b3f999c679c9b93451f668500a9bad9",
    ),
    "lemma1 lukasiewicz g2 m3 c1000": (
        "806b19a15379cf7117b544978b6252c1a2fed2d1d02b6915c07d98915b87cd2a",
        "d41d1f26dda5e3f7090d4a20e3333671e2a23e4489e6f14cf59b124f9b9b87a0",
    ),
    "monad-laws lukasiewicz g2 m4 c1000": (
        "2d765cd6f8389e1b11069587ae7318edcb4253421e8d391213199f91f5e15590",
        "5d8898aa2e1d899da1c295b10ae971201cdeb527859e9333649faf7e1a912c9d",
    ),
    "stone-weierstrass lukasiewicz g2 m1 c1000 doc": (
        "fe8f896549fcad06330ae001280424d576c356b25f84502c85639c8e700ede91",
        "307ba6651ecf4cbc5b1c32af38ac5ab72e3b21b267be5e13995e7d139d4b81fc",
    ),
}


def _label(config) -> str:
    suite, tnorm, grid, max_size, corpus, doc = config
    return f"{suite} {tnorm} g{grid} m{max_size} c{corpus}" + (" doc" if doc else "")


def _digests(config) -> tuple[str, str]:
    suite, tnorm, grid, max_size, corpus, doc = config
    report = SU.run_suite(
        SU.SuiteConfig(
            suite=suite,
            quantale=parse_tnorm(tnorm),
            grid=grid,
            max_size=max_size,
            corpus=corpus,
            instance=parse_instance(doc) if doc else None,
        )
    )
    return tuple(
        hashlib.sha256(strip_timing(emit_report(report, fmt)).encode()).hexdigest()
        for fmt in ("table", "json")
    )


@pytest.mark.parametrize("config", CONFIGS, ids=_label)
def test_report_text_unchanged(config):
    assert _digests(config) == DIGESTS[_label(config)]


def test_every_config_has_its_own_label_and_digest():
    # DIGESTS is keyed by label, and a dict literal silently keeps the
    # later of two equal keys, so two configs must never share a label
    labels = [_label(config) for config in CONFIGS]
    assert len(set(labels)) == len(CONFIGS)
    assert set(DIGESTS) == set(labels) and len(DIGESTS) == len(CONFIGS)


def test_functoriality_maps_each_exhaustive_distributor_once(monkeypatch):
    # the exhaustive part maps its 98 distinct (phi, Y, X) once each, the
    # sampled part three per pair; the report is the pinned one
    calls = [0]
    original = D.c_of_distributor

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(D, "c_of_distributor", counted)
    config = ("functoriality", "lukasiewicz", 2, 4, 500, None)
    assert _digests(config) == DIGESTS[_label(config)]
    assert calls[0] <= 98 + 3 * 500


if __name__ == "__main__":
    for config in CONFIGS:
        table, blob = _digests(config)
        print(f'    "{_label(config)}": (\n        "{table}",\n        "{blob}",\n    ),')
