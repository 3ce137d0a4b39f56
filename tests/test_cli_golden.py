"""Pinned CLI output: the sha256 of stdout for a fixed set of small commands.

The set covers every table subcommand, `verify` of each identity at a
small order, and small `oracle` runs, unfiltered and with each
`--filter`.  A refactor that changes no behaviour leaves every hash
alone.  Each table command is also run twice on one cache file (a cold
run in the first format, warm runs after it); every cached run must
print the pinned output too.  The bytes of the cache file that two cold
polynomial-row runs write are pinned the same way.
"""

import hashlib

import pytest
from click.testing import CliRunner

from surfcount.cli import main

GOLDEN = {
    "maps --n-max 7 --g-max 3": (
        "5e184f0c7c3a4d59f800b67a4057b566033cfd6a6e224d714afe371300f159be",
        "79b632730b6a86ee5c707b3c6a13113c3c17a1ca64b382487119ad27efec1c03",
        "fd3c93e5dfb7e4efac8984c9eb5d3edbd91d97f94be018b526ee7f0f5b31fb95",
    ),
    "maps --n-max 5 --bivariate": (
        "e199d8022673c0534015e5d20804285cbf3417960c38ce4fff2e2e70abbb3a6c",
        "e87196bf9c6afc5bd68c5fc4ba84aff4335ca7caba2697f52fa50160543c3b92",
        "dc35a0cd2a79c3de37f96607db83feabc8fc587e690264ad6f0e1f7e6e8da5b7",
    ),
    "maps --n-max 5 --engine both": (
        "36049654987a98ed63ee70337402d253407d5874ba90e3706159e29ef98c4805",
        "d0788ab78f0dc1a780f7a9915180e42f461b1b21c447d591db770a17c12755b5",
        "2dbbeef2f04e229a1c88f572990f1e2cf4fa56576179779bb6157bb441e04c59",
    ),
    "bipartite --n-max 5": (
        "b541f5188bfbc2009f3f7a30912429140b40c2f437668f4f38e58613cefc435d",
        "6a13b4c5043d33e536bd07d3ef6894181eb6f16e4a7e707cffcf5f69a04fe8e9",
        "cdc7436195f38134e70438681aac0ffa2ba68fb7064578675d7dfacb88a5b704",
    ),
    "bipartite --n-max 4 --trivariate": (
        "d5cad9d63087c39fd2c0720cea3e3d7381485697fe30feff10a14b5a17fa77f1",
        "2c91e2fedaeaa49bce2082eb014079c888883c7774c5f801445a7e2fbfe79657",
        "6d7525c789cf3bd5f7fc1d2fb441ad6d07324e5cd1a26a910c1ffa388e6fe6a1",
    ),
    "triangulations --n-max 5 --g-max 3": (
        "25fb077b9356ba3ff365cb9e865d43fac45a103a4b4df9a6df13cb8d38b64b23",
        "b33b86558764f8340fc40690e729b47f3114365b393ec42a6a6fe937a947c9f3",
        "cc7600a9112115f995cfe41ba635add3ed6cefb6a4bf84932ba22ed07fd9286b",
    ),
    "oneface --n-max 7": (
        "511aa706a3bab134ebb5b457e4031c962e9fa3539b8f18318f713f65853fa486",
        "b2be8415ab62560e8ba6fab850df9ba54bd9cdb73ce558a9fd300aed7e240027",
        "ea8a14edb990a526db43fa7a8b65a7e9f62b60467ff3d71cbc948c5b073d3a39",
    ),
    "bip-oneface --n-max 6": (
        "ff73109f2852633e3568a9e60b99b3a545b676074fca04616678ce6601a11766",
        "66c3516dc3114dec41082691072a7c42051573f8eed6640d30aa45e91d6474bc",
        "0fce91053a68f43122524e22a9f2a69284224656f932ee61e89d29b56b148e98",
    ),
    "verify shifted-bkp1 --order 10": (
        "ff9f9564b9c462850775d6427e405834ac2515a339a1c47171007cee451770cf",
        "ff9f9564b9c462850775d6427e405834ac2515a339a1c47171007cee451770cf",
        "dc370409d424354c629e510f457cdd047d7fc10f078d4e9914b453190b9858f8",
    ),
    "verify ode-maps --order 10": (
        "13358aab3a900057233c70f18601c3466f5300ca66606d39149bed2ba642c995",
        "13358aab3a900057233c70f18601c3466f5300ca66606d39149bed2ba642c995",
        "124281697a69e8c23fd39e8bc8386458b6714c4506a707c0dfd5fa2447e9b9ee",
    ),
    "verify ode-bipartite --order 8": (
        "9942f173af44539931b03b50b2f833e7f9c414f9006bc4a436d5329bf0395b8b",
        "9942f173af44539931b03b50b2f833e7f9c414f9006bc4a436d5329bf0395b8b",
        "eecdc495bc91fa96a2a4a1964896cd62b620fbd2e50cc5cee159275a90e63779",
    ),
    "verify ode-triangulations --order 12": (
        "dfb1460f926b2cdb86b8689a9d1f99ac456ca21c7d1b3f6e74490d3aea0aa200",
        "dfb1460f926b2cdb86b8689a9d1f99ac456ca21c7d1b3f6e74490d3aea0aa200",
        "f9ce2f98bdfda3dd803706f4f070691f92180f3089b50226c897c9e74288e8cd",
    ),
    "verify ode-oneface-maps --order 8": (
        "548f7bcf10ce8a558cdf81114cb2a3a6c6c1588bf106482cc25bd09bf7eb6406",
        "548f7bcf10ce8a558cdf81114cb2a3a6c6c1588bf106482cc25bd09bf7eb6406",
        "64f8e2b3b018df343fc133cbc8a77e672b10f5620e0c85aef9e1e5baa2725243",
    ),
    "verify ode-oneface-bipartite --order 6": (
        "2d924a1205feedb560af0d71202d9a51b37d4aaf046d57dcabce871451fbfb10",
        "2d924a1205feedb560af0d71202d9a51b37d4aaf046d57dcabce871451fbfb10",
        "10f691d3ee785548a4a30034f121577dc2812e5c731e0b907ca1deea28218632",
    ),
    "verify fixed-charge --order 8": (
        "1035e8f8b28d189db124bdb625b278c6435477f1f452ee4097ddc674f4b09195",
        "1035e8f8b28d189db124bdb625b278c6435477f1f452ee4097ddc674f4b09195",
        "0ea7d56eea4849fc5d19dc1331bb5321769d4d103059aed7dacf79579f8818a7",
    ),
    "oracle --edges 2": (
        "ec757869526be0e5cfaf8112786a9209829ab09a1109d11d677fc607681a5b21",
        "5fe07c26d81dfb3ce13edfe58fc9364f400cd3f61a5cf9e5ac4bfafa4a117130",
        "859e6d825ca650827b66d71a08318a54a8ef1719b0e145d93c62093c00c3ac26",
    ),
    "oracle --edges 3 --filter bipartite": (
        "14b413f3a1cd59cacdaf014df8714528ef6eefdaad096f4966bdcde38f49c476",
        "93ec7ae2c920bb9d0e540142cc01385aaa6f02734b61658d7da44978f6d1c392",
        "868718a4fe8c5623b3d924328b6f1c744272f60d63e554701944656a478d103c",
    ),
    "oracle --edges 3 --filter triangulation": (
        "d6e6d648f50795686e3cd140b8ae11735b8d2a2a552fbb186b6c2a28665b5fda",
        "be555a0e7ab086575da7ba50922e63d218886066e9f330c9ac78cf90023fa168",
        "445ee39e62592c6f42f59d88d88e60cde793824294e0b95e51a3c48fa494c16f",
    ),
    "maps --n-max 6 --engine cc": (
        "19d27343e684a00117dd15883a848fa24eeb6368c60c2055ebc28d195a43b955",
        "d8ea8814f1a0d77e3914d9267bd1d0beaff839430e9821f27d7d7aa8f66c746a",
        "cc618c739ad1563f0055d5600317d8976bcc303ffd937673b669e34a34045b61",
    ),
    "maps --n-max 0 --bivariate": (
        "a6c995103086b428c66e29f5f93c420b914a2ef4a44f06d9f3f1390cb2015ed0",
        "88105fe1f399aaf25fa4b0c00d6870f8777fff0571df599bb890b9aba8bf06de",
        "ec588244a385453acd9d878775b743651d1f3ac73ead176d2fb8649c6bd701d8",
    ),
    "bipartite --n-max 0 --trivariate": (
        "711655b28e9d39542247d0f9d175869fda57f5fd3a55a7eec9d0a723fdadddc7",
        "c3f6d90a3fcf41e9d18895d1c1d8eb1b42d719e24ca026c2efe1cd1e79520e36",
        "d4ae6e7abbb0f3f17b6cbc06075bc379354fd9e6ca66c7887e255cb2ff663db7",
    ),
    "bipartite --n-max 6 --g-max 3/2": (
        "6810df74102f688b3f346da14335a373a12a00bcb09cd2226fda7adb484297c6",
        "ba96d3da0992065fc4035a7a53c0c6b99272c6997a47f0a37883f30a0d80160a",
        "1642d363a11e8c5ba2ce48634f387c7614c118db9863cea71d48e0be41b9e677",
    ),
}
FORMATS = ("table", "csv", "json")

CACHE_RUNS = ("maps --n-max 10 --bivariate", "bipartite --n-max 10 --trivariate")
# the bipartite stated zeros (1, 1) and (2, 2) are stored as empty rows
CACHE_FILE = "52f2cf22ccea89847579e0077af584191d710864101b3f9677aae980685c84f2"


def digest(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0
    return hashlib.sha256(res.stdout.encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_output_is_pinned(command, tmp_path):
    base = command.split()
    cached = base[0] not in ("oracle", "verify")
    cache = str(tmp_path / "counts.ndjson")
    for fmt, expected in zip(FORMATS, GOLDEN[command]):
        args = base + ["--format", fmt]
        assert digest(args + (["--no-cache"] if cached else [])) == expected, fmt
        if cached:
            assert digest(args + ["--cache", cache]) == expected, f"{fmt}, cached"


def test_cache_file_is_pinned(tmp_path):
    cache = tmp_path / "counts.ndjson"
    for command in CACHE_RUNS:
        digest(command.split() + ["--cache", str(cache)])
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == CACHE_FILE
