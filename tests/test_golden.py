"""Golden outputs: the README promises identical tables for identical
inputs, so every table the CLI writes for four fixed fields must keep
the SHA-256 recorded below.  A refactor that changes a byte of any
table fails here; a deliberate change of output records new digests.
The `gaussian` field has non-real coefficients, so it pins the
imaginary parts as well.

The cache file is not a table and lives outside the output directory;
its bytes are pinned separately, since a cache written by one version
must load in the next.
"""

import hashlib
from fractions import Fraction
import json
import os

import pytest

import mouldcalc as mc
from mouldcalc.cli import main

from conftest import bivariate

COMMANDS = {
    "normalize-json": ["normalize", "--x-order", "5", "--n-max", "2"],
    "normalize-csv": ["normalize", "--x-order", "5", "--n-max", "2",
                      "--format", "csv"],
    "check": ["check", "--suite", "all", "--x-order", "4", "--n-max", "2"],
    "borel": ["borel", "--zeta-order", "3", "--n-max", "2",
              "--eval", "1/2"],
    "borel-zeta5": ["borel", "--zeta-order", "5", "--n-max", "3",
                    "--eval", "1/2"],
}

# Recorded at commit f4cea0e, before the refactors this file guards;
# the borel-zeta5 digests at commit 3e6ac80, before the Borel transforms
# became one memoised mould; the gaussian digests and CACHE_GOLDEN at
# commit 0925446, before the series core moved to integer numerators.
GOLDEN = {
    "cubic/borel": {
        "phihat_0.json":
            "a86d49f10483cb46c26b2c8e22c6ebdc8b21b89a728ce3555b1eb61fc043f369",
        "phihat_1.json":
            "8f78fae3db5024ccae1a696fe1a792f19133ca076218a32567a8d1d222538994",
        "phihat_2.json":
            "42a513b8d6a9b02bf9cd8a4b0060207d03eac14c95c7ce8a8bcb4d95d5c10015",
    },
    "cubic/borel-zeta5": {
        "phihat_0.json":
            "95930f9b53ba0c0fadff6d58150c0ec600fc5706ae1af07618a062f6cfd9dd14",
        "phihat_1.json":
            "b97d846281954479ca3fced900f61da943b94d80b9869572c648aab46ec6434b",
        "phihat_2.json":
            "edcc8d898df387936e51cc61d04b861265de0b0024c1e2edc27562c9bb3b54d9",
        "phihat_3.json":
            "e26072e5f884166e93d69e06ee0a25435014a9131680e1ce9bf58cf606992c1b",
    },
    "cubic/check": {
        "check_report.json":
            "854e31569f811ec545580520b24c83d85ccfe4bd8a7851edb0556f1df224d999",
    },
    "cubic/normalize-csv": {
        "phi_0.csv":
            "25f067644b0e3023d31101fbaba9a4af707357a7b0292c6309f77e274a9c03d1",
        "phi_1.csv":
            "5f2aad8d5b586f3de6bd859de853994c98eb1a98255a90d5b742c3dbe969edd8",
        "phi_2.csv":
            "2ed367ebbf849b10286bc04f3344305e71eae660bd4eca6f28b1763c6437ae19",
        "psi_0.csv":
            "02743acf37cc29153472f088e01183383295ae73a80ab3144d98f4378f251a68",
        "psi_1.csv":
            "bf2c3e0aa4db7e28e91806912c92e8e0917b1870cdd52df49b5e1275bdfb68d1",
        "psi_2.csv":
            "f6007fa5b0d213fed05b4a57e5f126e6461699a3d76ad45962d3f879206a90c9",
    },
    "cubic/normalize-json": {
        "phi_0.json":
            "1d8c5491905a9b29290c5b8a04df4fe23170d81cb09bb0c08a1a9285ac2bee6d",
        "phi_1.json":
            "de0e57db8fbef4da2ceb1eb095434e971aca12f8f0ae90722117c1a100e98d38",
        "phi_2.json":
            "a19805c55291c956277d2d5ba6b225d5a05557f9d05209e86ec2b589bafce29e",
        "psi_0.json":
            "a102ed590ba532dc16fbb98111fa9ec574e2cf08a95f359196e651dcdb25078e",
        "psi_1.json":
            "ecf7dafce9d12b9fbb499249f629cb9dd795095fa4606789ca484cd02f2fa758",
        "psi_2.json":
            "243189d74d5d6cdb48732bc921172788515f6be2b18d4ed179a5a356f1048084",
    },
    "euler/borel": {
        "phihat_0.json":
            "92c71549ae7a402e171150c68843d3208de85c54ec92ce49108a0c372d480976",
        "phihat_1.json":
            "bfeb334b76c1cca9bfcbaadfaad8514f37b45f48310570708735b4342a35179d",
        "phihat_2.json":
            "5d64368152ca630564329e5e2a7dd0a1649265da3c5b43804eb74dd9bb2a9c69",
    },
    "euler/borel-zeta5": {
        "phihat_0.json":
            "ab22055073ccad1f7598f2d850ba10e3e1614f7fb6c437d2ce5efdb56be914c5",
        "phihat_1.json":
            "3fdd93ca096f3f4440ba4b44ac54834b751f0aa84b95d8b65f22b58bc0ac1734",
        "phihat_2.json":
            "f5075ac857a76d741f3c55f9d1c3fa799900394a97b2e87dd37e3d13f079a7d2",
        "phihat_3.json":
            "d18a3a7e6552920cbbc1b6660d31f66c882f5ac6d6d2d79de0740c7e6057b93e",
    },
    "euler/check": {
        "check_report.json":
            "6a67dc867a5b8b1f65029189828bb57ccf7c44f0c0f64fd01d91fefccf4f858a",
    },
    "euler/normalize-csv": {
        "phi_0.csv":
            "c773edc074ffef7fe93ace7a1a44561fd6c3c6b05a85b25f0570dc8bb5dc93a0",
        "phi_1.csv":
            "743794d7a3cddd48ab156fcf8f158c0d26b6d7ae6bce3c1ece0630fef695923c",
        "phi_2.csv":
            "69f06020c39af3878d1f60999d056d739c46bc6658afa9f7f85c9d3130f16e59",
        "psi_0.csv":
            "237db9200cadfe4f74706aa5bb55368fb381bd333b21b67e6d26b3eda7744b56",
        "psi_1.csv":
            "743794d7a3cddd48ab156fcf8f158c0d26b6d7ae6bce3c1ece0630fef695923c",
        "psi_2.csv":
            "69f06020c39af3878d1f60999d056d739c46bc6658afa9f7f85c9d3130f16e59",
    },
    "euler/normalize-json": {
        "phi_0.json":
            "9901dbf4eff8a5c69b85c898a7a2d706e5dc5f70d2fc1df99784f84deecee1e4",
        "phi_1.json":
            "399adafb2bb6e689b771b4fae596ef6a6f20f05d5da828ca1c6722ceb0e936d3",
        "phi_2.json":
            "772a8ed519916beb37c53a904b982f333aec6098c3d1e01233740b9f95fb950c",
        "psi_0.json":
            "8988a6aaa76a0e2adccbe537f6e8b897ad0cada34345b0c5996af16a99c8bb48",
        "psi_1.json":
            "399adafb2bb6e689b771b4fae596ef6a6f20f05d5da828ca1c6722ceb0e936d3",
        "psi_2.json":
            "772a8ed519916beb37c53a904b982f333aec6098c3d1e01233740b9f95fb950c",
    },
    "gaussian/borel": {
        "phihat_0.json":
            "bb575d86dffdb128ecbf096f9aba9dd90e1b42440eab3844c4a2021c332f0762",
        "phihat_1.json":
            "018d43d85784c01ccd59fa2e75aa91e6cb6449c510c80a8714468a4b9a102533",
        "phihat_2.json":
            "5dfbfc624aa7f4db5da50ce33daab4c435b2bbcc54c631377aa726412392ed85",
    },
    "gaussian/borel-zeta5": {
        "phihat_0.json":
            "947dd12f8d094cacb47223d489e0c050e3b21b9642a60a508f58bf935a496582",
        "phihat_1.json":
            "8fe5c8bed0df16704b5d497076a582ea71b23b1871438c475b796f1b4c4e7ec1",
        "phihat_2.json":
            "6d4362d9556650df7d600aea52defbf5af177d98012a1b96e803a261ef428d56",
        "phihat_3.json":
            "e97d926fa81b32469cb316dfc3181e497bb00f50985b5b13ca3e0569aacc2d8b",
    },
    "gaussian/check": {
        "check_report.json":
            "f32499ab27ad710d4fe8758bef98c1a78c713b5b01a7a81aae20f8d1a672ccfc",
    },
    "gaussian/normalize-csv": {
        "phi_0.csv":
            "21b9945173ffd57277660a8ea469fab63f7a63e0d7727bfaa0b9ab0b0bc7b07f",
        "phi_1.csv":
            "b7d0b3983cb8c762327854d918d1a012d800c3632e6dd69fa1645f853332eaf3",
        "phi_2.csv":
            "24b02132418bcaaeb7321e00c5d9f3198f13ecfa5eb3d8a0f6fd333bc113dd00",
        "psi_0.csv":
            "7cdc9df4a8a4f2b7bfc70e3e8dc149c4f568d637d605eccfd7690659e8aa4b21",
        "psi_1.csv":
            "aca7c431571673310189fc12de266ddbbbe0326547c9984bb4f68ee6d9e29d63",
        "psi_2.csv":
            "0132e6da1d146e90d4c49a261baa653edca42d173017c8a1c9a0c4323bef391d",
    },
    "gaussian/normalize-json": {
        "phi_0.json":
            "36e88fc742649b313dad2d1268f38f382dcb2d6e16378aaa32b1113e759d7e76",
        "phi_1.json":
            "46a4ea7a01a939301e0b283b9e2ef0d05db0ce617b6f1af3e2dea5836794652b",
        "phi_2.json":
            "905d414167ebf75e23b4807c5108e090ef2a2f5f5e047f5d1e00d76f8da073a3",
        "psi_0.json":
            "e66ec0424b5c6eb218d09086ddf8dd053a01c3911dd3101a330523c205df7112",
        "psi_1.json":
            "0f533865917fac768a88a47b50322b577d38c9ad182cc2ec9b3629750f9ed1f5",
        "psi_2.json":
            "ac7a033e94936ac530b5a9f7fe0ebde462e9f53d3424f17e36555917baab766f",
    },
    "quadratic/borel": {
        "phihat_0.json":
            "fa616ebd84044c3f385c46d6aaa19a8ce7125d27cfa00d3bffe94715aa8a550a",
        "phihat_1.json":
            "858bc8e5a608cd47d964a75d5a8ae5dde0c6f222fcdc646d79a1f98b6a2ecab4",
        "phihat_2.json":
            "330773247c1aced38118c8bfb4258d42f3aa1285175ca29b9527e8e34c6c112b",
    },
    "quadratic/borel-zeta5": {
        "phihat_0.json":
            "c879c7793ddcda36c142dea019f2bf77057b3333d730ed7aa8010b78c1e973c6",
        "phihat_1.json":
            "c84fd6e8deb172ceac7d3560257625692b5f039f84663b1c3695dd0d4b7153b0",
        "phihat_2.json":
            "f606deed56f6c2937bbbd8c4a22dc7fc39726589ece97a03169b1a3b0d27a327",
        "phihat_3.json":
            "0e4bf74674f81cc70637c5b3599351595fdef00d6fdd2072cbd68c0104352b13",
    },
    "quadratic/check": {
        "check_report.json":
            "b6a6882de8221845fdfffec1805bb1ecd5442c1447504469d9e09116d345aee3",
    },
    "quadratic/normalize-csv": {
        "phi_0.csv":
            "36e54dd36f41fc507aafd5935e3002d789b177b0dface3360172df297618d1e8",
        "phi_1.csv":
            "b7d9d28188b72d2d36fd24babf3718b5b5d07c740f343cb4b9dba95ea5c58d05",
        "phi_2.csv":
            "6b9473036bb82ec9146d80706e67d7b52056184ff1265884b877073072a96ddf",
        "psi_0.csv":
            "66daf0e0b05eb0e52ad32bc6401e7a55f4e8e5f88a3e1291869aaa3a95b0fd22",
        "psi_1.csv":
            "aeff61fdbfb4892643229e77252d1d8167678e923d751d5304b694eff1c5fd52",
        "psi_2.csv":
            "53f7d42a9b2ac07fe67c8cc9e36828310bb0191c6e879011768afceb44b3bbdc",
    },
    "quadratic/normalize-json": {
        "phi_0.json":
            "c57792aa1e9ac3b0f42916d00fcd576f09405cc1c16c6c31b343371b9493d59a",
        "phi_1.json":
            "b87cc62eaecb447a11349f251e4c77dae395062430b8ed50c959bd2e0360660d",
        "phi_2.json":
            "0411eefb821a1acc860a177e73979a7b4ccde9695669da686a1fc7735b15e63d",
        "psi_0.json":
            "5e48251bac77e6f5423058c09fbe9a1aa17919d2537ccb32dc35caaf17884ad5",
        "psi_1.json":
            "2fa0f6892c1e59550e6e5b7dca9699dd653c32a8775f6823d8cfa6c56fcb96d2",
        "psi_2.json":
            "7d7434bfa30b2cb45091796b03c8b0bf937a2b70edb46c73c83a3d91b7bfe480",
    },
}


def gaussian_bivariate():
    # letters -1, 0, 1 with Gaussian-rational coefficients
    return bivariate({(0, 1): 1, (1, 0): (Fraction(1, 2), Fraction(1, 3)),
                      (2, 0): (0, -1), (2, 1): (Fraction(-3, 4), 2),
                      (1, 2): (1, Fraction(1, 5))}, x_order=2, y_order=2)


@pytest.fixture
def field_files(tmp_path, euler_bivariate, quadratic_field, cubic_field):
    files = {}
    for name, A in (("euler", euler_bivariate),
                    ("quadratic", quadratic_field.to_bivariate()),
                    ("cubic", cubic_field.to_bivariate()),
                    ("gaussian", gaussian_bivariate())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mc.field_to_json(A)))
        files[name] = str(path)
    return files


def table_digests(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("field", ["euler", "quadratic", "cubic",
                                   "gaussian"])
def test_tables_match_golden_digests(field, command, field_files, tmp_path):
    out = tmp_path / "out"
    argv = [*COMMANDS[command], "--field", field_files[field],
            "--output-dir", str(out), "--cache", str(tmp_path / "c.json")]
    assert main(argv) == 0
    assert table_digests(out) == GOLDEN[f"{field}/{command}"]


# SHA-256 of the cache file that `normalize-json` writes.
CACHE_GOLDEN = {
    "cubic":
        "a8b36363f64491ab36d5ac60a00f25253b934640e572df483eb74d01f44cf4a4",
    "gaussian":
        "3a7e21b652d25432cfb23715eb73ec32735cb8275a06c990c77ae90b4a926dab",
}


@pytest.mark.parametrize("field", sorted(CACHE_GOLDEN))
def test_cache_file_matches_golden_digest(field, field_files, tmp_path):
    cache = tmp_path / "c.json"
    argv = [*COMMANDS["normalize-json"], "--field", field_files[field],
            "--output-dir", str(tmp_path / "out"), "--cache", str(cache)]
    assert main(argv) == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == \
        CACHE_GOLDEN[field]
