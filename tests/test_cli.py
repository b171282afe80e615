import hashlib
import importlib
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc import cache as cachemod
from mouldcalc import cli, moulds, normalisation
from mouldcalc.cli import main
from mouldcalc.errors import CacheError

from conftest import bivariate

numerators = st.one_of(st.just(0), st.integers(-10**20, 10**20))


def numerator_lists(k):
    return st.lists(numerators, min_size=k + 1, max_size=k + 1)


# real, Gaussian and zero series, negative numerators and denominators
# included, in canonical form
series = st.integers(0, 8).flatmap(lambda k: st.builds(
    mc.TruncatedSeries.from_ints, st.just(k),
    st.integers(1, 10**12) | st.integers(-10**12, -1), numerator_lists(k),
    st.none() | numerator_lists(k)))
# any text, and fixed strings of control and non-ASCII characters
json_text = st.text() | st.sampled_from(["\x00\x1f\n\t\"\\/", "é\u2028ß",
                                         "\U0001f600", ""])
json_values = st.recursive(
    json_text | st.integers() | st.booleans() | st.none(),
    lambda kids: st.lists(kids) | st.dictionaries(json_text, kids),
    max_leaves=25)

# the package attribute mouldcalc.borel is the function of that name
borelmod = importlib.import_module("mouldcalc.borel")


@pytest.fixture
def euler_file(tmp_path):
    A = bivariate({(1, 0): 1, (0, 1): 1}, x_order=1, y_order=1)
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(mc.field_to_json(A)))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    A = bivariate({(0, 1): 1}, x_order=1, y_order=1)
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(mc.field_to_json(A)))
    return str(path)


@pytest.fixture
def bad_field_file(tmp_path):
    # A(0, y) = y + y^2 violates the normalisation condition
    A = bivariate({(0, 1): 1, (0, 2): 1}, x_order=1, y_order=2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mc.field_to_json(A)))
    return str(path)


def run(args, tmp_path, sub="normalize", extra=()):
    out = tmp_path / "out"
    cache = tmp_path / "cache.json"
    argv = [sub, *args, "--output-dir", str(out),
            "--cache", str(cache), *extra]
    return main(argv), out


def with_digest(docs) -> str:
    """Cache-file text for the given header and entry documents, in the
    writer's layout, ending in a trailer that matches them."""
    body = json.dumps(docs[0], sort_keys=True) + "\n" + "".join(
        json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"
        for d in docs[1:])
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + json.dumps({"sha256": sha}) + "\n"


def tamper_euler_entry(cache):
    """Set the x^2 coefficient of the cached [-1] entry to 7, leaving
    every other byte of the file as written."""
    lines = cache.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"word":[-1]}' in line)
    entry = json.loads(lines[i])
    entry["coeffs"][2] = [7, 1, 0, 1]
    lines[i] = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
    cache.write_text("".join(lines))


def rewrite_euler_quad(cache, k, quad):
    """Set the x^k quad of the cached [-1] entry and recompute the
    digest, so that only the quad itself can be rejected."""
    docs = [json.loads(line) for line in cache.read_text().splitlines()]
    entry = next(d for d in docs if d.get("word") == [-1])
    entry["coeffs"][k] = quad
    cache.write_text(with_digest(docs[:-1]))


class TestNormalize:
    def test_euler_outputs(self, euler_file, tmp_path):
        code, out = run(["--field", euler_file, "--x-order", "10",
                         "--n-max", "3"], tmp_path)
        assert code == 0
        doc = json.loads((out / "phi_0.json").read_text())
        assert doc["n"] == 0 and doc["x_order"] == 10
        expected = ["0"] + [str(-math.factorial(k - 1))
                            for k in range(1, 11)]
        assert [c["re"] for c in doc["coeffs"]] == expected
        assert all(c["im"] == "0" for c in doc["coeffs"])
        assert doc["word_count"] == 1
        for n in range(1, 4):
            doc = json.loads((out / f"phi_{n}.json").read_text())
            assert all(c["re"] == "0" and c["im"] == "0"
                       for c in doc["coeffs"])
        psi = json.loads((out / "psi_0.json").read_text())
        assert [c["re"] for c in psi["coeffs"]] == \
            ["0"] + [str(math.factorial(k - 1)) for k in range(1, 11)]

    def test_trivial_all_zero(self, trivial_file, tmp_path):
        code, out = run(["--field", trivial_file, "--n-max", "2"], tmp_path)
        assert code == 0
        for kind in ("phi", "psi"):
            for n in range(3):
                doc = json.loads((out / f"{kind}_{n}.json").read_text())
                assert all(c["re"] == "0" and c["im"] == "0"
                           for c in doc["coeffs"])

    def test_validation_failure_exit_2(self, bad_field_file, tmp_path,
                                       capsys):
        code, _ = run(["--field", bad_field_file], tmp_path)
        assert code == 2
        assert "A(0, y) = y" in capsys.readouterr().err

    def test_malformed_input_exit_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        code, _ = run(["--field", str(path)], tmp_path)
        assert code == 3

    Y = {"m": 0, "n": 1, "re": [1, 1], "im": [0, 1]}
    X = {"m": 1, "n": 0, "re": [1, 1], "im": [0, 1]}

    @pytest.mark.parametrize("patch", [
        {"x_order": 1.9},
        {"y_order": True},
        {"monomials": [Y, {**X, "re": [1.5, 2]}]},
        {"monomials": [Y, {**X, "re": ["1", True]}]},
        {"monomials": [Y, {**X, "re": [1, 2, 3]}]},
        {"monomials": [Y, {**X, "im": [0.0, 1]}]},
        {"monomials": [Y, {**X, "m": 1.2}]},
        {"monomials": [Y, X, {**X, "m": 3}]},
        {"monomials": [Y, X, {**X, "n": 2}]},
    ], ids=["x_order-float", "y_order-bool", "re-float", "re-str-bool",
            "re-three", "im-float", "m-float", "m-outside-box",
            "n-outside-box"])
    def test_malformed_field_number_exit_3(self, patch, tmp_path, capsys):
        # the Euler field A = x + y in a box (1, 1), with one entry changed
        doc = {"x_order": 1, "y_order": 1,
               "monomials": [self.Y, self.X], **patch}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        code, _ = run(["--field", str(path)], tmp_path)
        assert code == 3
        assert "cannot read field file" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        code, _ = run(["--field", str(tmp_path / "nope.json")], tmp_path)
        assert code == 3

    def test_unwritable_cache_exit_3(self, euler_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["normalize", "--field", euler_file, "--x-order", "4",
                     "--output-dir", str(tmp_path / "out"),
                     "--cache", str(afile / "c.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_dir_exit_3(self, euler_file, tmp_path,
                                          capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["borel", "--field", euler_file, "--zeta-order", "2",
                     "--output-dir", str(afile / "out")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_tampered_cache_exit_3_then_rebuild(self, euler_file, tmp_path,
                                                capsys):
        args = ["--field", euler_file, "--x-order", "6", "--n-max", "0"]
        code, out = run(args, tmp_path)
        assert code == 0
        tamper_euler_entry(tmp_path / "cache.json")
        (out / "phi_0.json").unlink()
        code, _ = run(args, tmp_path)
        assert code == 3
        assert "digest" in capsys.readouterr().err
        assert not (out / "phi_0.json").exists()
        code, _ = run(args, tmp_path, extra=["--rebuild-cache"])
        assert code == 0
        doc = json.loads((out / "phi_0.json").read_text())
        assert doc["coeffs"][2] == {"re": "-1", "im": "0"}

    @pytest.mark.parametrize("quad", [
        [-1, 0, 0, 1],    # zero denominator
        [-1, 1, 0, 0],    # zero imaginary denominator
        [1, -1, 0, 1],    # negative denominator
        [-1.5, 1, 0, 1],  # not a JSON integer
        [-1, 1.0, 0, 1],  # not a JSON integer either
    ])
    def test_malformed_cache_quad_exit_3_then_rebuild(
            self, euler_file, tmp_path, capsys, quad):
        args = ["--field", euler_file, "--x-order", "4", "--n-max", "0"]
        assert run(args, tmp_path)[0] == 0
        rewrite_euler_quad(tmp_path / "cache.json", 1, quad)
        code, out = run(args, tmp_path)
        assert code == 3
        assert "malformed cache file" in capsys.readouterr().err
        code, _ = run(args, tmp_path, extra=["--rebuild-cache"])
        assert code == 0
        doc = json.loads((out / "phi_0.json").read_text())
        assert doc["coeffs"][1] == {"re": "-1", "im": "0"}
        assert run(args, tmp_path)[0] == 0

    def test_valuation_violation_exit_1(self, euler_file, tmp_path,
                                        monkeypatch, capsys):
        # a solver value of valuation 0 breaks val(V^w) >= ceil(r/2)
        monkeypatch.setattr(moulds, "solve_euler_shifted",
                            lambda b, mu: mc.TruncatedSeries.one(b.order))
        code, _ = run(["--field", euler_file, "--x-order", "4"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "valuation bound violated" in err

    def test_lower_order_run_keeps_higher_order_cache(self, euler_file,
                                                      tmp_path, capsys):
        def normalize(x_order):
            return run(["--field", euler_file, "--x-order", x_order,
                        "--n-max", "2"], tmp_path)[0]

        cache = tmp_path / "cache.json"
        assert normalize("8") == 0
        before = cache.read_bytes()
        assert normalize("4") == 3
        assert "x_order 8 != 4" in capsys.readouterr().err
        assert cache.read_bytes() == before
        assert normalize("8") == 0

    def test_csv_format(self, euler_file, tmp_path):
        code, out = run(["--field", euler_file, "--x-order", "4",
                         "--n-max", "0", "--format", "csv"], tmp_path)
        assert code == 0
        lines = (out / "phi_0.csv").read_text().splitlines()
        assert lines[0] == "n,k,re,im"
        assert lines[1] == "0,0,0,0"
        assert lines[2] == "0,1,-1,0"

    def test_word_warning(self, euler_file, tmp_path, capsys):
        code, _ = run(["--field", euler_file, "--n-max", "0",
                       "--word-warn", "0"], tmp_path)
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_determinism_and_threads(self, euler_file, tmp_path):
        outputs = []
        for i, threads in enumerate(("1", "1", "2")):
            out = tmp_path / f"out{i}"
            code = main(["normalize", "--field", euler_file,
                         "--x-order", "8", "--n-max", "2",
                         "--output-dir", str(out),
                         "--cache", str(tmp_path / f"cache{i}.json"),
                         "--threads", threads])
            assert code == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] == outputs[2]


class TestCheck:
    def test_euler_all_suites(self, euler_file, tmp_path):
        code, out = run(["--field", euler_file, "--x-order", "6",
                         "--n-max", "2"], tmp_path, sub="check")
        assert code == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["results"]
        assert all(r["status"] == "ok" for r in report["results"])

    def test_suite_selection(self, euler_file, tmp_path):
        code, out = run(["--field", euler_file, "--x-order", "6"],
                        tmp_path, sub="check",
                        extra=["--suite", "symmetral,valuation"])
        assert code == 0
        report = json.loads((out / "check_report.json").read_text())
        suites = {r["suite"] for r in report["results"]}
        assert suites == {"symmetral", "valuation"}

    def test_unknown_suite_rejected(self, euler_file, tmp_path):
        code, _ = run(["--field", euler_file], tmp_path, sub="check",
                      extra=["--suite", "bogus"])
        assert code == 3

    def test_poisoned_cache_exit_3(self, euler_file, tmp_path, capsys):
        # first run populates the cache
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check")
        assert code == 0
        # corrupt one cached value, keeping hash/version intact; the
        # digest rejects the file before any value is used
        tamper_euler_entry(tmp_path / "cache.json")
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check")
        assert code == 3
        assert "digest" in capsys.readouterr().err

    def test_corrupted_cache_exit_3_then_rebuild(self, euler_file,
                                                 tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("garbage")
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check")
        assert code == 3
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check", extra=["--rebuild-cache"])
        assert code == 0
        # the rebuilt cache must now load cleanly
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check")
        assert code == 0

    def test_version_1_cache_rejected_then_rebuilt(self, euler_file,
                                                   tmp_path):
        cache = tmp_path / "cache.json"
        fhash = cachemod.field_hash(mc.load_field_file(euler_file))
        cache.write_text(json.dumps({"version": 1, "field_hash": fhash,
                                     "x_order": 6, "entries": []}) + "\n")
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check")
        assert code == 3
        code, _ = run(["--field", euler_file, "--x-order", "6"],
                      tmp_path, sub="check", extra=["--rebuild-cache"])
        assert code == 0
        header = json.loads(cache.read_text().splitlines()[0])
        assert header["version"] == cachemod.CACHE_VERSION == 3

    def test_warm_cache_identical_outputs(self, euler_file, tmp_path):
        def normalize(out):
            return main(["normalize", "--field", euler_file,
                         "--x-order", "8", "--n-max", "2",
                         "--output-dir", str(out),
                         "--cache", str(tmp_path / "cache.json")])

        assert normalize(tmp_path / "cold") == 0
        assert (tmp_path / "cache.json").exists()
        assert normalize(tmp_path / "warm") == 0
        cold = {p.name: p.read_bytes()
                for p in sorted((tmp_path / "cold").iterdir())}
        warm = {p.name: p.read_bytes()
                for p in sorted((tmp_path / "warm").iterdir())}
        assert cold == warm


class TestBorelCommand:
    def test_euler_signature_and_eval(self, euler_file, tmp_path):
        code, out = run(["--field", euler_file, "--zeta-order", "12",
                         "--n-max", "0"], tmp_path, sub="borel",
                        extra=["--eval", "1/2"])
        assert code == 0
        doc = json.loads((out / "phihat_0.json").read_text())
        assert [c["re"] for c in doc["coeffs"]] == \
            [str((-1) ** n) for n in range(13)]
        ev = doc["evaluations"][0]
        assert ev["zeta"] == "1/2"
        assert ev["tail_bound"] is not None

    def test_eval_outside_disc_warns(self, euler_file, tmp_path, capsys):
        code, out = run(["--field", euler_file, "--zeta-order", "8",
                         "--n-max", "0"], tmp_path, sub="borel",
                        extra=["--eval", "3/2"])
        assert code == 0
        assert "tail bound omitted" in capsys.readouterr().err
        doc = json.loads((out / "phihat_0.json").read_text())
        assert doc["evaluations"][0]["tail_bound"] is None

    def test_one_mould_per_run(self, quadratic_field, tmp_path,
                               monkeypatch):
        """All components of one run share a single Borel mould, and
        the tables equal those of one mould per component."""
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps(
            mc.field_to_json(quadratic_field.to_bivariate())))
        real, made = borelmod.borel_mould, []

        def borel_mould(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(borelmod, "borel_mould", borel_mould)
        monkeypatch.setattr(cli, "borel_mould", borel_mould,
                            raising=False)
        code, out = run(["--field", str(path), "--zeta-order", "4",
                         "--n-max", "3", "--format", "csv"], tmp_path,
                        sub="borel")
        assert code == 0
        assert len(made) == 1
        for n in range(4):
            alone = mc.borel_phi_n(quadratic_field, n, 4)
            rows = (out / f"phihat_{n}.csv").read_text().splitlines()[1:]
            assert rows == [f"{n},{k},{c.re},{c.im}"
                            for k, c in enumerate(alone.coeffs)]
        assert len(made) == 5

    def test_trivial_zero_files(self, trivial_file, tmp_path):
        code, out = run(["--field", trivial_file, "--n-max", "1"],
                        tmp_path, sub="borel")
        assert code == 0
        for n in range(2):
            doc = json.loads((out / f"phihat_{n}.json").read_text())
            assert all(c["re"] == "0" and c["im"] == "0"
                       for c in doc["coeffs"])


class TestMainInProcess:
    def test_parser_built_once_leaks_nothing(self, euler_file, tmp_path,
                                             monkeypatch):
        """main builds its parser once per process, and a run after one
        with --eval and --suite writes the tables and report of a fresh
        run."""
        built, real = [], cli.build_parser

        def build_parser():
            built.append(real())
            return built[-1]

        def borel(out, *extra):
            assert main(["borel", "--field", euler_file, "--n-max", "1",
                         "--zeta-order", "4", "--output-dir",
                         str(tmp_path / out), *extra]) == 0
            return {p.name: p.read_bytes()
                    for p in sorted((tmp_path / out).iterdir())}

        def check(out, *extra):
            assert main(["check", "--field", euler_file, "--x-order", "4",
                         "--n-max", "1", "--output-dir", str(tmp_path / out),
                         "--cache", str(tmp_path / f"{out}.cache"),
                         *extra]) == 0
            return (tmp_path / out / "check_report.json").read_bytes()

        monkeypatch.setattr(cli, "build_parser", build_parser)
        cli._parser.cache_clear()
        try:
            evaluated = borel("b1", "--eval", "1/2", "--eval", "1/3")
            symmetral = check("c1", "--suite", "symmetral")
            after = borel("b2"), check("c2")
            assert len(built) == 1
            cli._parser.cache_clear()
            assert (borel("b3"), check("c3")) == after
            assert len(built) == 2
        finally:
            cli._parser.cache_clear()
        doc = json.loads(evaluated["phihat_0.json"])
        assert [e["zeta"] for e in doc["evaluations"]] == ["1/2", "1/3"]
        assert all(b"evaluations" not in t for t in after[0].values())
        assert {r["suite"] for r in json.loads(symmetral)["results"]} == \
            {"symmetral"}
        assert {r["suite"] for r in json.loads(after[1])["results"]} == \
            set(cli.SUITES)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(json_text, json_values))
    def test_write_json_matches_json_dump(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            got, want = (os.path.join(directory, f) for f in ("got", "want"))
            cli._write_json(got, doc)
            with open(want, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.write("\n")
            with open(got, "rb") as g, open(want, "rb") as w:
                assert g.read() == w.read()


class TestCacheCommand:
    def test_inspect_and_clear(self, euler_file, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main(["normalize", "--field", euler_file,
                     "--x-order", "5", "--n-max", "0",
                     "--output-dir", str(tmp_path / "out"),
                     "--cache", str(cache)])
        assert code == 0
        assert main(["cache", "inspect", "--cache", str(cache)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == cachemod.CACHE_VERSION
        assert info["x_order"] == 5
        # header and digest trailer are not entries
        assert info["entries"] == len(cache.read_text().splitlines()) - 2
        assert info["entries"] >= 1
        assert main(["cache", "clear", "--cache", str(cache)]) == 0
        assert not cache.exists()
        # clearing a missing cache is not an error
        assert main(["cache", "clear", "--cache", str(cache)]) == 0

    def test_inspect_missing_is_io_error(self, tmp_path):
        assert main(["cache", "inspect",
                     "--cache", str(tmp_path / "none.json")]) == 3

    def test_inspect_non_object_header_exit_3(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]\n")
        assert main(["cache", "inspect", "--cache", str(path)]) == 3
        assert "error:" in capsys.readouterr().err


class TestCacheModule:
    def test_round_trip(self, euler_field, tmp_path):
        A = euler_field.to_bivariate(1, 1)
        fhash = cachemod.field_hash(A)
        mould = mc.solve_V(euler_field, 6)
        mould.value((-1,))
        mould.value((-1, -1))
        path = tmp_path / "c.json"
        cachemod.save_mould_cache(path, mould, fhash)
        entries = cachemod.load_mould_cache(path, fhash, 6)
        assert entries[(-1,)] == mould.value((-1,))
        assert entries[(-1, -1)] == mould.value((-1, -1))

    def test_mismatches_rejected(self, euler_field, tmp_path):
        A = euler_field.to_bivariate(1, 1)
        fhash = cachemod.field_hash(A)
        mould = mc.solve_V(euler_field, 4)
        mould.value((-1,))
        path = tmp_path / "c.json"
        cachemod.save_mould_cache(path, mould, fhash)
        with pytest.raises(CacheError):
            cachemod.load_mould_cache(path, "deadbeef", 4)
        for other_order in (5, 3):
            with pytest.raises(CacheError, match="x_order"):
                cachemod.load_mould_cache(path, fhash, other_order)
        # a foreign version, and an entry one coefficient short of
        # x_order, each under a matching digest
        header, entry, _ = [json.loads(line)
                            for line in path.read_text().splitlines()]
        assert path.read_text() == with_digest([header, entry])
        short = dict(entry, coeffs=entry["coeffs"][:-1])
        for docs in ([dict(header, version=999), entry], [header, short]):
            path.write_text(with_digest(docs))
            with pytest.raises(CacheError, match="version|order"):
                cachemod.load_mould_cache(path, fhash, 4)
        # a wrong digest, a missing trailer, and a line after the trailer
        lines = with_digest([header, entry]).splitlines(keepends=True)
        changed = dict(entry, coeffs=entry["coeffs"][::-1])
        changed_line = with_digest([header, changed]).splitlines(
            keepends=True)[1]
        for bad in ([lines[0], changed_line, lines[2]], lines[:2],
                    lines + [lines[1]]):
            path.write_text("".join(bad))
            with pytest.raises(CacheError, match="digest"):
                cachemod.load_mould_cache(path, fhash, 4)

    def test_entry_above_header_order_truncated(self, euler_field,
                                                tmp_path):
        # a version-3 file may hold suffix entries above its header order
        A = euler_field.to_bivariate(1, 1)
        fhash = cachemod.field_hash(A)
        high = mc.solve_V(euler_field, 6).value((-1,))
        header = {"version": cachemod.CACHE_VERSION, "field_hash": fhash,
                  "x_order": 4}
        entry = {"word": [-1], "coeffs": [c.to_quad() for c in high.coeffs]}
        path = tmp_path / "c.json"
        path.write_text(with_digest([header, entry]))
        entries = cachemod.load_mould_cache(path, fhash, 4)
        assert entries == {(-1,): mc.solve_V(euler_field, 4).value((-1,))}

    def test_failed_write_keeps_previous_cache(self, euler_field, tmp_path,
                                               monkeypatch):
        A = euler_field.to_bivariate(1, 1)
        fhash = cachemod.field_hash(A)
        mould = mc.solve_V(euler_field, 6)
        mould.value((-1,))
        path = tmp_path / "c.json"
        cachemod.save_mould_cache(path, mould, fhash)
        before = path.read_bytes()
        mould.value((-1, -1))
        real, calls = cachemod._entry_line, []

        def entry_line(w, s):
            # the first entry converts, the second one cannot be written
            calls.append(w)
            if len(calls) > 1:
                raise TypeError("entry cannot be formatted")
            return real(w, s)

        monkeypatch.setattr(cachemod, "_entry_line", entry_line)
        with pytest.raises(TypeError):
            cachemod.save_mould_cache(path, mould, fhash)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        assert cachemod.load_mould_cache(path, fhash, 6) == \
            {(-1,): mould.value((-1,))}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1, 5), max_size=6).map(tuple), series)
    def test_entry_line_matches_json_dumps(self, word, s):
        assert cachemod._entry_line(word, s) == json.dumps(
            {"word": list(word), "coeffs": s.quads()}, sort_keys=True,
            separators=(",", ":")) + "\n"

    def test_env_var_controls_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cachemod.CACHE_DIR_ENV, str(tmp_path / "cc"))
        A = bivariate({(0, 1): 1}, x_order=1, y_order=1)
        path = cachemod.cache_path(A, 4)
        assert path.startswith(str(tmp_path / "cc"))

    def test_field_hash_is_content_hash(self):
        A = bivariate({(0, 1): 1, (1, 2): 1}, x_order=1, y_order=2)
        B = bivariate({(1, 2): 1, (0, 1): 1}, x_order=1, y_order=2)
        C = bivariate({(0, 1): 1, (1, 2): 2}, x_order=1, y_order=2)
        assert cachemod.field_hash(A) == cachemod.field_hash(B)
        assert cachemod.field_hash(A) != cachemod.field_hash(C)


class TestCacheReuse:
    @pytest.fixture
    def field_file(self, tmp_path):
        # letters -1, 0 and 1
        A = bivariate({(0, 1): 1, (1, 0): 1, (2, 1): 1, (1, 2): 1},
                      x_order=2, y_order=2)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(mc.field_to_json(A)))
        return str(path)

    def normalize(self, field_file, tmp_path, out="out"):
        return main(["normalize", "--field", field_file, "--x-order", "6",
                     "--n-max", "3", "--output-dir", str(tmp_path / out),
                     "--cache", str(tmp_path / "cache.json")])

    def test_cached_suffix_needs_one_solve(self, field_file, tmp_path,
                                           monkeypatch):
        assert self.normalize(field_file, tmp_path) == 0
        A = mc.load_field_file(field_file)
        field = mc.extract_letters(A)
        entries = cachemod.load_mould_cache(
            tmp_path / "cache.json", cachemod.field_hash(A), 6)
        cached = max(entries, key=mc.word_key)
        word = next((n,) + cached for n in field.support
                    if n + sum(cached) != 0)
        assert word not in entries
        mould = mc.solve_V(field, 6)
        mould.preload(entries)
        real, calls = moulds.solve_euler_shifted, []

        def counted(b, mu):
            calls.append(mu)
            return real(b, mu)

        monkeypatch.setattr(moulds, "solve_euler_shifted", counted)
        value = mould.value(word)
        assert len(calls) == 1
        monkeypatch.undo()
        assert value == mc.solve_V(field, 6).value(word)

    def test_cold_run_solves_each_word_once(self, field_file, tmp_path,
                                            monkeypatch):
        solvers, calls = [], []
        real_solve_V, real_solve = cli.solve_V, moulds.solve_euler_shifted

        def solve_V(field, x_order):
            solvers.append(real_solve_V(field, x_order))
            return solvers[-1]

        def counted(b, mu):
            calls.append(mu)
            return real_solve(b, mu)

        monkeypatch.setattr(cli, "solve_V", solve_V)
        monkeypatch.setattr(moulds, "solve_euler_shifted", counted)
        assert self.normalize(field_file, tmp_path) == 0
        [mould] = solvers
        assert len(calls) == len(mould.known_words())
        assert {v.order for v in mould._memo.values()} == {6}

    def test_repeated_run_leaves_cache_untouched(self, field_file,
                                                 tmp_path):
        cache = tmp_path / "cache.json"
        assert self.normalize(field_file, tmp_path, "cold") == 0
        before = cache.read_bytes(), cache.stat().st_mtime_ns
        assert self.normalize(field_file, tmp_path, "warm") == 0
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before

    def test_one_sweep_one_value_per_word(self, field_file, tmp_path,
                                          monkeypatch):
        """A normalize job traverses the word tree once, reads each
        contributing word's solver value once, and builds no
        symmetral_inverse mould."""
        sweeps, reads = [], []
        real_sweep, real_value = normalisation.sweep_words, mc.Mould.value

        def sweep_words(*args):
            sweeps.append(args)
            return real_sweep(*args)

        def value(mould, word):
            reads.append(tuple(word))
            return real_value(mould, word)

        def refuse(*args):
            raise RuntimeError("a symmetral_inverse mould was built")

        monkeypatch.setattr(normalisation, "sweep_words", sweep_words)
        monkeypatch.setattr(mc.Mould, "value", value)
        for module in (moulds, normalisation, cli):
            monkeypatch.setattr(module, "symmetral_inverse", refuse,
                                raising=False)
        assert self.normalize(field_file, tmp_path) == 0
        assert len(sweeps) == 1
        support = mc.extract_letters(mc.load_field_file(field_file)).support
        contributing = {w for n in range(4)
                        for w in mc.contributing_words(n - 1, 6, support)}
        assert sorted(reads) == sorted(
            w for w in contributing if mc.beta(w) or mc.beta(w[::-1]))
        assert any(mc.beta(w) == 0 for w in set(reads))
        assert any(mc.beta(w[::-1]) == 0 for w in set(reads))

    def test_check_leaves_loaded_cache_untouched(self, field_file,
                                                 tmp_path):
        cache = tmp_path / "cache.json"
        assert self.normalize(field_file, tmp_path) == 0
        before = cache.read_bytes(), cache.stat().st_mtime_ns
        assert main(["check", "--suite", "all", "--field", field_file,
                     "--x-order", "6", "--n-max", "3",
                     "--output-dir", str(tmp_path / "check"),
                     "--cache", str(cache)]) == 0
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before
