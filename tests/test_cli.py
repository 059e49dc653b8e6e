"""CLI and JSON wire-format tests: round trips, exit codes, determinism."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from borelenv import cli, envelope, jsonio, verify
from borelenv.cli import main
from borelenv.decomp import bruhat_decompose, ulp_decompose
from borelenv.envelope import envelope_certificate
from borelenv.errors import InvalidInput, ResourceGuard
from borelenv.linalg import FieldSpec, Matrix
from borelenv.rng import SplitMix64, random_invertible, random_matrix
from borelenv.weyl import Permutation, perm_matrix

Q = FieldSpec.rational()
F5 = FieldSpec.prime(5)


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(json.dumps(jsonio.matrix_to_json(m)))
    return str(path)


@pytest.fixture
def int_str_digit_limit():
    """Python's default 4,300-digit int-to-str limit, restored afterwards.

    Python 3.10.0-3.10.6 has no such limit, and PYTHONINTMAXSTRDIGITS=0
    lifts it; a long entry then prints and nothing is guarded.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestJson:
    def test_field_roundtrip(self):
        for f in (Q, F5, FieldSpec.prime(2)):
            assert jsonio.field_from_json(jsonio.field_to_json(f)) == f
        with pytest.raises(InvalidInput):
            jsonio.field_from_json({"Fp": "5"})
        with pytest.raises(InvalidInput):
            jsonio.field_from_json("R")

    def test_scalar_encoding(self):
        assert jsonio.scalar_to_json(Q, Q.coerce("-2/3")) == "-2/3"
        assert jsonio.scalar_to_json(Q, Q.coerce(4)) == "4"
        assert jsonio.scalar_to_json(F5, 3) == 3
        assert jsonio.matrix_from_json({"rows": [["-2/3", 7]]}, Q).row(0) == (Q.coerce("-2/3"), Q.coerce(7))
        with pytest.raises(InvalidInput):
            jsonio.matrix_from_json({"rows": [["3"]]}, F5)

    def test_long_rational_is_a_resource_guard(self, int_str_digit_limit):
        assert len(jsonio.scalar_to_json(Q, Fraction(10**4000 + 1, 3))) == 4003
        with pytest.raises(ResourceGuard):
            jsonio.scalar_to_json(Q, Fraction(10**4400 + 1, 3))
        with pytest.raises(ResourceGuard):
            jsonio.scalar_to_json(Q, Fraction(1, 10**4400 + 1))

    def test_matrix_roundtrip(self):
        rng = SplitMix64(151)
        for field in (Q, F5):
            m = random_matrix(rng, field, 3)
            again = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
            assert again == m

    def test_matrix_field_mismatch(self):
        m = Matrix.identity(Q, 2)
        obj = jsonio.matrix_to_json(m)
        with pytest.raises(InvalidInput):
            jsonio.matrix_from_json(obj, F5)

    def test_perm_roundtrip(self):
        w = Permutation((2, 1, 3))
        assert jsonio.perm_from_json(jsonio.perm_to_json(w)) == w
        with pytest.raises(InvalidInput):
            jsonio.perm_from_json([1, 1])
        with pytest.raises(InvalidInput):
            jsonio.perm_from_json([True, 2])

    def test_certificate_shape(self):
        cert = envelope_certificate(Matrix.identity(Q, 2))
        obj = jsonio.certificate_to_json(cert)
        assert obj["spans"] is True
        assert obj["field"] == "Q"
        assert all(set(e) == {"vector", "w"} for e in obj["entries"])
        assert all(len(e["vector"]) == 4 for e in obj["entries"])

    def test_factor_payloads(self):
        g = Matrix.from_rows(Q, [[1, 0], [1, 1]])
        bobj = jsonio.bruhat_to_json(bruhat_decompose(g))
        assert bobj["kind"] == "bruhat" and bobj["s"] == [2, 1]
        uobj = jsonio.ulp_to_json(ulp_decompose(g, "lower"))
        assert uobj["kind"] == "ulp" and uobj["normalization"] == "lower"


class TestCliEnvelope:
    def test_identity_spans(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 2))
        code = main(["envelope", "--matrix", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["spans"] is True
        assert all(e["w"] == [1, 2] for e in out["entries"])

    def test_small_weyl_set_exits_one(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "swap.json", perm_matrix(Permutation((2, 1)), Q))
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps([[1, 2]]))
        code = main(["envelope", "--matrix", path, "--weyl-set", str(ws)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["spans"] is False

    def test_restricted_random_f5(self, tmp_path, capsys):
        rng = SplitMix64(157)
        g = random_invertible(rng, F5, 3)
        path = write_matrix(tmp_path, "g.json", g)
        code = main(["envelope", "--matrix", path, "--restricted", "--field", "fp:5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["spans"] is True

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["envelope", "--matrix", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _assert_one_error_line(path, capsys):
        assert main(["envelope", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed JSON") and captured.err.count("\n") == 1

    def test_unreadable_matrix_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["envelope", "--matrix", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {missing}: ") and captured.err.count("\n") == 1

    def test_non_utf8_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"field": "Q", "rows": [["\xe9"]]}')
        self._assert_one_error_line(bad, capsys)

    def test_integer_past_digit_limit_exits_two(self, tmp_path, capsys, int_str_digit_limit):
        bad = tmp_path / "long.json"
        bad.write_text('{"field": "Q", "rows": [[' + "7" * 4301 + "]]}")
        self._assert_one_error_line(bad, capsys)

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        self._assert_one_error_line(bad, capsys)

    def test_exponent_literal_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({"field": "Q", "rows": [["1e100000", "0"], ["0", "1"]]}))
        assert main(["envelope", "--matrix", str(bad)]) == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["foo", "fp:abc"])
    def test_bad_field_argument_exits_two(self, field, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 2))
        assert main(["envelope", "--matrix", path, "--field", field]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad field argument {field!r}" + (
            " (want q or fp:<p>)\n" if field == "foo" else "\n")

    def test_weyl_set_object_exits_two(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 2))
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps({"w": [1, 2]}))
        assert main(["envelope", "--matrix", path, "--weyl-set", str(ws)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weyl set file must hold a JSON array of permutations\n"

    def test_certificate_failing_self_verification_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_certificate", lambda cert: False)
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 2))
        assert main(["envelope", "--matrix", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: certificate failed self-verification\n"

    def test_callers_weyl_set_past_greedy_guard_exits_two(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(envelope, "_row_flag_algebra", lambda target: built.append(target))
        path = write_matrix(tmp_path, "g7.json", random_invertible(SplitMix64(7), Q, 7))
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps([list(range(1, 8))]))
        assert main(["envelope", "--matrix", path, "--weyl-set", str(ws)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: greedy certificates guarded at n <= 6\n")
        assert built == []

    def test_singular_exits_two(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "z.json", Matrix.zeros(Q, 2, 2))
        assert main(["envelope", "--matrix", path]) == 2

    def test_boolean_permutation_exits_two(self, tmp_path, capsys):
        # true == 1 in Python; it must not pass for the identity
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 2))
        ws = tmp_path / "ws.json"
        ws.write_text("[[true, 2]]")
        assert main(["envelope", "--matrix", path, "--weyl-set", str(ws)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_boolean_modulus_exits_two(self, tmp_path, capsys):
        # true is an int in Python; as a modulus it must read as a bad field
        path = tmp_path / "bool.json"
        path.write_text('{"field": {"Fp": true}, "rows": [[1]]}')
        assert main(["envelope", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad field descriptor {'Fp': True}\n"


class TestCliDecomp:
    def test_bruhat_permutation_input(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "p.json", perm_matrix(Permutation((2, 3, 1)), Q))
        code = main(["decomp", "--matrix", path, "--kind", "bruhat"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s"] == [2, 3, 1]
        assert out["u1"]["rows"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    def test_ulp_zero_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "z.json", Matrix.zeros(Q, 2, 2))
        code = main(["decomp", "--matrix", path, "--kind", "ulp", "--normalize", "upper"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["p"] == [1, 2]
        assert out["l"]["rows"] == [["0", "0"], ["0", "0"]]

    def test_bruhat_singular_exits_two(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "z.json", Matrix.zeros(Q, 2, 2))
        assert main(["decomp", "--matrix", path, "--kind", "bruhat"]) == 2

    def test_ulp_infeasible_exits_one(self, tmp_path, capsys):
        m = Matrix.from_rows(Q, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        path = write_matrix(tmp_path, "m.json", m)
        code = main(["decomp", "--matrix", path, "--kind", "ulp", "--normalize", "upper"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["infeasible"] is True

    # rational entries, so the sweeps carry row denominators; the stdout
    # bytes of each command, pinned by sha256 (the CI smoke test runs the
    # same four commands)
    HALVES = [["1/2", 1, 0], [3, "2/3", 1], [0, 1, "5/7"]]
    THIRDS = [["1/2", 1, "1/3"], [1, 2, "2/3"], ["3/4", "3/2", 1]]

    @pytest.mark.parametrize("rows, args, digest", [
        (HALVES, ["--kind", "ulp", "--normalize", "lower"],
         "a13d6068884eb209d45687e7fde351bf3b7cfacaf0df20019913422247f3606b"),
        (HALVES, ["--kind", "ulp", "--normalize", "upper"],
         "fa97c6fe175dfc58aa62357bb141e99c2713b659d7ff183d6402564449140672"),
        (HALVES, ["--kind", "bruhat"],
         "687890a248f5230d769f9072d1adad5ec96a793f8e08a78c906e668096ec7550"),
        (THIRDS, ["--kind", "ulp", "--normalize", "upper"],
         "540771d2a8147532f081ea16fccf813b853a673bb2f6df78ac38b4acf8356f2c"),
    ])
    def test_rational_input_bytes(self, tmp_path, capsys, rows, args, digest):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows}))
        assert main(["decomp", "--matrix", str(path), "--field", "q", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_output_entry_past_digit_limit_exits_two(self, tmp_path, capsys, int_str_digit_limit):
        # 2,200-digit entries parse, but the U factor holds a ~4,400-digit numerator
        rows = [["1" * 2200, "3" * 2200], ["7" * 2200, "2"]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": "Q", "rows": rows}))
        code = main(["decomp", "--matrix", str(path), "--kind", "ulp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "too many digits" in captured.err


class TestCliOther:
    def test_weyl_leq(self, capsys):
        assert main(["weyl", "leq", "1,2,3", "3,2,1"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] is True
        assert main(["weyl", "length", "3,1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == 2

    def test_relpos_same_flag(self, tmp_path, capsys):
        rng = SplitMix64(163)
        g = random_invertible(rng, Q, 3)
        p1 = write_matrix(tmp_path, "f1.json", g)
        p2 = write_matrix(tmp_path, "f2.json", g)
        assert main(["relpos", "--flag1", p1, "--flag2", p2]) == 0
        assert json.loads(capsys.readouterr().out)["w"] == [1, 2, 3]

    def test_tangent_sum_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", Matrix.identity(Q, 3))
        code = main(["tangent-sum", "--matrix", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["holds"] is True
        assert len(out["ledger"]) == 6

    def test_bad_permutation_exits_two(self, capsys):
        assert main(["weyl", "leq", "1,1", "1,2"]) == 2

    @pytest.mark.parametrize(
        "args", [["leq", "1,2"], ["leq", "1,2", "2,1", "3,1,2"], ["length", "2,1", "9"]]
    )
    def test_weyl_wrong_argument_count_exits_two(self, args, capsys):
        assert main(["weyl", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes" in captured.err


class TestCliEmptyMatrix:
    """A matrix file with no rows is refused as input, naming the matrix,
    before any command reads its size: exit 2, nothing on stdout and one
    error line."""

    @staticmethod
    def _refused(tmp_path, capsys, *argv):
        path = tmp_path / "empty.json"
        path.write_text('{"rows": []}')
        argv = [str(path) if a == "EMPTY" else a for a in argv]
        assert main([*argv, "--field", "q"]) == 2
        assert capsys.readouterr() == ("", "error: matrix JSON has no rows\n")

    def test_envelope(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, "envelope", "--matrix", "EMPTY")

    def test_envelope_restricted(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, "envelope", "--restricted", "--matrix", "EMPTY")

    def test_tangent_sum(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, "tangent-sum", "--matrix", "EMPTY")

    @pytest.mark.parametrize("kind", ["bruhat", "ulp"])
    def test_decomp(self, kind, tmp_path, capsys):
        self._refused(tmp_path, capsys, "decomp", "--kind", kind, "--matrix", "EMPTY")

    def test_relpos(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, "relpos", "--flag1", "EMPTY", "--flag2", "EMPTY")


class TestCliWeylGuard:
    """``weyl leq`` and ``weyl length`` stop past cli.WEYL_LIMIT entries
    (exit 2, one error line) before the order or length is computed."""

    @staticmethod
    def _perm(n, reverse=False):
        return ",".join(map(str, range(n, 0, -1) if reverse else range(1, n + 1)))

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed past the guard")

        monkeypatch.setattr(cli, "bruhat_leq", refuse)
        monkeypatch.setattr(cli, "length", refuse)

    def _assert_guarded(self, args, capsys):
        assert main(["weyl", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: weyl {args[0]} guarded at {cli.WEYL_LIMIT} entries per permutation\n"

    def test_leq_past_limit_exits_two(self, capsys, no_work):
        n = cli.WEYL_LIMIT + 1
        self._assert_guarded(["leq", self._perm(n), self._perm(n, reverse=True)], capsys)

    def test_length_past_limit_exits_two(self, capsys, no_work):
        self._assert_guarded(["length", self._perm(cli.WEYL_LIMIT + 1, reverse=True)], capsys)

    def test_limit_still_answers(self, capsys):
        n = cli.WEYL_LIMIT
        assert cli.WEYL_LIMIT == 2000
        assert main(["weyl", "leq", self._perm(n), self._perm(n, reverse=True)]) == 0
        assert json.loads(capsys.readouterr().out)["result"] is True
        assert main(["weyl", "length", self._perm(n, reverse=True)]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == n * (n - 1) // 2


class TestCliVerify:
    def test_small_run_passes(self, capsys):
        code = main([
            "verify", "--seed", "3", "--trials", "4", "--fields", "fp:2,q",
            "--n", "2..3", "--suite", "weyl,decomp",
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    def test_byte_identical_reports(self, capsys):
        args = ["verify", "--seed", "42", "--trials", "3", "--fields", "fp:3",
                "--n", "2..3", "--suite", "envelope"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--suite", "foo"], "unknown suite", id="unknown-suite"),
        pytest.param(["--trials", "0", "--suite", "envelope"], "trials must be at least 1",
                     id="trials-zero"),
        pytest.param(["--n", "5..2", "--suite", "envelope"], "bad size range", id="lo-above-hi"),
        pytest.param(["--n", "0..2", "--suite", "decomp"], "bad size range", id="lo-below-one"),
        pytest.param(["--n", f"1..{sys.maxsize + 1}", "--suite", "weyl"], "bad size range",
                     id="hi-past-maxsize"),
        pytest.param(["--n", "5..6", "--suite", "flag"], "leaves the flag suite no size",
                     id="flag-sizes-empty"),
    ])
    def test_run_that_checks_nothing_exits_two(self, args, message, capsys):
        code = main(["verify", "--fields", "q"] + args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--n", "2..7"], "envelope_bruteforce guarded at n <= 6", id="full"),
        pytest.param(["--n", "2..13", "--mode", "restricted"], "restricted certificates guarded at n <= 12",
                     id="restricted"),
    ])
    def test_range_past_envelope_guard_runs_no_suite(self, args, message, monkeypatch, capsys):
        ran = []
        for name, (_, least, most) in verify._SUITES.items():
            monkeypatch.setitem(verify._SUITES, name, (lambda config, ns, name=name: ran.append(name) or [], least, most))
        code = main(["verify", "--trials", "1"] + args)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert ran == []

    # the decomp suite's trial k is singular iff k % 3 != 0 and has size
    # ns[k % len(ns)]; a singular draw past ULP_SEARCH_LIMIT = 8 needs the
    # guarded unipotent-upper search
    DECOMP_ARGS = ["verify", "--suite", "weyl,decomp", "--fields", "fp:2"]

    def test_singular_ulp_draw_past_search_limit_runs_no_suite(self, monkeypatch, capsys):
        # trial 7 is a singular 9 x 9 draw
        ran = []
        _, least, most = verify._SUITES["weyl"]
        monkeypatch.setitem(verify._SUITES, "weyl", (lambda config, ns: ran.append("weyl") or [], least, most))
        code = main(self.DECOMP_ARGS + ["--n", "2..9", "--trials", "8"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: unipotent-upper search needs 9! permutation trials\n"
        assert ran == []

    @pytest.mark.parametrize("args, digest", [
        # trials 0..6 reach n = 8 at most
        pytest.param(["--n", "2..9", "--trials", "7"],
                     "9d9c96ce5343efb726fa616382d7823ab104acbf8a49b82fac176c7a2245f504", id="sizes-2-to-8"),
        # trial 0 is invertible, so n = 9 takes no search
        pytest.param(["--n", "9..9", "--trials", "1"],
                     "879873788a116eea1951bb3261a63138c09546ed3f78bd920365ae08d945a851", id="invertible-9"),
    ])
    def test_no_singular_draw_past_search_limit_passes(self, args, digest, capsys):
        assert main(self.DECOMP_ARGS + args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # a size range too wide to list: the sizes are planned as a range, so
    # each guard and each draw reads only the sizes it needs
    WIDE = f"1..{10 ** 18}"

    def test_wide_range_weyl_passes(self, capsys):
        assert main(["verify", "--suite", "weyl", "--n", self.WIDE, "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_wide_range_decomp_draws_what_one_size_draws(self, capsys):
        # one trial takes ns[0] = 1, as --n 1..1 does
        suites = []
        for sizes in (self.WIDE, "1..1"):
            assert main(["verify", "--suite", "decomp", "--n", sizes, "--trials", "1"]) == 0
            suites.append(json.dumps(json.loads(capsys.readouterr().out)["suites"], sort_keys=True))
        assert suites[0] == suites[1]

    def test_wide_range_past_envelope_guard_exits_two(self, capsys):
        assert main(["verify", "--suite", "envelope", "--n", f"2..{10 ** 18}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: envelope_bruteforce guarded at n <= 6\n")

    def test_bad_range_exits_two(self, capsys):
        assert main(["verify", "--n", "oops"]) == 2
