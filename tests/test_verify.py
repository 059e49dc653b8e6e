"""Verification-harness tests: PRNG pinning, suite plumbing, replay dumps."""

import hashlib
import json
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from borelenv import envelope, flags, jsonio, linalg, verify
from borelenv.cli import main
from borelenv.decomp import bruhat_decompose
from borelenv.envelope import witness_basis
from borelenv.errors import InvalidInput, UlpInfeasible
from borelenv.linalg import FieldSpec, Matrix, inverse, rref, subspace_from_rows
from borelenv.rng import (
    SplitMix64,
    derive_stream,
    random_invertible,
    random_singular,
    random_upper_invertible,
)
from borelenv.verify import (
    RunConfig,
    bruhat_order_exhaustive,
    bruhat_roundtrip,
    envelope_identity,
    gl2_elements,
    intersection_dimension,
    report_json,
    restricted_envelope,
    run_suites,
    tangent_cover,
    ulp_roundtrip,
    witness_construction,
)
from borelenv.weyl import Permutation, enumerate_group

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


class TestSplitMix64:
    def test_reference_vector(self):
        # published SplitMix64 outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_determinism_across_instances(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_derive_stream_distinct(self):
        xs = {derive_stream(1, k).next_u64() for k in range(100)}
        assert len(xs) == 100


class TestGenerators:
    def test_random_invertible_has_full_rank(self):
        rng = SplitMix64(5)
        for field in (Q, F2, F3):
            for _ in range(20):
                m = random_invertible(rng, field, 3)
                assert rref(m).rank == 3

    def test_random_singular_is_singular(self):
        rng = SplitMix64(6)
        for field in (Q, F2, F3):
            for _ in range(20):
                n = 1 + rng.below(5)
                m = random_singular(rng, field, n)
                assert rref(m).rank < max(n, 1) or n == 0

    def test_random_upper_is_upper_invertible(self):
        rng = SplitMix64(8)
        for field in (Q, F2):
            for _ in range(20):
                m = random_upper_invertible(rng, field, 4)
                assert m.is_upper_triangular()
                assert rref(m).rank == 4

    def test_rational_entries_bounded(self):
        rng = SplitMix64(9)
        m = random_invertible(rng, Q, 5)
        assert all(x.denominator == 1 and abs(x) <= 9 for x in m.entries)


class TestGL2:
    def test_counts(self):
        assert len(gl2_elements(F2)) == 6
        assert len(gl2_elements(F3)) == 48


class TestInverseCalls:
    """``linalg.inverse`` calls, counted under every name a package module
    binds it to."""

    @staticmethod
    def _count(monkeypatch) -> list:
        real, calls = linalg.inverse, []

        def counting(m):
            calls.append(m)
            return real(m)

        for name, mod in list(sys.modules.items()):
            if name == "borelenv" or name.startswith("borelenv."):
                for key, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, key, counting)
        return calls

    def test_one_inverse_per_tangent_cover_check(self, monkeypatch):
        # the bridge inverts h once; neither flag(h) nor borel(h^-1) inverts
        calls = self._count(monkeypatch)
        result = tangent_cover((F2, F5, Q), [2, 3], 2, seed=1)
        assert result.passed and result.counts["checked"] == 54 + 3 * 4
        assert len(calls) == result.counts["checked"]

    def test_witnesses_make_no_inverse(self, monkeypatch):
        # the witnesses peel u^-1 by back-substitution
        calls = self._count(monkeypatch)
        rng = SplitMix64(263)
        for field in (Q, F2, F5):
            for n in range(1, 6):
                u = random_upper_invertible(rng, field, n)
                witness_basis(u)
        assert calls == []

    def test_relative_position_makes_no_inverse(self, monkeypatch):
        # both flags are read from their keys and duals
        calls = self._count(monkeypatch)
        rng = SplitMix64(269)
        for field in (Q, F2, F5):
            for n in range(1, 6):
                f1, f2 = (flags.flag_from_matrix(random_invertible(rng, field, n)) for _ in range(2))
                flags.relative_position(f1, f2)
                flags.relative_position(f1, f1)
        assert calls == []

    def test_verify_one_trial(self, monkeypatch):
        # the config of `borelenv verify --seed 7 --trials 1`: c2's
        # conjugation check is its only inverse of u
        calls = self._count(monkeypatch)
        assert run_suites(RunConfig(7, 1, (F2, F3, F5, Q), (2, 4), "full"))["pass"]
        assert len(calls) == 70


class TestSuites:
    def test_exhaustive_suites_pass(self):
        assert bruhat_order_exhaustive(max_n=3).passed
        assert intersection_dimension(max_n=3).passed

    def test_sampled_suites_pass_small(self):
        fields = (F2, Q)
        assert envelope_identity(fields, [2, 3], 3, seed=1).passed
        assert witness_construction(fields, [2, 3], 4, seed=2).passed
        assert restricted_envelope(fields, [2, 3], 3, seed=3).passed
        assert ulp_roundtrip(fields, [1, 2, 3], 6, seed=4).passed
        assert bruhat_roundtrip(fields, [1, 2, 3], 6, seed=5).passed
        assert tangent_cover(fields, [2, 3], 2, seed=6).passed

    def test_threads_do_not_change_results(self):
        config = RunConfig(11, 6, (F3,), (3, 3), "full")
        a = report_json(run_suites(config, suites=("envelope",), threads=1))
        b = report_json(run_suites(config, suites=("envelope",), threads=4))
        assert a == b

    def test_threads_run_every_trial_on_the_calling_thread(self, monkeypatch):
        # every sampled check and every GL_2 prelude goes through one of these
        seen = {}
        for name in ("envelope_bruteforce", "envelope_certificate", "witness_basis",
                     "ulp_decompose", "bruhat_decompose", "_tangent_sum"):
            def recorded(*args, _real=getattr(verify, name), _name=name, **kwargs):
                seen.setdefault(_name, set()).add(threading.get_ident())
                return _real(*args, **kwargs)

            monkeypatch.setattr(verify, name, recorded)
        config = RunConfig(3, 1, (F2, Q), (2, 3), "full")
        assert run_suites(config, threads=4)["pass"]
        assert seen == dict.fromkeys(seen, {threading.get_ident()})
        assert len(seen) == 6

    def test_inputs_that_check_nothing_are_rejected(self, monkeypatch):
        for bad in (dict(trials=0), dict(trials=-3), dict(n_range=(5, 2)),
                    dict(n_range=(0, 3)), dict(fields=()), dict(mode="fast")):
            args = dict(seed=1, trials=2, fields=(F2,), n_range=(2, 3), mode="full") | bad
            with pytest.raises(InvalidInput):
                RunConfig(**args)
        # every suite is vetted before the first runs
        monkeypatch.setattr(verify, "_SUITES", {
            name: (None, *limits) for name, (_, *limits) in verify._SUITES.items()})
        config = RunConfig(1, 2, (F2,), (5, 6), "full")
        for suites in (("foo",), ("envelope", "foo"), (), ("all",), ("flag",)):
            with pytest.raises(InvalidInput):
                run_suites(config, suites=suites)

    def test_report_byte_identical(self):
        config = RunConfig(21, 3, (F2, Q), (2, 3), "full")
        r1 = report_json(run_suites(config, suites=("weyl", "decomp")))
        r2 = report_json(run_suites(config, suites=("weyl", "decomp")))
        assert r1 == r2

    def test_restricted_mode_runs_restricted_only(self):
        config = RunConfig(5, 2, (F2,), (2, 3), "restricted")
        report = run_suites(config, suites=("envelope",))
        names = [c["criterion"] for s in report["suites"] for c in s["criteria"]]
        assert names == ["restricted-envelope"]


class TestSharedEnvelopePass:
    """In full mode the envelope suite checks c1 and c3 in one pass over the
    drawn g: each criterion gets the results it gets alone."""

    @staticmethod
    def _envelope_criteria(config):
        report = run_suites(config, suites=("envelope",))
        return {c["criterion"]: c for c in report["suites"][0]["criteria"]}

    @pytest.mark.parametrize("config", [
        RunConfig(31, 3, (F2, F3), (2, 5), "full"),
        RunConfig(32, 3, (F5, Q), (2, 5), "full"),
        RunConfig(33, 4, (F2, F3, F5, Q), (2, 4), "restricted"),
    ], ids=["f2-f3", "f5-q", "restricted"])
    def test_matches_separate_runs(self, config):
        got = self._envelope_criteria(config)
        ns = list(range(config.n_range[0], config.n_range[1] + 1))
        args = (config.fields, ns, config.trials, config.seed)
        want = [restricted_envelope(*args)]
        if config.mode == "full":
            want.append(envelope_identity(*args))
        assert len(got) == (1 if config.mode == "restricted" else 4)
        for result in want:
            assert result.passed
            assert got[result.name] == result.to_json()

    def test_first_failure_stops_only_its_criterion(self, monkeypatch):
        target = gl2_elements(F3)[7]
        calls = []
        real = verify.envelope_bruteforce

        def oracle(g, weyl_set):
            calls.append(g)
            out = real(g, weyl_set)
            return None if g == target else out

        monkeypatch.setattr(verify, "envelope_bruteforce", oracle)
        config = RunConfig(1, 3, (F2, F5, Q), (2, 3), "full")
        got = self._envelope_criteria(config)
        c1, c3 = got["envelope-identity"], got["restricted-envelope"]
        assert not c1["pass"] and c1["counts"] == {"checked": 6 + 8}
        assert c1["failures"][0]["offset"] == -8
        assert len(calls) == 6 + 8  # the oracle ran on nothing after its failure
        assert c3 == restricted_envelope((F2, F5, Q), [2, 3], 3, seed=1).to_json()
        assert c3["pass"] and c3["counts"] == {"checked": 54 + 3 * 2 * 3}

    def test_restricted_failure_leaves_the_identity_running(self, monkeypatch):
        target = random_invertible(derive_stream(1, 1), F5, 3)
        real = verify.verify_certificate
        monkeypatch.setattr(verify, "verify_certificate",
                            lambda cert: cert.target.g != target and real(cert))
        config = RunConfig(1, 3, (F2, F5, Q), (2, 3), "full")
        got = self._envelope_criteria(config)
        c1, c3 = got["envelope-identity"], got["restricted-envelope"]
        # 54 prelude inputs, F_2 x (n = 2, 3) x 3 trials, F_5: n = 2 x 3, then n = 3, k = 0, 1
        assert c3["counts"] == {"checked": 54 + 6 + 3 + 2}
        [dump] = c3["failures"]
        assert (dump["offset"], dump["n"], dump["detail"]) == (1, 3, "certificate failed self-verification")
        assert jsonio.matrix_from_json(dump["input"]) == target
        assert c1 == envelope_identity((F2, F5, Q), [2, 3], 3, seed=1).to_json()
        assert c1["pass"] and c1["counts"] == {"checked": 54 + 3 * 2 * 3}

    def test_each_g_is_drawn_once_and_built_once(self, monkeypatch):
        draws, builds = [], []
        real_draw, real_init = verify.random_invertible, envelope.BorelConjugate.__init__

        def init(self, g):
            builds.append(g)
            real_init(self, g)

        monkeypatch.setattr(verify, "random_invertible", lambda *args: draws.append(args) or real_draw(*args))
        monkeypatch.setattr(envelope.BorelConjugate, "__init__", init)
        envelope.borel_from_g.cache_clear()
        config = RunConfig(3, 2, (F5, Q), (3, 4), "full")
        got = self._envelope_criteria(config)
        assert all(c["pass"] for c in got.values())
        assert len(draws) == 2 * 2 * 2  # (field, n, k): no g drawn twice
        prelude = [g for field in (F2, F3) for g in gl2_elements(field)]
        assert len(builds) == len(set(builds)) == len(prelude) + len(draws)


class TestIntersectionSumMemo:
    """``envelope._intersection_sum`` keeps its last 8 sums: the GL_2 prelude
    holds 7 Borels in 54 elements, and a run's last sums evict them."""

    def test_prelude_sums_once_per_borel(self, monkeypatch):
        algebras = []
        real = envelope._coordinate_kernel
        monkeypatch.setattr(envelope, "_coordinate_kernel", lambda s, coords: algebras.append(s) or real(s, coords))
        before = envelope._intersection_sum.cache_info()
        result = envelope_identity((F5,), [3], 1, 11)
        after = envelope._intersection_sum.cache_info()
        assert result.passed and result.counts == {"checked": 54 + 1}
        prelude = [s for s in algebras if s.ambient_dim == 4]
        # 3 Borels over F_2 and 4 over F_3, each summed once: at most the
        # two terms of S_2 per sum
        assert len(set(prelude)) == 7 and len(prelude) <= 2 * 7
        assert (after.misses - before.misses, after.hits - before.hits) == (7 + 1, 54 - 7)

    def test_no_sum_outlives_a_run(self):
        # the config of `borelenv verify --trials 1`: c1 and c7 make 17 sums
        # each, 7 for the prelude and 10 for their 12 samples (the n = 2
        # samples over F_2 and F_3 find a prelude Borel), and a second run
        # finds nothing the first left behind
        def computed(seed):
            before = envelope._intersection_sum.cache_info().misses
            assert run_suites(RunConfig(seed, 1, (F2, F3, F5, Q), (2, 4), "full"))["pass"]
            return envelope._intersection_sum.cache_info().misses - before

        assert [computed(7), computed(8)] == [34, 34]


class TestBorelBuilds:
    """borel(g) is built once per Borel, keyed by g's row flag
    (``envelope._row_flag_algebra``), and stab(F) once per flag; each memo
    keeps 8, enough for the 7 Borels of the GL_2 prelude within one pass."""

    def test_verify_run_builds_51_borels_cold_and_again(self, monkeypatch):
        builds = []
        real = envelope._borel_span

        def counting(*args):
            builds.append(args[0])
            return real(*args)

        for module in (envelope, flags):
            monkeypatch.setattr(module, "_borel_span", counting)
        envelope.borel_from_g.cache_clear()
        flags.stabilizer_algebra.cache_clear()
        config = RunConfig(7, 1, (F2, F3, F5, Q), (2, 4), "full")  # `borelenv verify --seed 7 --trials 1`

        def built():
            before = len(builds)
            assert run_suites(config)["pass"]
            return len(builds) - before

        # a second run in the same process finds nothing the first left
        assert [built(), built()] == [51, 51]

    def test_verify_run_builds_17_certificates_cold_and_again(self):
        # c3's restricted route, once per coset: the 54 GL_2 prelude elements
        # hold 7 Borels, and the 12 samples make 10 more (the n = 2 samples
        # over F_2 and F_3 find a prelude Borel)
        config = RunConfig(7, 1, (F2, F3, F5, Q), (2, 4), "full")  # `borelenv verify --seed 7 --trials 1`

        def built():
            before = envelope._coset_certificate.cache_info().misses
            assert run_suites(config)["pass"]
            return envelope._coset_certificate.cache_info().misses - before

        assert [built(), built()] == [17, 17]


class TestReplayDumps:
    def test_failure_dump_replays_through_cli(self, tmp_path, capsys):
        # force a failing trial by corrupting the oracle comparison: run the
        # suite against a field/size plan and graft a fake mismatch dump,
        # then check the dump's matrix JSON drives the named command
        from borelenv.verify import _dump

        rng = derive_stream(77, 0)
        g = random_invertible(rng, F3, 2)
        dump = _dump("envelope-identity", F3, 2, 77, 0, g,
                     "borelenv envelope --matrix INPUT", "synthetic")
        # the dump's input must be complete, loadable matrix JSON
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(dump["input"]))
        code = main(["envelope", "--matrix", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0  # the identity holds: certificate spans
        assert out["spans"] is True
        # and the matrix parsed from the dump is the one dumped
        assert jsonio.matrix_from_json(dump["input"]) == g

    def test_failures_recorded_and_stop_suite(self):
        # a wrong expected value in the dimension law would be caught; build
        # a criterion result through the real path and check dump structure
        res = intersection_dimension(max_n=2)
        assert res.passed and res.failures == []
        assert res.counts["checked"] == 3  # |S_1| + |S_2|


class TestPinnedReports:
    """The report bytes of two fixed configs, pinned by sha256."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_cli_default_config_one_trial(self, threads):
        config = RunConfig(0, 1, (F2, F3, F5, Q), (2, 4), "full")
        text = report_json(run_suites(config, threads=threads))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f134f693dcbc939311f998c2a394f3f347b7925f061dd66afe70879c264250bc")

    @pytest.mark.parametrize("threads", [1, 4])
    def test_restricted_config(self, threads):
        config = RunConfig(5, 2, (F2,), (2, 3), "restricted")
        text = report_json(run_suites(config, threads=threads))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5caaceba2564e0cbf5339d38e8b3bca19bcb54cabe567785ecd37bf267456584")


class TestFailurePath:
    """Checks forced to fail on one input, chosen by its matrix.  The
    parametrized cases run through ``run_suites``, whose ``threads`` must
    not change the failure."""

    @pytest.fixture
    def oracle_fails_at(self, monkeypatch):
        calls = []

        def install(target):
            real = verify.envelope_bruteforce

            def oracle(g, weyl_set):
                calls.append(g)
                out = real(g, weyl_set)
                return None if g == target else out

            monkeypatch.setattr(verify, "envelope_bruteforce", oracle)
            return calls

        return install

    @staticmethod
    def _criterion(config, suite, name, threads):
        report = run_suites(config, suites=(suite,), threads=threads)
        [result] = [c for s in report["suites"] for c in s["criteria"] if c["criterion"] == name]
        assert not report["pass"] and not result["pass"]
        return result

    @pytest.mark.parametrize("threads", [1, 4])
    def test_failure_in_gl2_prelude(self, threads, oracle_fails_at):
        target = gl2_elements(F3)[7]
        oracle_fails_at(target)
        # the envelope suite runs envelope_identity((F2, F5, Q), [2, 3], 3, seed=1)
        config = RunConfig(1, 3, (F2, F5, Q), (2, 3), "full")
        result = self._criterion(config, "envelope", "envelope-identity", threads)
        assert result["counts"] == {"checked": 6 + 8}  # all of GL_2(F_2), then F_3 up to idx 7
        [dump] = result["failures"]
        assert (dump["offset"], dump["n"], dump["seed"]) == (-8, 2, 1)
        assert dump["field"] == jsonio.field_to_json(F3)
        assert dump["detail"] == "brute-force envelope != borel(g)"
        assert jsonio.matrix_from_json(dump["input"]) == gl2_elements(F3)[-1 - dump["offset"]]

    def _tangent_cover_fails_at(self, threads, h, detail):
        # the flag suite runs tangent_cover((F2, F5, Q), [2, 3], 2, seed=1)
        config = RunConfig(1, 2, (F2, F5, Q), (2, 3), "full")
        result = self._criterion(config, "flag", "tangent-cover", threads)
        # 54 prelude inputs, F_2 x (n = 2, 3) x 2 trials, F_5: n = 2 x 2, then n = 3, k = 0, 1
        assert result["counts"] == {"checked": 54 + 4 + 2 + 2}
        [dump] = result["failures"]
        assert (dump["offset"], dump["n"], dump["seed"]) == (1, 3, 1)
        assert dump["field"] == jsonio.field_to_json(F5)
        assert dump["detail"] == detail
        assert jsonio.matrix_from_json(dump["input"]) == h

    @pytest.mark.parametrize("threads", [1, 4])
    def test_failure_in_sampled_trial(self, threads, monkeypatch):
        h = random_invertible(derive_stream(1, 1), F5, 3)
        real = verify.borel_from_g
        # tangent_cover bridges stab(flag(h)) to borel(h^-1); give h^-1 a wrong Borel
        wrong = SimpleNamespace(algebra=real(Matrix.identity(F5, 3)).algebra)
        monkeypatch.setattr(verify, "borel_from_g", lambda g: wrong if g == inverse(h) else real(g))
        self._tangent_cover_fails_at(threads, h, "bridge to envelope oracle fails")

    @pytest.mark.parametrize("threads", [1, 4])
    def test_tangent_sum_does_not_cover(self, threads, monkeypatch):
        h = random_invertible(derive_stream(1, 1), F5, 3)
        stab = flags.stabilizer_algebra(flags.flag_from_matrix(h))
        real = flags._intersection_sum

        def dropping(algebra, ws):
            out = real(algebra, ws)
            if algebra != stab:
                return out
            return subspace_from_rows(out.ambient_dim, out.rows()[1:], field=out.field)

        monkeypatch.setattr(flags, "_intersection_sum", dropping)
        self._tangent_cover_fails_at(threads, h, "tangent sum does not cover")

    @pytest.mark.parametrize("threads", [1, 4])
    def test_ulp_counts_stop_at_the_failure(self, threads, monkeypatch):
        # seed 4, sizes cycle 1, 2, 3: trials k = 1 and k = 4 are singular 2x2
        infeasible = random_singular(derive_stream(4, 1), F5, 2)
        broken = random_singular(derive_stream(4, 4), F5, 2)
        real = verify.ulp_decompose

        def decompose(m, normalization):
            if normalization == "upper" and m == infeasible:
                raise UlpInfeasible("forced")
            if normalization == "upper" and m == broken:
                return SimpleNamespace(recompose=lambda: None)
            return real(m, normalization)

        monkeypatch.setattr(verify, "ulp_decompose", decompose)
        # the decomp suite runs ulp_roundtrip((F2, F5, Q), [1, 2, 3], 6, seed=4)
        config = RunConfig(4, 6, (F2, F5, Q), (1, 3), "full")
        result = self._criterion(config, "decomp", "ulp-roundtrip", threads)
        # six F_2 trials, then F_5 k = 0..4; only k = 1 is upper-infeasible
        assert result["counts"] == {"checked": 11, "upper_checked": 9, "upper_infeasible": 1}
        [dump] = result["failures"]
        assert (dump["offset"], dump["n"], dump["detail"]) == (4, 2, "recomposition mismatch")
        assert jsonio.matrix_from_json(dump["input"]) == broken

    def test_bruhat_order_disagreement(self, monkeypatch):
        real = verify.bruhat_leq
        flip = ((1, 3, 2), (2, 1, 3))  # an incomparable pair, made related
        monkeypatch.setattr(verify, "bruhat_leq", lambda u, w: real(u, w) != ((u.images, w.images) == flip))
        result = bruhat_order_exhaustive()
        # all of S_1 and S_2, then u = (1,3,2) is the 2nd of S_3 and w = (2,1,3) the 3rd
        assert result.counts == {"pairs": 1 + 4 + 6 + 3}
        assert result.failures == [
            {"criterion": "bruhat-order", "n": 3, "detail": "disagreement at (1,3,2) vs (2,1,3)"}]

    @pytest.mark.parametrize("flip, detail", [
        (((2, 3, 1), (2, 3, 1)), "not reflexive at (2,3,1)"),
        (((2, 1, 3), (1, 2, 3)), "antisymmetry fails"),
        (((1, 2, 3), (3, 2, 1)), "transitivity fails"),
    ])
    def test_bruhat_order_axioms(self, monkeypatch, flip, detail):
        # the order and its subword oracle broken alike: only the axioms can fail
        real = verify.bruhat_leq

        def broken(u, w):
            return real(u, w) != ((u.images, w.images) == flip)

        monkeypatch.setattr(verify, "bruhat_leq", broken)
        monkeypatch.setattr(verify, "_subword_set",
                            lambda w: {u.images for u in enumerate_group(w.n) if broken(u, w)})
        result = bruhat_order_exhaustive()
        assert result.counts == {"pairs": 1 + 4 + 36}  # every pair up to S_3, none of S_4
        assert result.failures == [{"criterion": "bruhat-order", "n": 3, "detail": detail}]

    def test_intersection_sum_short_of_full_rank(self, monkeypatch):
        # each term's kernel cut to its first row: the λ rows never reach
        # rank dim, so the sum is mapped back and compared, and it falls
        # short at the first GL_2(F_2) prelude element
        real = envelope._coordinate_kernel
        monkeypatch.setattr(envelope, "_coordinate_kernel", lambda s, coords: real(s, coords)[:1])
        result = envelope_identity((F5,), [3], 1, 11)
        assert not result.passed and result.counts == {"checked": 1}
        [dump] = result.failures
        assert (dump["offset"], dump["field"]) == (-1, jsonio.field_to_json(F2))
        assert dump["detail"] == "brute-force envelope != borel(g)"

    def test_one_thread_stops_at_the_failure(self, oracle_fails_at):
        target = random_invertible(derive_stream(1, 1), F5, 3)
        calls = oracle_fails_at(target)
        result = envelope_identity((F2, F5, Q), [2, 3], 3, seed=1)
        assert result.counts["checked"] == 65
        assert len(calls) == 65  # no trial after the failing one ran


E12 = Matrix.from_rows(F5, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # not lower triangular


def _retag(cert):
    # the first entry's tag swapped, in the translate, for a permutation of
    # another size: the translate keeps its size but no longer holds the tag
    tag = cert.entries[0][1]
    forged = Permutation.identity(cert.target.n + 1)
    return replace(cert, witness_set=tuple(forged if w == tag else w for w in cert.witness_set))


class TestEnvelopeChecksFire:
    """Each failure branch of the envelope suite's own checks, c2 (the
    witness basis) and c3 (the restricted certificate), fires on a
    corrupted witness basis or certificate and names its detail."""

    @staticmethod
    def _corrupt(monkeypatch, name, corrupt):
        real, seen = getattr(verify, name), []

        def corrupted(m, **kwargs):
            seen.append(m)
            return corrupt(real(m, **kwargs))

        monkeypatch.setattr(verify, name, corrupted)
        return seen

    @staticmethod
    def _failed(result, seen):
        assert not result.passed and result.counts == {"checked": 1}
        [dump] = result.failures
        assert jsonio.matrix_from_json(dump["input"]) == seen[-1]
        return dump

    @pytest.mark.parametrize("corrupt, detail", [
        pytest.param(lambda wits: wits[:-1], "wrong witness count", id="count"),
        pytest.param(lambda wits: (wits[0], replace(wits[1], a=E12), *wits[2:]),
                     "witness 2,1 not lower", id="not-lower"),
        pytest.param(lambda wits: (wits[0], replace(wits[1], s=Permutation.identity(3)), *wits[2:]),
                     "witness 2,1 escaped", id="escaped"),
        pytest.param(lambda wits: (*wits[:-1], replace(wits[-1], a=Matrix.zeros(F5, 3, 3))),
                     "witnesses do not span", id="no-span"),
        pytest.param(lambda wits: (replace(wits[0], x=(1,)), *wits[1:]),
                     "change of basis not unitriangular", id="not-unitriangular"),
    ])
    def test_witness_construction(self, corrupt, detail, monkeypatch):
        seen = self._corrupt(monkeypatch, "witness_basis", corrupt)
        dump = self._failed(witness_construction((F5,), [3], 1, seed=1), seen)
        assert (dump["command"], dump["detail"]) == ("", detail)

    @pytest.mark.parametrize("corrupt, command, detail", [
        pytest.param(lambda cert: replace(cert, spans=False), "borelenv envelope --restricted --matrix INPUT",
                     "restricted certificate does not span", id="no-span"),
        pytest.param(lambda cert: replace(cert, witness_set=cert.witness_set[:-1]), "",
                     "translate has the wrong size", id="wrong-size"),
        pytest.param(_retag, "", "tag outside the computed translate", id="tag-outside"),
    ])
    def test_restricted_envelope(self, corrupt, command, detail, monkeypatch):
        seen = self._corrupt(monkeypatch, "envelope_certificate", corrupt)
        dump = self._failed(restricted_envelope((F5,), [3], 1, seed=1), seen)
        assert (dump["command"], dump["detail"]) == (command, detail)

    def test_restricted_envelope_through_the_cli(self, monkeypatch, capsys):
        seen = self._corrupt(monkeypatch, "envelope_certificate", lambda cert: replace(cert, spans=False))
        code = main(["verify", "--suite", "envelope", "--mode", "restricted", "--fields", "fp:5",
                     "--n", "2..3", "--trials", "1", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["pass"] is False
        [result] = [c for s in report["suites"] for c in s["criteria"] if c["criterion"] == "restricted-envelope"]
        [dump] = result["failures"]
        assert jsonio.matrix_from_json(dump["input"]) == seen[0]
        assert (dump["command"], dump["detail"]) == (
            "borelenv envelope --restricted --matrix INPUT", "restricted certificate does not span")


G3 = random_invertible(derive_stream(1, 0), F5, 3)  # trial 0 at seed 1: c4's and c5's input at n = 3
E21 = Matrix.from_rows(F5, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # not upper triangular
ULP_CMD, BRUHAT_CMD = "borelenv decomp --kind ulp --matrix INPUT", "borelenv decomp --kind bruhat --matrix INPUT"


def _ulp_infeasible(normalization):
    # ulp_decompose reports the given normalization infeasible on every input
    def patch(monkeypatch):
        real = verify.ulp_decompose

        def decompose(m, norm):
            if norm == normalization:
                raise UlpInfeasible("forced")
            return real(m, norm)

        monkeypatch.setattr(verify, "ulp_decompose", decompose)

    return patch


def _bruhat_corrupted(corrupt):
    # bruhat_decompose's factors passed through corrupt(factors, first call)
    def patch(monkeypatch):
        real, calls = verify.bruhat_decompose, []

        def decompose(m):
            calls.append(m)
            return corrupt(real(m), len(calls) == 1)

        monkeypatch.setattr(verify, "bruhat_decompose", decompose)

    return patch


def _relabelled(f, first):
    # the true factors under another cell label; (3,1,2) is G3's
    return SimpleNamespace(u1=f.u1, s=Permutation.identity(3), u2=f.u2, recompose=f.recompose)


def _dim_off_at_21(monkeypatch):
    real = verify.borel_intersection_dim
    monkeypatch.setattr(verify, "borel_intersection_dim", lambda e, w: real(e, w) + (w.images == (2, 1)))


def _transpositions_short_at_3(monkeypatch):
    real = verify.transposition_set
    monkeypatch.setattr(verify, "transposition_set", lambda n: real(n)[:-1] if n == 3 else real(n))


class TestDecompAndWeylChecksFire:
    """Each failure branch of c4 (ULP), c5 (Bruhat), c8 (the intersection
    dimension law) and the transposition-set size check fires when what it
    reads is corrupted, and names its detail; one case per criterion goes
    through the CLI, for exit 1 and the dump."""

    @staticmethod
    def _failed(result, counts):
        assert not result.passed and result.counts == counts
        [dump] = result.failures
        return dump

    @staticmethod
    def _sampled(dump, command, detail):
        assert (dump["offset"], dump["n"], dump["command"], dump["detail"]) == (0, 3, command, detail)
        assert jsonio.matrix_from_json(dump["input"]) == G3

    @pytest.mark.parametrize("normalization, command, detail", [
        ("lower", ULP_CMD, "unipotent-lower reported infeasible"),
        ("upper", "", "infeasible on an invertible input"),
    ])
    def test_ulp_roundtrip(self, normalization, command, detail, monkeypatch):
        _ulp_infeasible(normalization)(monkeypatch)
        result = ulp_roundtrip((F5,), [3], 1, seed=1)
        dump = self._failed(result, {"checked": 1, "upper_checked": 0, "upper_infeasible": 0})
        self._sampled(dump, command, detail)

    @pytest.mark.parametrize("corrupt, detail", [
        pytest.param(lambda f, first: replace(f, u1=Matrix.zeros(F5, 3, 3)), "recomposition mismatch",
                     id="recomposition"),
        pytest.param(lambda f, first: SimpleNamespace(u1=E21, s=f.s, u2=f.u2, recompose=f.recompose),
                     "factor not upper triangular", id="not-upper"),
        pytest.param(_relabelled, "cell label disagrees with corner ranks", id="corner-ranks"),
        pytest.param(lambda f, first: f if first else _relabelled(f, first),
                     "cell label not a two-sided invariant", id="two-sided"),
    ])
    def test_bruhat_roundtrip(self, corrupt, detail, monkeypatch):
        assert bruhat_decompose(G3).s == Permutation((3, 1, 2))
        _bruhat_corrupted(corrupt)(monkeypatch)
        self._sampled(self._failed(bruhat_roundtrip((F5,), [3], 1, seed=1), {"checked": 1}), BRUHAT_CMD, detail)

    def test_intersection_dimension(self, monkeypatch):
        _dim_off_at_21(monkeypatch)
        dump = self._failed(intersection_dimension(max_n=4), {"checked": 1 + 2})
        assert dump == {"criterion": "intersection-dimension", "n": 2, "detail": "dim at (2,1): got 3, expected 2"}

    def test_transposition_set_size(self, monkeypatch):
        _transpositions_short_at_3(monkeypatch)
        [_, sizes] = verify._suite_weyl(RunConfig(1, 1, (F5,), (2, 4), "full"), range(2, 5))
        dump = self._failed(sizes, {"checked": 2})
        assert dump == {"criterion": "transposition-set-size", "n": 3, "detail": "wrong size"}

    SAMPLED = ["--fields", "fp:5", "--n", "3..3", "--trials", "1", "--seed", "1"]

    @pytest.mark.parametrize("patch, argv, criterion, want", [
        pytest.param(_ulp_infeasible("lower"), ["--suite", "decomp", *SAMPLED], "ulp-roundtrip",
                     (ULP_CMD, "unipotent-lower reported infeasible"), id="c4"),
        pytest.param(_bruhat_corrupted(_relabelled), ["--suite", "decomp", *SAMPLED], "bruhat-roundtrip",
                     (BRUHAT_CMD, "cell label disagrees with corner ranks"), id="c5"),
        pytest.param(_dim_off_at_21, ["--suite", "envelope", "--fields", "fp:2", "--n", "2..2", "--trials", "1"],
                     "intersection-dimension", {"n": 2, "detail": "dim at (2,1): got 3, expected 2"}, id="c8"),
        pytest.param(_transpositions_short_at_3, ["--suite", "weyl", "--trials", "1"], "transposition-set-size",
                     {"n": 3, "detail": "wrong size"}, id="transposition-set"),
    ])
    def test_through_the_cli(self, patch, argv, criterion, want, monkeypatch, capsys):
        patch(monkeypatch)
        code = main(["verify", *argv])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["pass"] is False
        failed = [c for s in report["suites"] for c in s["criteria"] if not c["pass"]]
        assert [c["criterion"] for c in failed] == [criterion]
        [dump] = failed[0]["failures"]
        if isinstance(want, dict):
            assert dump == {"criterion": criterion, **want}
        else:
            self._sampled(dump, *want)
