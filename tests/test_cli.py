"""Tests for the batch verification harness."""

import functools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bcortho import askey_wilson, big, cli, measures, qracah
from bcortho.askey_wilson import limit_scan, measure_scan
from bcortho.big import BigParams
from bcortho.cli import (
    SUITES,
    CertificationReport,
    CheckRecord,
    build_config,
    emit_report,
    format_text,
    main,
    parse_config_file,
    run_suite,
)
from bcortho.bcpoly import LaurentPolynomial, PointTable
from bcortho.errors import (ConfigError, DomainViolation, IoError,
                            NonFiniteWeight, SingularGram)
from bcortho.little import little_limit


def strip_ms(doc: dict) -> dict:
    out = json.loads(json.dumps(doc))
    for c in out["checks"]:
        c.pop("ms")
    return out


class TestConfig:
    def test_parse_file(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nsuite = qracah\nn=2\n\nN = 1\n")
        assert parse_config_file(str(p)) == {
            "suite": "qracah", "n": "2", "N": "1"}

    def test_parse_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "absent"))

    def test_parse_bad_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("suite qracah\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            build_config({"suite": "unknown"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config({"suite": "aw", "bogus": "1"})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"suite": "aw", "n": "two"})

    def test_n_range(self):
        with pytest.raises(ConfigError):
            build_config({"suite": "aw", "n": "4"})

    def test_bad_tol(self):
        with pytest.raises(ConfigError):
            build_config({"suite": "aw", "tol": "-1"})

    @pytest.mark.parametrize("key, low", [("kmax", 0), ("lmax", 0), ("M", 1)],
                             ids=["kmax", "lmax", "M"])
    def test_below_minimum(self, key, low, capsys):
        # a bad configuration exits 2, not 1 with NaN checks
        with pytest.raises(ConfigError):
            build_config({"suite": "limits", key: str(low - 1)})
        assert build_config({"suite": "limits", key: str(low)})[key] == low
        assert main(["--suite", "limits", f"--{key}", str(low - 1)]) == 2
        assert key in capsys.readouterr().err

    def test_defaults_applied(self):
        cfg = build_config({"suite": "qracah", "N": "1"})
        assert cfg["N"] == 1
        assert cfg["n"] == 2


class TestRunSuite:
    def test_qracah_all_pass(self):
        report = run_suite(build_config({"suite": "qracah"}))
        assert report.summary["fail"] == 0
        assert report.summary["pass"] == len(report.checks) > 0

    def test_checks_sorted_by_name(self):
        report = run_suite(build_config({"suite": "qracah"}))
        names = [c.name for c in report.checks]
        assert names == sorted(names)

    def test_deterministic_body(self):
        cfg = build_config({"suite": "qracah", "seed": "7"})
        a = strip_ms(run_suite(cfg).to_dict())
        b = strip_ms(run_suite(cfg).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_bad_parameters_reported(self):
        with pytest.raises(ConfigError):
            run_suite(build_config({"suite": "little", "a": "-0.5"}))

    def test_config_echo(self):
        cfg = build_config({"suite": "qracah", "N": "1"})
        report = run_suite(cfg)
        assert report.config_echo["N"] == 1


class TestEmit:
    def _report(self):
        r = CertificationReport("aw", {"n": 1})
        r.checks.append(CheckRecord(
            "demo", "lhs = rhs", 1.0, 1.0, 0.0, 0.0, 1e-8, True, 1.5))
        return r

    def test_empty_report(self, capsys):
        emit_report(CertificationReport("aw", {}), "json", None)
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == []
        assert doc["summary"] == {"pass": 0, "fail": 0}

    def test_json_roundtrip(self, tmp_path):
        r = self._report()
        path = tmp_path / "r.json"
        emit_report(r, "json", str(path))
        doc = json.loads(path.read_text())
        assert doc == r.to_dict()

    def test_text_table(self):
        text = format_text(self._report())
        assert "demo" in text
        assert "pass=1 fail=0" in text

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            emit_report(self._report(), "xml", None)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            emit_report(self._report(), "json",
                        str(tmp_path / "no" / "dir" / "r.json"))


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--suite", "qracah", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0

    def test_exit_two_on_config_error(self, capsys):
        assert main(["--suite", "qracah", "--n", "9"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--suite", "aw", "--M", "4"],
        ["--suite", "selberg", "--M", "1"],
        ["--suite", "limits", "--M", "2"],
    ], ids=["aw-M4", "selberg-M1", "limits-M2"])
    def test_exit_two_on_coarse_grid(self, argv, tmp_path, capsys):
        # a torus grid below M = 2 deg + 8 rejects the configuration
        # instead of failing its checks with NaN sides
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert "rejected the configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["aw", "selberg"])
    @pytest.mark.parametrize("key, value", [
        ("t0", "1.1"), ("t2", "-1.0"), ("t3", "nan")])
    def test_exit_two_on_parameter_off_the_disk(self, suite, key, value,
                                                tmp_path, capsys):
        # a t_i on or off the unit circle adds residue chains to the
        # orthogonality measure; the torus measure alone is not it
        out = tmp_path / "r.json"
        assert main(["--suite", suite, f"--{key}", value,
                     "--out", str(out)]) == 2
        assert f"|{key}| < 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--suite", "qracah", "--t1", "nan"],
        ["--suite", "qracah", "--t2", "nan"],
        ["--suite", "little", "--a", "inf"],
        ["--suite", "big", "--c", "inf"],
        ["--suite", "limits", "--d", "nan"],
    ], ids=["qracah-t1", "qracah-t2", "little-a", "big-c", "limits-d"])
    def test_exit_two_on_non_finite_value(self, argv, tmp_path, capsys):
        # a non-finite value is rejected before any check runs
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{argv[2][2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_mass_matches_closed_forms(self, tmp_path):
        # a mass of 2.5e-94, summed to 256 shells; the checks' max(1, |N|)
        # floor would pass any value, so the test compares relative errors
        argv = ["--suite", "little", "--q", "0.99", "--b", "0.6",
                "--lmax", "1"]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        mass = {c["name"]: c for c in json.loads(out.read_text())["checks"]
                }["constant-term"]
        assert abs(mass["lhs"] - mass["rhs"]) < 1e-12 * mass["rhs"]
        errs = true_relative_errors(cli._little_family(
            build_config({"suite": "little", "q": "0.99", "b": "0.6"})),
            (1, 1))
        assert errs["norm"] < 1e-12

    def test_overflowing_pair_factor(self, tmp_path):
        # q = 0.7 overflowed (a;q)_inf of the cross-chain delta_qJ factor
        # from shell 65 on, and NaN weights reached the orthogonalization
        # (exit 2); asymptotic-match compares where q^L = tol / 1000
        out = tmp_path / "r.json"
        assert main(["--suite", "big", "--q", "0.7", "--out",
                     str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert "asymptotic-match" in [c["name"] for c in checks]
        assert all(c["pass"] for c in checks)

    def test_nan_ratio_fails_asymptotic_match(self, tmp_path, monkeypatch):
        # max(worst, nan) is worst: a NaN ratio must raise, not pass
        monkeypatch.setattr(big, "weight_big", lambda z, bp: math.nan)
        with pytest.raises(NonFiniteWeight):
            big.asymptotic_ratio(1, (), (0,), BigParams(
                2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8), 27)
        out = tmp_path / "r.json"
        assert main(["--suite", "big", "--out", str(out)]) == 1
        failed = [c["name"] for c in json.loads(out.read_text())["checks"]
                  if not c["pass"]]
        assert failed == ["asymptotic-match"]

    def test_exit_one_on_failing_check(self, tmp_path):
        # an absurdly tight tolerance forces at least one failure
        out = tmp_path / "r.json"
        code = main(["--suite", "qracah", "--tol", "1e-300",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] > 0

    def test_exit_one_on_failing_polynomial_build(self, tmp_path,
                                                   monkeypatch):
        # the polynomials are built inside the timed orthogonality check:
        # an error there fails the two checks that read them, and the
        # configuration is not rejected
        def singular(top, qp, tables):
            raise SingularGram("vanishing quadratic norm")

        monkeypatch.setattr(qracah, "qracah_polynomials", singular)
        out = tmp_path / "r.json"
        assert main(["--suite", "qracah", "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("orthogonality", "norms"):
            assert not checks[name]["pass"]
            assert math.isnan(checks[name]["lhs"])
        assert all(c["pass"] for name, c in checks.items()
                   if name not in ("orthogonality", "norms"))

    def test_config_file_with_override(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("suite=qracah\nN=2\n")
        out = tmp_path / "r.json"
        code = main(["--config", str(cfgfile), "--N", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config_echo"]["N"] == 1

    def test_config_file_format(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("suite=qracah\nformat=text\n")
        assert main(["--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out.startswith("suite: qracah\n")

    def test_config_file_out(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"suite=qracah\nout={out}\n")
        assert main(["--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["suite"] == "qracah"

    def test_config_file_bad_format(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"suite=qracah\nformat=xml\nout={out}\n")
        assert main(["--config", str(cfgfile)]) == 2
        assert "format must be json or text" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_format_checked_before_the_run(self, tmp_path,
                                                       monkeypatch, capsys):
        # a bad format is a configuration error found with the other
        # settings: no check runs
        def no_run(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_run)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("suite=big\nn=3\nformat=xml\n")
        assert main(["--config", str(cfgfile)]) == 2
        assert "format must be json or text" in capsys.readouterr().err

    def test_limit_that_cannot_deform_is_a_configuration_error(
            self, tmp_path, capsys):
        # b = 0 leaves a deformed Askey-Wilson parameter 0: the limits
        # are refused when they are made, not as four NaN checks
        out = tmp_path / "r.json"
        assert main(["--suite", "limits", "--b", "0",
                     "--out", str(out)]) == 2
        assert ("rejected the configuration: the deformation requires b"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_flags_win_over_config_file_format_and_out(self, tmp_path):
        in_file, out = tmp_path / "r.txt", tmp_path / "r.json"
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"suite=qracah\nformat=text\nout={in_file}\n")
        assert main(["--config", str(cfgfile), "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["suite"] == "qracah"
        assert not in_file.exists()


def true_relative_errors(fam, top) -> dict:
    """Errors of the family's pairing against its closed forms, relative to
    the value certified: <1,1>, the worst norm of the polynomials mu <=
    top, and their worst cosine |<P_a,P_b>| / sqrt(|N_a N_b|)."""
    one = LaurentPolynomial.constant(fam.params.n)
    mass = fam.mass()
    polys = fam.polynomials(top)
    norms = [fam.norm(lam) for lam in polys]
    G = fam.gram(list(polys.values()))
    k = len(norms)
    return {
        "mass": abs(fam.gram([one])[0, 0] - mass) / abs(mass),
        "norm": max(abs(G[a, a] - norms[a]) / abs(norms[a])
                    for a in range(k)),
        "cosine": max(abs(G[a, b]) / math.sqrt(abs(norms[a] * norms[b]))
                      for a in range(k) for b in range(a + 1, k)),
    }


class TestTrueRelative:
    # at the parent of the node tables these read, as mass / norm / cosine:
    # little --q 0.9 1.6e-5 / 0.965 / 0.35, little --b -50 3.1e-9 / 0.34 /
    # 9.0e-4, little --n 3 5.5e-16 / 0.955 / 0.11, big --n 3 1.3e-12 /
    # 5.1e-8 / 1.3e-10
    @pytest.mark.parametrize("suite, raw", [
        ("little", {"q": "0.9"}),
        ("little", {"b": "-50"}),
        ("little", {"n": "3"}),
        ("big", {"n": "3"}),
    ], ids=["little-q0.9", "little-b-50", "little-n3", "big-n3"])
    def test_default_top(self, suite, raw):
        cfg = build_config({"suite": suite, **raw})
        fam = FAMILIES[suite][0](cfg)
        errs = true_relative_errors(fam, (int(cfg["lmax"]),) * fam.params.n)
        assert errs["mass"] < 1e-13
        assert errs["norm"] < 1e-10
        assert errs["cosine"] < 1e-9


# family record builder and the default tolerances of its suite's
# orthogonality, norms and <1,1> checks
FAMILIES = {
    "aw": (cli._aw_family, 1e-8, 1e-6, 1e-8),
    "qracah": (cli._qracah_family, 1e-9, 1e-8, 1e-10),
    "little": (cli._little_family, 1e-8, 1e-6, 1e-8),
    "big": (cli._big_family, 1e-8, 1e-6, 1e-7),
}
TOP = (2, 2)

# With the max(1, |N|) error floor of _run_check, a closed form below 1
# can be off by 10 tol |N| < tol and still pass (ROADMAP item 3a).
FLOORED = pytest.mark.xfail(
    strict=True, reason="closed forms below 1 are compared on the "
                        "max(1, |N|) floor")
FLOORED_FAMILIES = ["aw", "qracah", pytest.param("little", marks=FLOORED),
                    pytest.param("big", marks=FLOORED)]


def family_verdicts(fam, name: str) -> dict:
    """Verdicts of _mass_check and _gram_checks on fam, at the default
    tolerances of family name."""
    _build, tol_orth, tol_norm, tol_mass = FAMILIES[name]
    report = CertificationReport(name, {})
    cli._mass_check(report, "constant-term", "<1,1> = closed form",
                    tol_mass, fam)
    cli._gram_checks(report, fam, TOP, tol_orth, tol_norm)
    return {c.name: c.passed for c in report.checks}


def default_family(name: str):
    return FAMILIES[name][0](build_config({"suite": name}))


class TestFamilyChecks:
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_default_family_passes(self, name):
        assert family_verdicts(default_family(name), name) == {
            "constant-term": True, "orthogonality": True, "norms": True}

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_pair_is_the_gram_pairing(self, name):
        # the <1,1> check pairs through fam.pair, the Gram checks through
        # fam.gram: the same sum, bit for bit
        fam = default_family(name)
        polys = list(fam.polynomials((1,) * fam.params.n).values())
        G = fam.gram(polys)
        for a, f in enumerate(polys):
            for b, g in enumerate(polys[a:], start=a):
                assert fam.pair(f, g) == G[a, b]

    @pytest.mark.parametrize("name", FLOORED_FAMILIES)
    def test_scaled_norm_fails(self, name):
        fam = default_family(name)
        tol_norm = FAMILIES[name][2]
        wrong = replace(fam, norm=lambda lam: fam.norm(lam)
                        * (1 + 10 * tol_norm))
        assert not family_verdicts(wrong, name)["norms"]

    @pytest.mark.parametrize("name", FLOORED_FAMILIES)
    def test_scaled_mass_fails(self, name):
        fam = default_family(name)
        tol_mass = FAMILIES[name][3]
        wrong = replace(fam, mass=lambda: fam.mass() * (1 + 10 * tol_mass))
        assert not family_verdicts(wrong, name)["constant-term"]

    # the big suite's own closed-form checks: each fails with one closed
    # form off by 10 tol. The askey-evans checks compare on the
    # max(1, |rhs|) floor (ROADMAP item 3a), which hides nothing here:
    # |rhs| is 1.66 at n = 2 and 0.56 at n = 3
    @pytest.mark.parametrize("check, form, n", [
        ("c-weight-dual-form", "c_weights_defining", "2"),
        ("askey-evans", "askey_evans_rhs", "2"),
        ("askey-evans", "askey_evans_rhs", "3"),
        ("askey-evans-translation", "askey_evans_rhs", "2"),
        ("askey-evans-translation", "selberg_big_qk", "2"),
    ])
    def test_scaled_big_closed_form_fails(self, check, form, n, monkeypatch):
        cfg = build_config({"suite": "big", "n": n})

        def verdict():
            [c] = [c for c in run_suite(cfg).checks if c.name == check]
            return c.passed, c.tol

        passed, tol = verdict()
        assert passed
        exact = getattr(cli, form)

        def scaled(bp):
            v = exact(bp)
            if isinstance(v, list):
                return [x * (1 + 10 * tol) for x in v]
            return v * (1 + 10 * tol)

        monkeypatch.setattr(cli, form, scaled)
        assert verdict() == (False, tol)

    # one side of the check off by 10 tol: the oracle of the
    # n1-closed-form check and the residue weights Delta^(d) of
    # residue-split, whose deviations then read 1e-9 against tol 1e-10,
    # and the split-weight ratios of asymptotic-match, which read 1e-4
    # against tol 1e-5
    @pytest.mark.parametrize("suite, check, form", [
        ("aw", "n1-closed-form", "aw1_oracle"),
        ("qracah", "residue-split", "multi_discrete_weight"),
        ("big", "asymptotic-match", "asymptotic_ratio"),
    ])
    def test_scaled_side_fails(self, suite, check, form, monkeypatch):
        cfg = build_config({"suite": suite})

        def verdict():
            [c] = [c for c in run_suite(cfg).checks if c.name == check]
            return c.passed, c.tol

        passed, tol = verdict()
        assert passed
        exact = getattr(cli, form)
        monkeypatch.setattr(cli, form,
                            lambda *args: exact(*args) * (1 + 10 * tol))
        assert verdict() == (False, tol)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_mixed_polynomials_fail_orthogonality(self, name):
        # P_a + c P_b with c N_b = 10 tol |<1,1>|: <P_a, P_b> is then ten
        # times what the orthogonality check allows
        fam = default_family(name)
        tol_orth = FAMILIES[name][1]
        a, b = TOP, (0,) * len(TOP)
        c = 10 * tol_orth * abs(fam.mass()) / fam.norm(b)

        def mixed(top):
            polys = fam.polynomials(top)
            return {**polys, a: polys[a] + polys[b].scale(c)}

        verdicts = family_verdicts(replace(fam, polynomials=mixed), name)
        assert not verdicts["orthogonality"]
        assert verdicts["constant-term"]

    @pytest.mark.parametrize("name", list(FAMILIES))
    @pytest.mark.parametrize("entry, check", [((-2, -1), "orthogonality"),
                                              ((-1, -1), "norms")])
    def test_nan_gram_entry_fails(self, name, entry, check):
        # a NaN deviation fails its check, wherever it falls in the fold
        fam = default_family(name)

        def gram(polys):
            G = fam.gram(polys)
            G[entry] = G[entry[::-1]] = math.nan
            return G

        verdicts = family_verdicts(replace(fam, gram=gram), name)
        assert verdicts == {"constant-term": True, "orthogonality": True,
                            "norms": True, check: False}

    def test_scaled_partially_discrete_fails(self, monkeypatch):
        # selberg's partially-discrete check, the <1,1> check of the aw
        # family at t0 = 1.1: |rhs| = 52.6 at the defaults, above the
        # max(1, |rhs|) floor
        cfg = build_config({"suite": "selberg"})

        def verdict():
            [c] = [c for c in run_suite(cfg).checks
                   if c.name == "partially-discrete"]
            return c.passed, c.tol

        passed, tol = verdict()
        assert passed
        exact = askey_wilson.gustafson_constant
        monkeypatch.setattr(askey_wilson, "gustafson_constant",
                            lambda p: exact(p) * (1 + 10 * tol))
        assert verdict() == (False, tol)

    @pytest.mark.parametrize("name", ["little", "big"])
    def test_scaled_measure_constant_fails(self, name, monkeypatch):
        # the target pairing Limit.target.pair off by 10 tol; |want| is 161
        # (little) and 18.3 (big) at the defaults, above the
        # max(1, |want|) floor
        cfg = build_config({"suite": "limits"})
        check = f"{name}-measure-constant"

        def verdict():
            [c] = [c for c in run_suite(cfg).checks if c.name == check]
            return c.passed, c.tol

        passed, tol = verdict()
        assert passed
        exact = getattr(cli, f"{name}_limit")

        def scaled(params):
            limit = exact(params)
            target = limit.target
            return replace(limit, target=replace(
                target, pair=lambda f, g: target.pair(f, g) * (1 + 10 * tol)))

        monkeypatch.setattr(cli, f"{name}_limit", scaled)
        assert verdict() == (False, tol)

    @pytest.mark.parametrize("name", ["little", "big"])
    def test_scaled_target_coefficients_fail(self, name, monkeypatch):
        # the target P_lambda of Limit.target off by 10 tol: the rescaled
        # coefficients then settle 10 tol away from it, so
        # little-coefficients reads 1.25e-3 against tol 1e-4, and the big
        # deviations stop decreasing (inf)
        cfg = build_config({"suite": "limits"})
        check = f"{name}-coefficients"

        def verdict():
            [c] = [c for c in run_suite(cfg).checks if c.name == check]
            return c.passed, c.tol

        passed, tol = verdict()
        assert passed
        exact = getattr(cli, f"{name}_limit")

        def scaled(params):
            limit = exact(params)
            target = limit.target

            def polynomials(top):
                return {mu: P.scale(1 + 10 * tol)
                        for mu, P in target.polynomials(top).items()}

            return replace(limit, target=replace(target,
                                                 polynomials=polynomials))

        monkeypatch.setattr(cli, f"{name}_limit", scaled)
        assert verdict() == (False, tol)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_gram_checks_evaluate_nothing(self, name, monkeypatch):
        # the orthogonalized polynomials bring the node values of their
        # pairing with them, so the Gram matrix evaluates no polynomial
        # (orthogonalize forms them on its own node columns, without
        # PointTable.at_nodes); the aw Gram is one bcpoly.gram per table of
        # its measure, on the open disk the M-point chamber table alone,
        # which evaluates each polynomial once and pairs none of them alone
        fam = default_family(name)
        calls = []
        at_nodes_point = PointTable.at_nodes

        def counting(table, f):
            calls.append(len(table.weights))
            return at_nodes_point(table, f)

        monkeypatch.setattr(PointTable, "at_nodes", counting)
        on_torus = []
        at_nodes = measures._Chamber.at_nodes

        def counting_torus(table, f):
            on_torus.append((table.M, id(f)))
            return at_nodes(table, f)

        def no_pairing(*args):
            raise AssertionError("pairwise torus pairing")

        monkeypatch.setattr(measures._Chamber, "at_nodes", counting_torus)
        monkeypatch.setattr(askey_wilson, "partial_bilinear", no_pairing)
        built = []

        def polynomials(top):
            polys = fam.polynomials(top)
            built.append((len(calls), len(on_torus), list(polys.values())))
            return polys

        report = CertificationReport(name, {})
        _build, tol_orth, tol_norm, _tol_mass = FAMILIES[name]
        cli._gram_checks(report, replace(fam, polynomials=polynomials),
                         TOP, tol_orth, tol_norm)
        [(n_calls, n_torus, polys)] = built
        assert len(calls) == n_calls
        if name == "aw":
            grams = on_torus[n_torus:]
            assert sorted(i for _M, i in grams) == sorted(map(id, polys))
            assert {M for M, _i in grams} == {cli.DEFAULTS["aw"]["M"]}
        else:
            assert n_calls == 0
            assert all(P._node_values for P in polys)
            assert on_torus == []
        assert all(c.passed for c in report.checks)


class TestPartiallyDiscrete:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_scaled_chain_table_fails(self, n, scaled, monkeypatch):
        # the discrete part carries 23% (n = 2) and 35% (n = 3) of <1,1>:
        # every split table's weights off by 10 tol move it by more than
        # tol
        tol = 1e-6
        table = measures._discrete_table

        def wrong(p, M, factors):
            return [PointTable(t.z, t.nu, t.weights * (1 + 10 * tol))
                    for t in table(p, M, factors)]

        if scaled:
            monkeypatch.setattr(measures, "_discrete_table", wrong)
        report = run_suite(build_config({"suite": "selberg", "n": str(n)}))
        [check] = [c for c in report.checks
                   if c.name == "partially-discrete"]
        assert check.tol == tol
        assert check.passed != scaled


def full_scan_tail_ok(rows) -> float:
    """The coefficient verdict on a scan from k = 0: the last deviation,
    provided the tail half of the table decreases."""
    devs = [dev for _k, _e, dev in rows]
    tail = devs[len(devs) // 2:]
    if any(b >= a for a, b in zip(tail, tail[1:])):
        return math.inf
    return devs[-1]


def broken_at(limit, k):
    """limit, with a deformation that raises at the step k."""
    q = limit.target.params.q
    bad_eps = q * q ** k

    def deformation(eps):
        if eps == bad_eps:
            raise DomainViolation(f"deformation refused at eps = {eps}")
        return limit.deformation(eps)

    return replace(limit, deformation=deformation)


class TestLimitsSteps:
    # the limits checks evaluate only the steps their verdicts read: the
    # tail half of the coefficient scan and the last measure step

    @pytest.mark.parametrize("raw", [{}, {"n": "1"}])
    def test_values_equal_full_scans(self, raw):
        cfg = build_config({"suite": "limits", **raw})
        checks = {c.name: c for c in run_suite(cfg).checks}
        kmax, M = int(cfg["kmax"]), int(cfg["M"])
        lp = cli._little_family(cfg).params
        bp = cli._big_family(cfg).params
        lam = (1,) + (0,) * (lp.n - 1)
        for name, limit in (("little", little_limit(lp)),
                            ("big", big.big_limit(bp))):
            rows = limit_scan(limit, lam, range(kmax + 1))
            assert checks[f"{name}-coefficients"].lhs == \
                full_scan_tail_ok(rows)
            k = min(kmax, limit.measure_kmax)
            rows = measure_scan(limit, lam, (0,) * lp.n, range(k + 1), M)
            assert checks[f"{name}-measure-constant"].lhs == rows[-1][2]

    @pytest.mark.parametrize("k,failed", [
        (15, {"little-coefficients"}),
        (12, {"little-coefficients", "little-measure-constant"}),
        (8, {"little-coefficients"}),
        (7, set()),
    ])
    def test_error_at_step(self, k, failed, monkeypatch):
        # at kmax = 15 the verdicts read k = 8..15 of the coefficient scan
        # and k = 12 of the measure scan: an error at a step read fails
        # that check with NaN sides, an error at k = 7 fails none
        monkeypatch.setattr(cli, "little_limit",
                            lambda lp: broken_at(little_limit(lp), k))
        checks = run_suite(build_config({"suite": "limits"})).checks
        assert {c.name for c in checks if not c.passed} == failed
        for c in checks:
            if c.name in failed:
                assert math.isnan(c.lhs) and math.isnan(c.rhs)


# perfbench/run.py keys its expected verdicts on these names
CHECK_NAMES = {
    "aw": ["constant-term", "n1-closed-form", "norms", "orthogonality"],
    "qracah": ["norms", "orthogonality", "residue-split", "summation",
               "support-size"],
    "little": ["constant-term", "norms", "orthogonality"],
    "big": ["askey-evans", "askey-evans-translation", "asymptotic-match",
            "c-weight-dual-form", "constant-term", "norms", "orthogonality"],
    "limits": ["big-coefficients", "big-measure-constant",
               "little-coefficients", "little-measure-constant"],
    "selberg": ["finite-sum", "jackson", "partially-discrete", "torus",
                "two-sided"],
}


@pytest.mark.parametrize("suite", SUITES)
def test_default_suite_check_names(suite):
    report = run_suite(build_config({"suite": suite}))
    assert [c.name for c in report.checks] == CHECK_NAMES[suite]


def test_configuration_keys():
    # a new option shows up here as a test change
    assert cli.INT_KEYS | cli.FLOAT_KEYS | cli.STR_KEYS == {
        "n", "lmax", "N", "M", "kmax", "seed",
        "q", "t", "t0", "t1", "t2", "t3", "a", "b", "c", "d", "tol",
        "suite", "out", "format"}


def test_no_depth_option(tmp_path, capsys):
    # chains end where their support ends; there is no cap to set, and a
    # flag and a file line are refused alike
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("suite=limits\ndepth=5\n")
    for argv in (["--suite", "limits", "--depth", "5"],
                 ["--config", str(cfgfile)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: unknown configuration key 'depth'\n")


class TestFlagGrammar:
    """The command line is --key value or --key=value pairs over the
    --config file; build_config checks the values, as it does a file's."""

    def echo(self, argv, tmp_path) -> dict:
        out = tmp_path / "r.json"
        assert main(["--suite", "qracah", *argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())["config_echo"]

    @pytest.mark.parametrize("argv, key, value", [
        (["--N=1"], "N", 1),
        (["--t1", "-0.45"], "t1", -0.45),
        (["--t1=-0.3"], "t1", -0.3),
        (["--q", "4e-1"], "q", 0.4),
        (["--n", "03", "--N", "1"], "n", 3),
        (["--N", "3", "--N", "1"], "N", 1),
    ], ids=["equals", "negative", "negative-equals", "exponent",
            "leading-zero", "repeated"])
    def test_value(self, argv, key, value, tmp_path):
        assert self.echo(argv, tmp_path)[key] == value

    def test_equals_form_is_the_same_report(self, tmp_path):
        reports = []
        for argv in (["--suite", "little", "--lmax", "1"],
                     ["--suite=little", "--lmax=1"]):
            out = tmp_path / "r.json"
            assert main([*argv, "--out", str(out)]) == 0
            reports.append(strip_ms(json.loads(out.read_text())))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("first", [True, False])
    def test_flag_wins_over_config_file(self, first, tmp_path):
        # wherever --config stands, its file is read before the flags
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("N=2\nt1=-0.3\n")
        config = ["--config", str(cfgfile)]
        argv = config + ["--N", "1"] if first else ["--N", "1"] + config
        assert self.echo(argv, tmp_path) == {
            **self.echo([], tmp_path), "N": 1, "t1": -0.3}

    @pytest.mark.parametrize("argv, token", [
        (["--suite"], "--suite"),
        (["--suite", "--seed", "1"], "--seed"),
        (["--suite", "little", "aw"], "'aw'"),
        (["--suite", "little", "--"], "'--'"),
        (["--suite", "little", "--=1"], "'--=1'"),
        (["-n", "2", "--suite", "little"], "'-n'"),
    ], ids=["missing-value", "flag-as-value", "positional", "bare-dashes",
            "empty-key", "single-dash"])
    def test_exit_two_names_the_token(self, argv, token, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and token in err

    def test_no_abbreviations(self, capsys):
        assert main(["--suite", "little", "--lm", "1"]) == 2
        assert "unknown configuration key 'lm'" in capsys.readouterr().err

    def test_unknown_key_named_before_the_missing_suite(self, capsys):
        # an abbreviated --suite leaves the suite unset; the message names
        # the key the user typed, not the suite it failed to set
        assert main(["--su", "little"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown configuration key 'su'\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag, capsys):
        assert main(["--suite", "little", flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "abbreviated" in out
        for key in cli.INT_KEYS | cli.FLOAT_KEYS | cli.STR_KEYS | {"config"}:
            assert re.search(rf"\b{key}\b", out), key


def run_cli_process(code: str) -> subprocess.CompletedProcess:
    """python -c code in a fresh interpreter that imports bcortho from
    the tree under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_main_imports_no_argument_parser(tmp_path):
    # pytest imports argparse itself, so only a fresh interpreter shows
    # what a run imports
    out = tmp_path / "r.json"
    proc = run_cli_process(
        "import sys\n"
        "from bcortho.cli import main\n"
        f"code = main(['--suite', 'little', '--out', {str(out)!r}])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'}"
        " & sys.modules.keys()))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert json.loads(out.read_text())["summary"]["fail"] == 0


def test_near_one_fails_with_nan_not_a_traceback():
    # at q = 0.999, (q;q)_inf ~ e^-1640 underflows to 0 in the closed
    # forms; numpy warns on the way, which is why this runs in its own
    # interpreter rather than under the warnings-as-errors filter
    proc = run_cli_process(
        "import sys\n"
        "from bcortho.cli import main\n"
        "sys.exit(main(['--suite', 'aw', '--q', '0.999', '--M', '512']))\n")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == [
        "constant-term", "norms", "orthogonality"]
    assert all(math.isnan(checks[name]["lhs"])
               for name in ("constant-term", "norms", "orthogonality"))


@functools.lru_cache(maxsize=None)
def seeded_checks(suite: str, seed: int) -> tuple:
    """The checks of a default suite run at seed, without wall times."""
    cfg = build_config({"suite": suite, "seed": str(seed)})
    return tuple(json.dumps(c, sort_keys=True)
                 for c in strip_ms(run_suite(cfg).to_dict())["checks"])


class TestSeedFree:
    # the op_matrix that the limit scans and the aw suite build from has
    # no random input: --seed only drives the residue-split and
    # c-weight-dual-form draws
    @pytest.mark.parametrize("seed", [7, 24, 59])
    def test_big_coefficients_pass(self, seed):
        # the big scan's tail was non-monotone at these seeds while
        # op_matrix was fitted at random sample points
        checks = [json.loads(c) for c in seeded_checks("limits", seed)]
        assert {c["name"]: c["pass"] for c in checks}["big-coefficients"]

    @pytest.mark.parametrize("suite", ["limits", "aw"])
    def test_values_do_not_depend_on_seed(self, suite):
        assert seeded_checks(suite, 7) == seeded_checks(suite, 24)
