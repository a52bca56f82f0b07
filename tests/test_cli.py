"""Tests for the batch verification harness."""

import json

import pytest

from bcortho.cli import (
    CertificationReport,
    CheckRecord,
    build_config,
    emit_report,
    format_text,
    main,
    parse_config_file,
    run_suite,
)
from bcortho.errors import ConfigError, IoError


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

    def test_tiny_mass_does_not_pass(self, capsys):
        # the multisum of a mass of 2.5e-94 used to stop at 9.2e-111, and
        # the checks passed on the absolute error
        assert main(["--suite", "little", "--q", "0.99", "--b", "0.6",
                     "--lmax", "1"]) != 0
        assert "still grow" in capsys.readouterr().err

    def test_exit_one_on_failing_check(self, tmp_path):
        # an absurdly tight tolerance forces at least one failure
        out = tmp_path / "r.json"
        code = main(["--suite", "qracah", "--tol", "1e-300",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] > 0

    def test_config_file_with_override(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("suite=qracah\nN=2\n")
        out = tmp_path / "r.json"
        code = main(["--config", str(cfgfile), "--N", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config_echo"]["N"] == 1
