"""The vknots command-line interface: output records and exit codes."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vknots.cli
from vknots import SearchBudget, parse_gauss, render_certificate, search_equivalent
from vknots.cli import _budget, build_parser

from .conftest import CORPUS, KISHINO, TREFOIL, VIRTUAL_TREFOIL
from .conftest import run_cli as run

KISHINO_CERT = f"""\
start: {KISHINO}
saddle c1=0 p=3 c2=0 q=7
r2- a=3 b=4
r2- a=1 b=2
death c=1
end: ()
"""


REPO = Path(__file__).resolve().parents[1]


class TestBasics:
    def test_parse(self):
        r = run("parse", " O1+ U1+ ")
        assert r.returncode == 0
        assert r.stdout.strip() == "O1+U1+"

    @pytest.mark.parametrize(
        "args", [("parse", "O1+"), ("info", "O1+O1+O1+O1+O1+")],
        ids=["parse-dangling", "info-five-overs"],
    )
    def test_parse_error_exit_3(self, args):
        r = run(*args)
        assert r.returncode == 3
        assert "error" in r.stderr
        assert "Traceback" not in r.stderr

    def test_usage_error_exit_3(self):
        r = run("no-such-command")
        assert r.returncode == 3

    def test_info_two_records(self):
        r = run("info", TREFOIL)
        lines = r.stdout.splitlines()
        assert lines[0] == "crossings=3 components=1 writhe=3 genus=0"
        assert lines[1] == "crossings=3 faces=5 euler=2 genus=0"

    def test_info_virtual_trefoil(self):
        r = run("info", VIRTUAL_TREFOIL)
        assert "genus=1" in r.stdout.splitlines()[0]

    def test_canon_is_stable(self):
        a = run("canon", "O1+U2+U1+O2+").stdout
        b = run("canon", "U3-O5-O3-U5-".replace("-", "+")).stdout
        assert a == b

    def test_ops(self):
        assert run("reverse", "O1+U1+").returncode == 0
        assert run("mirror", "--mode", "switch", "O1+U1+").stdout.strip() == "U1-O1-"
        assert run("closure", "L:O1+U1+").stdout.strip() == "O1+U1+"
        assert run("cut", "--arc", "0", "O1+U1+").stdout.strip().startswith("L:")
        assert run("inverse", "L:O1+U1+").returncode == 0
        r = run("sum", "L:O1+U1+", "L:O2-U2-")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("L:")


class TestCertificates:
    def test_apply_prints_each_stage(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_text(KISHINO_CERT)
        r = run("apply", str(p))
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert len(lines) == 5  # the start diagram plus one line per move
        assert lines[0] == KISHINO

    def test_validate_ok(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_text(KISHINO_CERT)
        r = run("validate", "--claim", "concordance", str(p))
        assert r.returncode == 0
        assert r.stdout.strip() == "valid=yes verdict=concordance s=1 b=0 d=1"

    def test_validate_wrong_claim_exit_2(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_text(KISHINO_CERT)
        r = run("validate", "--claim", "slice-disk", str(p))
        assert r.returncode == 2
        assert "valid=no" in r.stdout

    def test_missing_file_exit_3(self):
        r = run("validate", "--claim", "concordance", "/no/such/file")
        assert r.returncode == 3

    def test_non_utf8_file_exit_3(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_bytes(b"start: ()\n\xff\xfe\nend: ()\n")
        r = run("validate", "--claim", "concordance", str(p))
        assert r.returncode == 3
        assert r.stderr.startswith("vknots: error: ")
        assert "Traceback" not in r.stderr


class TestSearch:
    def test_search_slice_found(self, tmp_path):
        out = tmp_path / "found.cert"
        r = run(
            "search-slice", "O1+U1+", "--max-crossings", "4",
            "--max-nodes", "2000", "--out", str(out),
        )
        assert r.returncode == 0
        assert r.stdout.startswith("status=found ")
        v = run("validate", "--claim", "concordance", str(out))
        assert v.returncode == 0

    def test_search_slice_exhausted_exit_1(self):
        r = run(
            "search-slice", VIRTUAL_TREFOIL, "--max-crossings", "4",
            "--max-saddles", "0", "--max-deaths", "0", "--max-nodes", "10000",
            "--max-depth", "8", "--max-components", "2",
        )
        assert r.returncode == 1
        assert r.stdout.startswith("status=exhausted ")

    @pytest.mark.parametrize(
        "args",
        [("search-slice", TREFOIL, "--max-nodes", "5", "--max-saddles", "2",
          "--max-deaths", "2"),
         ("search-equiv", TREFOIL, "()", "--max-nodes", "5")],
        ids=["search-slice", "search-equiv"],
    )
    def test_search_budget_hit_exit_1(self, args, capsys):
        assert vknots.cli.main(list(args)) == 1
        out = capsys.readouterr().out
        assert out.startswith("status=budget-hit ")
        assert out.count("\n") == 1  # the record only, no certificate

    def test_search_equiv(self):
        r = run(
            "search-equiv", "O1+U1+", "()", "--max-crossings", "4",
            "--max-nodes", "2000",
        )
        assert r.returncode == 0
        assert "status=found" in r.stdout

    def test_search_equiv_component_mismatch_exit_3(self):
        r = run("search-equiv", "O1+U1+;()", "()", "--max-nodes", "200")
        assert r.returncode == 3
        assert r.stderr.startswith("vknots: error: ")
        assert "components" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag,value", [("--max-nodes", "-1")])
    def test_bad_budget_exit_3(self, flag, value):
        r = run("search-slice", "O1+U1+", flag, value)
        assert r.returncode == 3
        assert r.stderr.startswith("vknots: error: ")
        assert "Traceback" not in r.stderr

    def test_workers_flag_refused(self):
        r = run("search-slice", "O1+U1+", "--workers", "2")
        assert r.returncode == 3
        errors = [ln for ln in r.stderr.splitlines() if ln.startswith("vknots: error: ")]
        assert errors == ["vknots: error: unrecognized arguments: --workers 2"]
        assert "Traceback" not in r.stderr

    def test_interrupt_exit_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(vknots.cli, "search_slice", interrupted)
        assert vknots.cli.main(["search-slice", TREFOIL]) == 130
        err = capsys.readouterr().err
        assert err == "vknots: interrupted\n"
        assert "Traceback" not in err

    def test_budget_flag_defaults_are_search_budget_defaults(self):
        args = build_parser().parse_args(["search-equiv", "O1+U1+", "()"])
        assert _budget(args) == SearchBudget()

    def test_reduce(self):
        r = run("reduce", "O1+U1+O2-U2-", "--max-nodes", "2000")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "()"
        assert lines[1] == "crossings=0 genus_bound=0"


@pytest.fixture
def installed_env(tmp_path):
    """Install this working tree into `tmp_path` with the setuptools already
    present (no pip, no `wheel`) and return an environment that runs the
    installed copy: its scripts first on PATH, its library alone on
    PYTHONPATH (so `src/` is not importable). Nothing is written into the
    source tree: egg-info and build output go under `tmp_path` too."""
    pytest.importorskip("setuptools")
    (tmp_path / "egg").mkdir()
    r = subprocess.run(
        [
            sys.executable, "-c", "import setuptools; setuptools.setup()",
            "egg_info", "--egg-base", str(tmp_path / "egg"),
            "build", "--build-base", str(tmp_path / "build"),
            "install",
            "--install-lib", str(tmp_path / "lib"),
            "--install-scripts", str(tmp_path / "bin"),
            "--single-version-externally-managed",
            "--record", str(tmp_path / "record.txt"),
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    path = os.pathsep.join([str(tmp_path / "bin"), os.environ.get("PATH", "")])
    return dict(os.environ, PATH=path, PYTHONPATH=str(tmp_path / "lib"))


def _mutate(rng, text: str, alphabet: str) -> str:
    """`text` with one edit to its tokens (each endpoint such as `O12+`
    is one token, any other character is one): two swapped, one deleted,
    or a character of `alphabet` inserted or put in place of one."""
    tokens = re.findall(r"[OU]\d+[+-]|.", text, re.S)
    i = rng.randrange(len(tokens) + 1)
    op = rng.choice("ssdir") if tokens else "i"
    if op == "i":
        tokens.insert(i, rng.choice(alphabet))
        return "".join(tokens)
    i = min(i, len(tokens) - 1)
    if op == "s":
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif op == "d":
        del tokens[i]
    else:
        tokens[i] = rng.choice(alphabet)
    return "".join(tokens)


class TestMutatedInput:
    """Damaged input ends in an error message and an exit code, never
    in a traceback: seeded mutations of valid Gauss codes and of valid
    certificates go through `main` in-process."""

    CODE_CHARS = "OU+-0123456789;()L: x"
    CERT_CHARS = CODE_CHARS + "abcdehilpqrstxyz=#\n"
    COMMANDS = [
        ["parse"], ["info"], ["canon"], ["reverse"], ["closure"], ["inverse"],
        ["mirror", "--mode", "switch"], ["cut", "--arc", "1"],
        ["reduce", "--max-nodes", "50"], ["search-slice", "--max-nodes", "50"],
    ]

    @staticmethod
    def _codes(calls):
        """The exit code of each command line, and the lines that raised."""
        codes, escaped = [], []
        for argv in calls:
            try:
                codes.append(vknots.cli.main(argv))
            except Exception as err:  # what the test looks for
                escaped.append((argv, repr(err)))
        return codes, escaped

    def test_mutated_gauss_codes(self, capsys):
        rng = random.Random(20261020)
        calls = []
        for n in range(600):
            code = rng.choice(CORPUS)
            for _ in range(rng.randint(1, 3)):
                code = _mutate(rng, code, self.CODE_CHARS)
            calls.append([*self.COMMANDS[n % len(self.COMMANDS)], "--", code])
        codes, escaped = self._codes(calls)
        capsys.readouterr()
        assert not escaped, f"{len(escaped)} escaped, e.g. {escaped[:3]}"
        assert set(codes) <= {0, 1, 2, 3}
        assert {0, 3} <= set(codes)  # some mutants still parse, some do not

    def test_mutated_certificates(self, tmp_path, capsys):
        rng = random.Random(20261021)
        found = search_equivalent(
            parse_gauss("()"), parse_gauss("O1+U1+O2-U2-"), SearchBudget.small()
        )
        texts = [
            KISHINO_CERT,
            vknots.cli._data("kishino_concordance.cert"),
            vknots.cli._data("kishino_slice_disk.cert"),
            render_certificate(found.certificate),
        ]
        calls = []
        for n in range(300):
            lines = rng.choice(texts).splitlines(keepends=True)
            i = rng.randrange(len(lines))
            lines[i] = _mutate(rng, lines[i], self.CERT_CHARS)
            path = tmp_path / f"{n}.cert"
            path.write_text("".join(lines))
            claim = ("concordance", "slice-disk")[n % 2]
            calls += [["validate", "--claim", claim, str(path)], ["apply", str(path)]]
        codes, escaped = self._codes(calls)
        capsys.readouterr()
        assert not escaped, f"{len(escaped)} escaped, e.g. {escaped[:3]}"
        assert set(codes) <= {0, 1, 2, 3}
        assert {0, 2, 3} <= set(codes)


class TestDemo:
    def test_demo_kishino(self):
        r = run("demo", "kishino")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == f"kishino={KISHINO}"
        assert lines[-1] == "valid=yes verdict=concordance s=1 b=0 d=1"

    def test_demo_kishino_slice_disk(self):
        r = run("demo", "kishino", "--claim", "slice-disk")
        assert r.returncode == 0
        assert r.stdout.splitlines()[-1] == "valid=yes verdict=slice-disk s=1 b=0 d=2"

    def test_console_script_installed(self, installed_env):
        r = subprocess.run(
            ["vknots", "parse", "O1+U1+"],
            capture_output=True,
            text=True,
            env=installed_env,
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "O1+U1+"
