"""The vknots command-line interface: output records and exit codes."""

import ast
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import vknots.cli
from vknots import SearchBudget, parse_gauss, render_certificate, search_equivalent
from vknots.cli import _budget, build_parser

from .conftest import CORPUS, KISHINO, TREFOIL, VIRTUAL_TREFOIL, cli_subcommands
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

    def test_apply_end_mismatch_exit_2(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_text(KISHINO_CERT.replace("end: ()", f"end: {TREFOIL}"))
        r = run("apply", str(p))
        assert r.returncode == 2
        assert len(r.stdout.splitlines()) == 5
        assert r.stderr == "vknots: invalid certificate: end mismatch\n"

    def test_apply_names_the_failing_step(self, tmp_path):
        # apply and validate report an inapplicable step in the same words
        p = tmp_path / "c.cert"
        p.write_text(f"start: {TREFOIL}\nr1- x=1\nend: ()\n")
        failure = ("step 1 (r1- x=1): endpoints of crossing 1 are not adjacent; "
                   "not an r1 kink")
        r = run("apply", str(p))
        assert (r.returncode, r.stdout) == (2, run("parse", TREFOIL).stdout)
        assert r.stderr == f"vknots: invalid certificate: {failure}\n"
        r = run("validate", "--claim", "concordance", str(p))
        assert r.returncode == 2
        assert ast.literal_eval(r.stdout.split("failure=", 1)[1]) == failure
        # every diagram replayed before the failing step is printed first
        good, bad = tmp_path / "good.cert", tmp_path / "bad.cert"
        good.write_text(KISHINO_CERT)
        bad.write_text(KISHINO_CERT.replace("r2- a=1 b=2", "r1- x=9"))
        r, ok = run("apply", str(bad)), run("apply", str(good))
        assert r.returncode == 2
        assert r.stdout == "".join(ok.stdout.splitlines(keepends=True)[:3])
        assert r.stderr == "vknots: invalid certificate: step 3 (r1- x=9): no crossing 9\n"

    def test_end_up_to_isomorphism_exit_0(self, tmp_path):
        # Each end is written relabeled and rotated, the second with its
        # components reordered too, unlike the diagram the replay reaches.
        kinked = tmp_path / "kinked.cert"
        kinked.write_text(f"start: {TREFOIL}\nr1+ c=0 pos=2 sign=- order=OU\n"
                          "end: O20-U20-U7+O3+U12+O7+U3+O12+\n")
        split = tmp_path / "split.cert"
        split.write_text(f"start: {KISHINO}\nsaddle c1=0 p=3 c2=0 q=7\n"
                         "end: U42-U17+O42-O17+;O5-U9+U5-O9+\n")
        r = run("validate", "--claim", "concordance", str(kinked))
        assert (r.returncode, r.stdout) == (0, "valid=yes verdict=concordance s=0 b=0 d=0\n")
        for p in (kinked, split):
            r = run("apply", str(p))
            assert (r.returncode, r.stderr) == (0, "")
            assert len(r.stdout.splitlines()) == 2

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

    @pytest.mark.parametrize(
        "args",
        [("search-slice", "O1+U1+"), ("search-equiv", "O1+U2-U1+O2-", "()"),
         ("reduce", "O1+U1+O2-U2-")],
        ids=["search-slice", "search-equiv", "reduce"],
    )
    def test_huge_budget_runs(self, args):
        # No budget value reaches a field of a queued state's record.
        flags = {f"--{f.name.replace('_', '-')}" for f in fields(SearchBudget)}
        flags &= {flag for a in cli_subcommands()[args[0]]._actions
                  for flag in a.option_strings}
        r = run(*args, *(word for flag in sorted(flags) for word in (flag, str(10**30))))
        assert (r.returncode, r.stderr) == (0, "")

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

    @pytest.mark.parametrize(
        "argv,default,cobordism",
        [(["search-slice", "O1+U1+"], SearchBudget(max_saddles=1, max_deaths=1), True),
         (["search-equiv", "O1+U1+", "()"], SearchBudget(), False),
         (["reduce", "O1+U1+"], SearchBudget(), False)],
        ids=["search-slice", "search-equiv", "reduce"],
    )
    def test_budget_flag_defaults_are_search_budget_defaults(self, argv, default, cobordism):
        args = build_parser().parse_args(argv)
        assert _budget(args) == default
        every_cap = {"--" + f.name.replace("_", "-") for f in fields(SearchBudget)}
        cobordism_caps = {"--max-saddles", "--max-births", "--max-deaths"}
        flags = {
            flag for action in cli_subcommands()[argv[0]]._actions
            for flag in action.option_strings if flag.startswith("--max-")
        }
        assert flags == (every_cap if cobordism else every_cap - cobordism_caps)
        # each flag sets its own field of the budget
        caps = {flag: 10 + i for i, flag in enumerate(sorted(flags))}
        args = build_parser().parse_args(
            argv + [word for flag, cap in caps.items() for word in (flag, str(cap))]
        )
        set_caps = {flag[2:].replace("-", "_"): cap for flag, cap in caps.items()}
        assert _budget(args) == replace(default, **set_caps)

    @pytest.mark.parametrize(
        "args,value",
        [(("cut", "O1+U1+", "--arc", "\u0661"), "\u0661"),
         (("reduce", "O1+U1+", "--max-nodes", "1_000"), "1_000")],
        ids=["arabic-indic-digit", "underscore-grouping"],
    )
    def test_integer_flags_take_ascii_digits(self, args, value):
        r = run(*args)
        assert r.returncode == 3
        errors = [ln for ln in r.stderr.splitlines() if "error:" in ln]
        assert len(errors) == 1
        # the child may print a non-ASCII value escaped, by its locale
        assert repr(value) in errors[0] or ascii(value) in errors[0]
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "args,error",
        [(("cut", "O1+U1+", "--arc", "1_000"), "argument --arc: invalid int value: '1_000'"),
         (("cut", "O1+U1+"), "the following arguments are required: --arc")],
        ids=["bad-integer", "missing-flag"],
    )
    def test_subcommand_usage_error_names_the_program(self, args, error):
        # a subcommand's usage error reads like every other error line
        r = run(*args)
        assert r.returncode == 3
        errors = [ln for ln in r.stderr.splitlines() if "error:" in ln]
        assert errors == [f"vknots: error: {error}"]
        assert r.stderr.startswith(f"usage: vknots {args[0]} ")

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
        def installed(*args):
            return subprocess.run(
                ["vknots", *args], capture_output=True, text=True, env=installed_env
            )

        r = installed("parse", "O1+U1+")
        assert r.returncode == 0
        assert r.stdout.strip() == "O1+U1+"
        # the demo reads the certificates the installed copy ships as data
        r = installed("demo", "kishino")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "valid=yes verdict=concordance s=1 b=0 d=1"
