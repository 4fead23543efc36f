"""End-to-end command line behavior: arguments, formats, exit codes."""

import concurrent.futures
import hashlib
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import trial_prime
from shnirel import cli, diophantine, gaussdecomp, primes, ratdecomp
from shnirel.cli import entry, parse_gaussian, parse_range
from shnirel.gaussdecomp import ScanReport
from shnirel.primes import CACHE_MAGIC
from shnirel.zcore import GaussianInt, Region


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.strip()


def loaded_after(code: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter, started with flags, holds once it
    has run code."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", code + "\nimport sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


# what no Gaussian command needs: dataclasses and its inspect import, and the
# rational, matrix and table layers with the csv module
NOT_GAUSSIAN = {"dataclasses", "inspect", "csv", "shnirel.golden", "shnirel.ratdecomp",
                "shnirel.diophantine"}


class TestStartup:
    def test_import_leaves_the_process_pool_out(self):
        assert "concurrent.futures.process" not in loaded_after("import shnirel.cli")

    def test_import_loads_no_command_module(self):
        assert loaded_after("import shnirel.cli") & (NOT_GAUSSIAN | {"shnirel.gaussdecomp"}) == set()

    def test_no_module_imports_typing(self, tmp_path):
        """Annotations name typing's types only for type checkers, so neither
        the CLI import nor a Gaussian command loads typing. Under -S no site
        hook can load it first; the package's directory goes on the path by
        hand."""
        home = str(Path(cli.__file__).resolve().parents[1])
        argv = ["scan", "--targets", "a", "--re", "1..12", "--im", "1..12", "--primes", "kpi",
                "--format", "json", "--out", str(tmp_path / "out")]
        for code in ("import shnirel.cli", f"from shnirel.cli import entry; entry({argv!r})"):
            loaded = loaded_after(f"import sys; sys.path.insert(0, {home!r}); {code}", "-S")
            assert "shnirel.cli" in loaded and "typing" not in loaded, code

    def test_package_import_loads_no_submodule(self):
        loaded = loaded_after("import shnirel")
        assert {m for m in loaded if m.startswith("shnirel.")} == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--targets", "a", "--re", "1..12", "--im", "1..12", "--primes", "gammapi",
             "--format", "json"],
            ["scan", "--targets", "sector", "--re", "1..8", "--im=-7..8", "--primes", "spi",
             "--format", "csv"],
            ["decompose", "--z=600,250", "--primes", "gammapi", "--format", "json"],
            ["decompose", "--z", "19,17", "--primes", "kpi", "--chain", "--format", "md"],
        ],
    )
    def test_gaussian_commands_load_only_their_layers(self, tmp_path, argv):
        out = tmp_path / "out"
        loaded = loaded_after(
            f"from shnirel.cli import entry; entry({argv + ['--out', str(out)]!r})"
        )
        assert out.stat().st_size > 0
        assert "shnirel.gaussdecomp" in loaded
        assert loaded & NOT_GAUSSIAN == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm130", "--n", "1005000", "--format", "json"],
            ["hypotheses", "--upper", "2000", "--format", "csv"],
            ["solve-thm1", "--a", "500002", "--b", "1000", "--format", "json"],
            ["solve-thm2", "--a", "700000", "--b", "5", "--kmax", "8", "--format", "json"],
        ],
    )
    def test_rational_commands_load_no_gaussian_layer(self, tmp_path, argv):
        """Only solve-conj1 needs the Gaussian search among the rational
        and matrix commands; diophantine imports it inside that solver."""
        out = tmp_path / "out"
        loaded = loaded_after(
            f"from shnirel.cli import entry; entry({argv + ['--out', str(out)]!r})"
        )
        assert out.stat().st_size > 0
        assert "shnirel.ratdecomp" in loaded
        assert "shnirel.gaussdecomp" not in loaded

    def test_tables_load_the_table_module(self, tmp_path):
        out = tmp_path / "out"
        loaded = loaded_after(
            f"from shnirel.cli import entry; entry(['tables', '--validate', '--out', {str(out)!r}])"
        )
        assert out.read_text() == "102 rows, 0 failures\n"
        assert "shnirel.golden" in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--z=600,250", "--primes", "gammapi"],
            ["scan", "--targets", "a", "--re", "1..12", "--im", "1..12", "--primes", "kpi"],
            ["tables", "--validate"],
        ],
    )
    def test_json_reports_load_no_json_module(self, tmp_path, argv):
        """Reports write JSON with report's own writer; json's escaper is
        imported only for text outside printable ASCII, which these lack."""
        out = tmp_path / "out.json"
        loaded = loaded_after(
            f"from shnirel.cli import entry; "
            f"entry({argv + ['--format', 'json', '--out', str(out)]!r})"
        )
        assert json.loads(out.read_text())
        assert {m for m in loaded if m == "json" or m.startswith("json.")} == set()

    def test_a_named_command_builds_only_its_subparser(self):
        parser = cli.build_parser("decompose")
        (commands,) = (a for a in parser._actions if a.dest == "command")
        assert list(commands.choices) == ["decompose"]
        assert commands.choices["decompose"].prog == "shnirel decompose"
        full = cli.build_parser()
        (every,) = (a for a in full._actions if a.dest == "command")
        assert len(every.choices) == 10
        assert parser.format_usage() == full.format_usage()

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            [],
            ["frobnicate"],
            ["decompose"],
            ["decompose", "--z", "1", "stray"],
            ["decompose", "-h"],
            ["tables", "--validate", "--regenerate"],
            ["hypotheses", "--index", "9"],
        ],
    )
    def test_text_matches_the_full_parser(self, capsys, monkeypatch, argv):
        """entry builds one subparser when argv[0] names a command and every
        one otherwise; help, usage, errors and exit codes stay those of
        the parser with all ten."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as lean:
            entry(argv)
        got = capsys.readouterr()
        assert (got.out, got.err, lean.value.code) == (want.out, want.err, full.value.code)
        assert want.out or want.err


class TestParsers:
    def test_index_choices_are_the_hypotheses(self, capsys):
        assert list(cli.HYPOTHESIS_INDICES) == sorted(ratdecomp.HYPOTHESES)
        for index in (0, max(ratdecomp.HYPOTHESES) + 1):
            with pytest.raises(SystemExit) as exc:
                entry(["hypotheses", "--index", str(index), "--upper", "50"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_gaussian_forms(self):
        assert parse_gaussian("19,16") == GaussianInt(19, 16)
        assert parse_gaussian("8") == GaussianInt(8, 0)
        assert parse_gaussian("-3,-4") == GaussianInt(-3, -4)

    def test_range_forms(self):
        assert parse_range("1..50") == (1, 50)
        assert parse_range("-5..5") == (-5, 5)
        with pytest.raises(ValueError):
            parse_range("1-50")


class TestSieve:
    def test_summary_count(self, capsys):
        code, out, err = run(capsys, "sieve", "--limit", "100")
        assert code == 0
        assert err == "primes: 25 up to 100"

    def test_residue_filter_and_listing(self, capsys):
        code, out, err = run(
            capsys, "sieve", "--limit", "100", "--mod4", "3", "--list", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n"
        got = [int(p) for p in lines[1:]]
        assert got == [p for p in range(2, 101) if trial_prime(p) and p % 4 == 3]

    def test_empty_class_leaves_the_largest_cell_empty(self, capsys):
        code, out, _ = run(capsys, "sieve", "--limit", "2", "--mod4", "1", "--format", "csv")
        assert code == 0
        assert out == "limit,count,largest\n2,0,\n"
        code, out, _ = run(capsys, "sieve", "--limit", "2", "--mod4", "1", "--format", "json")
        assert json.loads(out)["largest"] is None

    def test_cache_file_via_flag(self, capsys, tmp_path):
        cache = tmp_path / "primes.bin"
        code, _, _ = run(capsys, "sieve", "--limit", "500", "--cache", str(cache))
        assert code == 0
        assert cache.exists()

    def test_cache_that_skips_primes_is_resieved(self, capsys, tmp_path):
        cache = tmp_path / "gappy.bin"
        cache.write_bytes(CACHE_MAGIC + struct.pack("<4Q", 1000003, 2, 3, 1000003))
        code, out, err = run(
            capsys, "sieve", "--limit", "100", "--cache", str(cache), "--list"
        )
        assert code == 0
        assert [int(p) for p in out.split()] == [p for p in range(101) if trial_prime(p)]
        assert err == "primes: 25 up to 100"

    def test_cache_missing_a_prime_prints_what_the_sieve_does(self, capsys, tmp_path):
        cache = tmp_path / "between.bin"
        want = [p for p in range(20001) if trial_prime(p)]
        listed = [p for p in want if p != 2053]
        cache.write_bytes(CACHE_MAGIC + struct.pack(f"<{len(listed) + 1}Q", 20000, *listed))
        argv = ("sieve", "--limit", "20000", "--format", "csv")
        _, plain, _ = run(capsys, *argv)
        code, cached, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 0
        assert cached == plain == f"limit,count,largest\n20000,{len(want)},19997\n"
        assert err == f"primes: {len(want)} up to 20000"

    @pytest.mark.parametrize("limit", ["1", "-5"])
    def test_limit_below_two_exits_two_with_a_cache(self, capsys, tmp_path, limit):
        cache = tmp_path / "primes.bin"
        assert run(capsys, "sieve", "--limit", "100", "--cache", str(cache))[0] == 0
        code, out, err = run(capsys, "sieve", "--limit", limit, "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert err == "limit must be at least 2"

    def test_cache_directory_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "sieve", "--limit", "100", "--cache", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "Is a directory" in err
        assert "Traceback" not in err
        assert not (tmp_path.parent / f"{tmp_path.name}.tmp").exists()

    def test_cache_file_via_environment(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env.bin"
        monkeypatch.setenv("SHNIREL_CACHE", str(cache))
        code, _, _ = run(capsys, "sieve", "--limit", "300")
        assert code == 0
        assert cache.exists()


class TestDecompose:
    def test_strict_triple(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--z", "19,16", "--primes", "kpi", "--strict-norm"
        )
        assert code == 0
        assert out.splitlines()[0] == "19+16i = (17+12i) + (1+2i) + (1+2i)"
        assert err == "terms: 3"

    def test_prime_target_is_flagged(self, capsys):
        code, _, err = run(capsys, "decompose", "--z", "5,4", "--primes", "kpi")
        assert code == 0
        assert err == "terms: 1 (single: the target itself is prime)"

    def test_no_single_forces_longer_split(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--z", "5,4", "--primes", "kpi", "--no-single"
        )
        assert code == 0
        assert err == "terms: 3"

    def test_search_that_reads_the_whole_pool_exits_one(self, capsys):
        """No three kpi primes of norm below 360000 sum to 600: the search
        grows its pool to the end and finds nothing."""
        code, out, err = run(capsys, "decompose", "--z=600,0", "--primes", "kpi", "--strict-norm")
        assert (code, out, err) == (1, "", "600: no decomposition into at most 3 terms")

    def test_unrepresentable_exits_one(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--z", "2", "--primes", "kpi", "--strict-norm"
        )
        assert code == 1
        assert "no decomposition" in err

    def test_chain_route_in_json(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--z", "19,17", "--primes", "kpi", "--chain",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["route"] == "shift-3i"
        assert [t["summand"] for t in data["terms"]] == ["19+14i", "3i"]
        assert err == "terms: 2, route: shift-3i"

    def test_chain_witness_stays_in_gammapi(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--z", "28,6", "--chain", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["region"] == "gammapi"
        assert [t["summand"] for t in data["terms"]] == ["25+6i", "3"]
        assert err == "terms: 2, route: shift-3"

    def test_chain_off_cone_is_a_geometric_obstruction(self, capsys):
        # a sum of gammapi primes keeps re - im >= 0, so 5+7i is out of reach
        code, out, err = run(capsys, "decompose", "--z", "5,7", "--chain")
        assert code == 1
        assert out == ""
        assert "geometric obstruction" in err
        assert "counterexample" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--z", "28,6", "--max-terms", "1"),
            ("--z", "28,6", "--max-terms", "4"),
            ("--z", "9,4", "--primes", "kpi", "--no-single"),
        ],
    )
    def test_chain_takes_neither_max_terms_nor_no_single(self, capsys, argv):
        """--chain writes up to four terms and may answer with a prime
        target itself, so a bound on the terms or a ban on one-term
        answers is refused with exit 2 rather than ignored."""
        code, out, err = run(capsys, "decompose", *argv, "--chain")
        assert (code, out) == (2, "")
        assert err == "--chain takes no --max-terms or --no-single"

    @pytest.mark.parametrize(
        "terms, want",
        [
            ("5", (1, "", "2+2i: no decomposition into at most 5 terms")),
            ("0", (2, "", "max_terms must be at least 1")),
        ],
    )
    def test_max_terms_is_the_bound_given(self, capsys, terms, want):
        argv = ("decompose", "--z", "2,2", "--primes", "gammapi", "--max-terms", terms)
        assert run(capsys, *argv) == want

    def test_chain_gate_exits_two(self, capsys):
        code, _, err = run(capsys, "decompose", "--z", "3", "--chain")
        assert code == 2
        assert "positive real and imaginary" in err

    def test_wrong_witness_exits_two_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        """find_decomposition checks its witness: a search that returns
        wrong terms makes decompose exit 2 with the checker's message and
        no report, on stdout or in --out."""
        real = gaussdecomp._search

        def wrong(*args):
            got = real(*args)
            return [got[0], got[1], (1, 4, 17)]

        monkeypatch.setattr(gaussdecomp, "_search", wrong)
        argv = ["decompose", "--z", "19,16", "--primes", "kpi", "--strict-norm"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "terms sum to 19+18i, not 19+16i")
        path = tmp_path / "dec.json"
        code, out, err = run(capsys, *argv, "--format", "json", "--out", str(path))
        assert (code, out) == (2, "")
        assert "terms sum to" in err
        assert not path.exists()

    def test_bad_region_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["decompose", "--z", "8", "--primes", "octant"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unparsable_target(self, capsys):
        code, _, _ = run(capsys, "decompose", "--z", "x,y")
        assert code == 2


class TestSolvers:
    def test_thm1_csv(self, capsys):
        code, out, err = run(
            capsys, "solve-thm1", "--a", "11", "--b", "3", "--format", "csv"
        )
        assert code == 0
        assert out == "target,x1,x2\n5,5,0\n3,3,0\n3,3,0\n3,0,3\n"
        assert err == "columns: 4, case 1"

    def test_thm1_bad_parity(self, capsys):
        code, _, _ = run(capsys, "solve-thm1", "--a", "8", "--b", "5")
        assert code == 2

    def test_thm2_json(self, capsys):
        code, out, err = run(
            capsys, "solve-thm2", "--a", "9", "--b", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "thm2"
        assert data["columns"] == [
            {"target": 11, "x1": 9, "x2": 2},
            {"target": 3, "x1": 0, "x2": 3},
        ]
        assert err == "columns: 2"

    def test_thm2_exhausted_exits_one(self, capsys):
        code, _, _ = run(capsys, "solve-thm2", "--a", "1", "--b", "1")
        assert code == 1

    def test_thm2_huge_kmax_exits_one_at_once(self, capsys):
        """No more than (a + b) // 3 odd primes sum to a + b, so the search
        stops there however large --kmax is."""
        code, out, err = run(
            capsys, "solve-thm2", "--a", "2", "--b", "2", "--kmax", str(10**18)
        )
        assert (code, out) == (1, "")
        assert err == f"4 is not a sum of up to {10**18} odd primes"

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_thm2_kmax_below_one_exits_two(self, capsys, kmax):
        code, out, err = run(
            capsys, "solve-thm2", "--a", "9", "--b", "5", "--kmax", kmax
        )
        assert code == 2
        assert out == ""
        assert err == "max_terms must be at least 1"

    def test_conj1_csv(self, capsys):
        code, out, _ = run(
            capsys, "solve-conj1", "--a", "7", "--b", "4", "--kmax", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == "target,x1,x2\n17,4,1\n5,2,1\n5,1,2\n"

    def test_thm1_wrong_column_exits_two_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        """solve_four_columns checks its matrix: a split with a composite
        target makes solve-thm1 exit 2 with the checker's message and no
        report."""
        monkeypatch.setattr(diophantine, "four_odd_primes", lambda n: (n - 9, 3, 3, 3))
        path = tmp_path / "thm1.json"
        code, out, err = run(
            capsys, "solve-thm1", "--a", "9", "--b", "9", "--format", "json",
            "--out", str(path),
        )
        assert (code, out, err) == (2, "", "target 9 is not an odd prime")
        assert not path.exists()

    def test_conj1_markdown_table(self, capsys):
        code, out, _ = run(capsys, "solve-conj1", "--a", "6", "--b", "3")
        assert code == 0
        assert out.splitlines()[0] == "kind conj1: a=6, b=3, k=3"


class TestScan:
    def test_exceptions_exit_one(self, capsys):
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..6", "--im", "1..6",
            "--primes", "kpi", "--format", "csv",
        )
        assert code == 1
        assert err == "targets: 36, exceptions: 6"
        lines = out.splitlines()
        assert lines[0] == "z,norm,k,witness"
        assert lines[1] == "1+i,2,,EMPTY"

    def test_clean_scan_exits_zero(self, capsys):
        code, _, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..8", "--im", "1..8",
            "--primes", "kpi", "--min-max-component", "7",
        )
        assert code == 0
        assert err == "targets: 28, exceptions: 0"

    @pytest.mark.parametrize("re", ["2147483648..2147483649", f"{10**30}..{10**30 + 1}"])
    def test_components_past_2_31_exit_two(self, capsys, re):
        """A box end past +/-2^31 is refused as decompose refuses such a z,
        before any prime test runs on norms past Miller-Rabin's proven range."""
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", re, "--im", "1..2",
            "--primes", "kpi", "--max-terms", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"component {re.partition('..')[0]} outside +/-2^31"

    def test_jobs_below_one_exit_two(self, capsys):
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..5", "--im", "1..5",
            "--primes", "kpi", "--jobs", "0",
        )
        assert code == 2
        assert out == ""
        assert "jobs must be at least 1" in err
        assert "Traceback" not in err

    def test_jobs_are_byte_identical(self, capsys, tmp_path):
        outs = []
        for jobs, name in ((1, "serial"), (2, "forked")):
            for fmt in ("csv", "json"):
                path = tmp_path / f"{name}.{fmt}"
                code, _, _ = run(
                    capsys, "scan", "--targets", "a", "--re", "1..10",
                    "--im", "1..10", "--primes", "kpi", "--jobs", str(jobs),
                    "--format", fmt, "--out", str(path),
                )
                assert code in (0, 1)
            outs.append(
                (
                    (tmp_path / f"{name}.csv").read_bytes(),
                    (tmp_path / f"{name}.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_strict_scan_jobs_start_no_process_pool(self, capsys, tmp_path, monkeypatch):
        """A strict scan searches every target, in this process at any --jobs."""
        argv = (
            "scan", "--targets", "sector", "--re", "1..12", "--im=-11..12",
            "--primes", "spi", "--strict-norm", "--format", "csv",
        )
        serial, pooled = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
        code, _, _ = run(capsys, *argv, "--jobs", "1", "--out", str(serial))
        assert code in (0, 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("a scan started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        assert run(capsys, *argv, "--jobs", "2", "--out", str(pooled))[0] == code
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("strict", [(), ("--strict-norm",)])
    @pytest.mark.parametrize("primes", ["kpi", "spi"])
    def test_jobs_do_not_change_output(self, capsys, tmp_path, primes, strict):
        argv = (
            "scan", "--targets", "sector", "--re", "1..30", "--im=-29..30",
            "--primes", primes, *strict, "--format", "json",
        )
        serial, forked = tmp_path / "jobs1.json", tmp_path / "jobs3.json"
        code, _, _ = run(capsys, *argv, "--jobs", "1", "--out", str(serial))
        assert code in (0, 1)
        assert run(capsys, *argv, "--jobs", "3", "--out", str(forked))[0] == code
        assert forked.read_bytes() == serial.read_bytes()

    def test_negative_jobs_exit_two(self, capsys):
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..5", "--im", "1..5",
            "--primes", "kpi", "--jobs", "-1",
        )
        assert code == 2
        assert out == ""
        assert "jobs must be at least 1, got -1" in err
        assert "Traceback" not in err

    def test_walk_fault_exits_two_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        """A level 2 that claims 9+9i, which no two gammapi primes sum to,
        leaves its first-term pass no term for it: the scan exits 2 with a message,
        not a traceback, and writes no report."""
        real = gaussdecomp._sumsets

        def corrupted(points, region, re_lo, re_hi, im_lo, im_hi, max_terms):
            width, levels = real(points, region, re_lo, re_hi, im_lo, im_hi, max_terms)
            levels[1] |= 1 << (((9 - re_lo) * width + 9 - im_lo) >> 1)
            return width, levels

        monkeypatch.setattr(gaussdecomp, "_sumsets", corrupted)
        path = tmp_path / "scan.csv"
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "9..9", "--im", "9..9",
            "--primes", "gammapi", "--format", "csv", "--out", str(path),
        )
        assert (code, out, err) == (2, "", "the walk for 9+9i fails at 2 terms")
        assert not path.exists()

    def test_a_composite_residual_exits_two_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        """A level 1 that claims 4+3i = (2+i)^2 gives 5+5i the first kpi
        entry 1+2i as its first term, though 5+5i = (5+2i) + 3i, and leaves
        a residual no pool point explains: the scan exits 2 with a message,
        not a traceback, and writes no report."""
        real = gaussdecomp._sumsets

        def corrupted(points, region, re_lo, re_hi, im_lo, im_hi, max_terms):
            width, levels = real(points, region, re_lo, re_hi, im_lo, im_hi, max_terms)
            levels[0] |= 1 << (((4 - re_lo) * width + 3 - im_lo) >> 1)
            return width, levels

        monkeypatch.setattr(gaussdecomp, "_sumsets", corrupted)
        path = tmp_path / "scan.json"
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "5..5", "--im", "5..5",
            "--primes", "kpi", "--format", "json", "--out", str(path),
        )
        assert (code, out, err) == (2, "", "the walk for 5+5i fails at 2 terms")
        assert not path.exists()

    def test_a_level_missing_a_sum_exits_two_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        """A level 2 that drops 6 = 3 + 3 leaves 9 = 3 + 3 + 3, kpi's only
        three-term sum of 9, no first term on level 3: the scan exits 2
        before it opens the report."""
        real = gaussdecomp._sumsets

        def dropped(points, region, re_lo, re_hi, im_lo, im_hi, max_terms):
            width, levels = real(points, region, re_lo, re_hi, im_lo, im_hi, max_terms)
            levels[1] &= ~(1 << (((6 - re_lo) * width - im_lo) >> 1))
            return width, levels

        monkeypatch.setattr(gaussdecomp, "_sumsets", dropped)
        path = tmp_path / "scan.md"
        code, out, err = run(
            capsys, "scan", "--targets", "quadrant", "--re", "9..9", "--im", "0..0",
            "--primes", "kpi", "--format", "md", "--out", str(path),
        )
        assert (code, out, err) == (2, "", "the walk for 9 fails at 3 terms")
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_a_lost_first_term_exits_two_with_an_empty_out(
        self, capsys, monkeypatch, tmp_path, fmt
    ):
        """A chase that lost one of level 2's first terms still scans, but
        each writer makes its witness texts before its first line: the
        scan exits 2 with a message, and --out stays empty."""
        real = gaussdecomp._minimal_terms

        def losing(*args):
            got = real(*args)
            del got[3][1][0][0]
            return got

        monkeypatch.setattr(gaussdecomp, "_minimal_terms", losing)
        path = tmp_path / f"scan.{fmt}"
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..20", "--im", "1..20",
            "--primes", "kpi", "--format", fmt, "--out", str(path),
        )
        assert (code, out) == (2, "")
        assert "which no first term explains" in err and "Traceback" not in err
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_a_lost_top_level_first_term_exits_two_with_an_empty_out(
        self, capsys, monkeypatch, tmp_path, fmt
    ):
        """With two terms at most, level 2 is the top level, and the last
        of its first-term records, 19, explains only targets late in norm
        order: the first of them is row 2317, past the first report._BLOCK
        lines. Each writer looks its chased rows up as it writes them, so
        the chase is checked before the first line: losing that record, the
        scan exits 2 with a message, and --out stays empty."""
        real = gaussdecomp._minimal_terms

        def losing(*args):
            got = real(*args)
            del got[3][1][-1][-1]
            return got

        monkeypatch.setattr(gaussdecomp, "_minimal_terms", losing)
        path = tmp_path / f"scan.{fmt}"
        code, out, err = run(
            capsys, "scan", "--targets", "a", "--re", "1..60", "--im", "1..60",
            "--primes", "kpi", "--max-terms", "2", "--format", fmt, "--out", str(path),
        )
        assert (code, out, path.read_bytes()) == (2, "", b"")
        assert err.startswith("the chase of ") and err.endswith("which no first term explains")

    def test_box_cap_exits_two(self, capsys):
        code, _, err = run(
            capsys, "scan", "--targets", "a", "--re", "0..500", "--im", "1..5",
            "--primes", "kpi",
        )
        assert code == 2
        assert "capped at 500" in err

    def test_malformed_range_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "scan", "--targets", "a", "--re", "1-6", "--im", "1..6",
            "--primes", "kpi",
        )
        assert code == 2


# sha256 of the reports, recorded before the regions were derived from
# their cone rows; the box holds targets on both sides of every cone.
SCAN_DIGESTS = {
    ("gammapi", False, "md"): "e84abbeef7a96f6b8961ba6a7f1e2bcb47753a05352fa02fb7fc23d0ca8fb7c5",
    ("gammapi", False, "csv"): "cf542d7c084e1b75b01f7f822e368bd53c6fcfabcdfe2485f59bebe6ab077815",
    ("gammapi", False, "json"): "6902ebda7972d85dd2ae353fa5f608de47f99a0da425dfcce31571f9fb5f6b73",
    ("gammapi", True, "md"): "4cb1ac50887b8b19e656a89827d875a26e299f29880ef279f45605988e3b38e5",
    ("gammapi", True, "csv"): "e69a4efd8d3410fe16d35315bce487d3fdb07f03da023360c465c8bdd028d0ac",
    ("gammapi", True, "json"): "1222205d470d7316bdd972815c80a5a6b0e5c5a8448001e11cad6565f7b41ec7",
    ("kpi", False, "md"): "d1b27697b606c5619005bd272c29913dc6e83dc8c446e2a1d0e03141d2a1ee2e",
    ("kpi", False, "csv"): "a7c8485ff881ca3baeef14105bed8c98b32dce2606acc9f0f1a480e4ba807537",
    ("kpi", False, "json"): "26693fe41d86dba574fc4b550d76c5c1086f0a90915b208dca46ea29b803b4ec",
    ("kpi", True, "md"): "4620e2f13503815d1c0c97bcbd0744bf8b2073d37d6e54f4e6f77f913a469bee",
    ("kpi", True, "csv"): "c608cdcb0e2ce2d367165a786a04854a876ae93d2370f18ebfbd1c898e74d9ce",
    ("kpi", True, "json"): "8f5a8627438ef51c427349cf2232eb9a1942593c525d6ad6094a551e7eea804d",
    ("spi", False, "md"): "585f1192c4c938d7c0bdbe1b16865247d949e2eddf331c7eb126cbe89c6e4d54",
    ("spi", False, "csv"): "c71c7ad99ec2f96b5fdce3e51c7a706e0e947658bb49f023abfabf8e87253246",
    ("spi", False, "json"): "1e648c23501cfd1e287cb819643d812529cd7044531696684de19654c532858d",
    ("spi", True, "md"): "bdfce807bd2be3a7171cdc5b7c229fcccdf3300c2afefc4d701471938fdaf2cc",
    ("spi", True, "csv"): "7d221998763391422210e1180ae3586f30d50a4b42f57b6d510310cc4d4dfc07",
    ("spi", True, "json"): "0de693ab0264af03c1734ba0651aa89eec4410d731c97a68c497f1b227f01254",
}
OBSTRUCTION_DIGESTS = {
    "md": "031fa899345bc4e3ef5a9e507403e01d14cf526da989fc4227835a217c5a9b2d",
    "csv": "78025cd64541726d08a585d2ce5f85fc9a3908ee4d832f2d69e6232d5c601cef",
    "json": "8543a65110da3167dc7ada2d84e45c51753ba0c434b3839d61b09690a6e4dc27",
}


class TestReportDigests:
    def test_reports_are_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "report"
        got = {}
        for primes, strict, fmt in SCAN_DIGESTS:
            argv = ["scan", "--targets", "spi", "--re=0..29", "--im=-14..15",
                    "--primes", primes, "--format", fmt, "--out", str(path)]
            code, _, _ = run(capsys, *(argv + ["--strict-norm"] * strict))
            assert code == 1
            got[primes, strict, fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == SCAN_DIGESTS
        got = {}
        for fmt in OBSTRUCTION_DIGESTS:
            code, _, _ = run(capsys, "obstruction", "--bound", "30",
                             "--format", fmt, "--out", str(path))
            assert code == 0
            got[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == OBSTRUCTION_DIGESTS

    def test_scan_json_skips_the_dict(self, capsys, tmp_path, monkeypatch):
        """Scans write JSON from their rows; to_json_dict is only the oracle."""

        def forbidden(self):
            raise AssertionError("a scan built its JSON dict")

        monkeypatch.setattr(ScanReport, "to_json_dict", forbidden)
        path = tmp_path / "report.json"
        for (primes, strict, fmt), digest in SCAN_DIGESTS.items():
            if fmt != "json":
                continue
            argv = ["scan", "--targets", "spi", "--re=0..29", "--im=-14..15",
                    "--primes", primes, "--format", "json", "--out", str(path)]
            code, _, _ = run(capsys, *(argv + ["--strict-norm"] * strict))
            assert code == 1
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the hypothesis reports, recorded before the scans shared one
# memo of levels.
HYPOTHESIS_DIGESTS = {
    (None, "md"): "f5d0f1d223cb992737281704069f33b1e01953a4c00980a5c084e91d06cce0d1",
    (None, "csv"): "fe6846313726cb22a3c2c5727d6df4feccdf26b322fc01412861cc1772c31ce0",
    (None, "json"): "4b0e8950d4d69bdaa0cfdbce8b85fb1215c423191a21d5cc49afb5dc80f7ca08",
    ("4", "csv"): "93b434caa101172fd0819f2c39c8d22b378df40008afac8037ad4df2e2a1125a",
}

# sha256 of hypotheses --upper 300064 --format csv, the rational benchmark's
# scale, where level 2's first terms reach 683; recorded while every level
# was still filled by the loop per n.
HYPOTHESIS_SCALE_DIGEST = "8c42080ef35a0e0848d53bbc6aca2ae53e7915c8e86f132b56d7949b93659d5d"

# sha256 of hypotheses --index 4 --upper 300064 --format csv: a lone H_4
# scan lists the texts of levels 1 and 2 by itself and reads levels 3 to 5
# through level 2's; recorded while every CSV row was chased off the arrays
# as it was written.
HYPOTHESIS_INDEX4_SCALE_DIGEST = "75e629e421744a4f38a3ff5c56fba6563b576d0e6f383795202bc982761a5699"


class TestHypothesisDigests:
    def test_reports_are_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "report"
        got = {}
        for index, fmt in HYPOTHESIS_DIGESTS:
            argv = ["hypotheses", "--upper", "20000", "--format", fmt, "--out", str(path)]
            code, _, _ = run(capsys, *(argv + (["--index", index] if index else [])))
            assert code == 1
            got[index, fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == HYPOTHESIS_DIGESTS

    def test_benchmark_scale_csv_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        argv = ["hypotheses", "--upper", "300064", "--format", "csv", "--out", str(path)]
        assert run(capsys, *argv)[0] == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == HYPOTHESIS_SCALE_DIGEST

    def test_lone_top_scan_at_benchmark_scale_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        argv = ["hypotheses", "--index", "4", "--upper", "300064", "--format", "csv", "--out", str(path)]
        assert run(capsys, *argv)[0] == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == HYPOTHESIS_INDEX4_SCALE_DIGEST


# (exit code, sha256 of the --out file) of every other reporting
# subcommand, recorded before the renderers moved onto the report types.
COMMAND_DIGESTS = {
    ("sieve --limit 100", "md"): (0, "9abd78fa17a46c579c38a05c49f3eabe6571a75a0ec75c79c9a4c158c51fc1c2"),
    ("sieve --limit 100", "csv"): (0, "d72e095b5cea4044dfee6582ece943406590947f4248e7c6b11695c693ceb0f0"),
    ("sieve --limit 100", "json"): (0, "d143e9fcba7670f09ccfd8cb03a247ba9e272c5c7bbbb3c3352898433bd3bbe4"),
    ("sieve --limit 100 --list --mod4 3", "md"): (0, "c2986361d08eb156dea24e467a50e09aade14790a3623a6f3f37327102a8443f"),
    ("sieve --limit 100 --list --mod4 3", "csv"): (0, "7f5de227016e75d4aad305e124a644cb59f089c2d0d305f30df3a411196461a8"),
    ("sieve --limit 100 --list --mod4 3", "json"): (0, "688476dc3dd7b845f64c23da36d43a5a2aa3cd357d60b62df87d376bd9245328"),
    ("decompose --z 13,4 --primes kpi", "md"): (0, "defc5b5b10199caa5b828728ca02e9e9df34a72002635809e712622d91d295ec"),
    ("decompose --z 13,4 --primes kpi", "csv"): (0, "74eaf231a723eb54c852d4e04c437f0a762b234485ca9dfc87122f33799b0c0d"),
    ("decompose --z 13,4 --primes kpi", "json"): (0, "97abf5e54211f9f92539c9ca78350753b8750c21971f5d1c0f29c3ece61a4985"),
    ("decompose --z 19,16 --primes kpi --strict-norm", "md"): (0, "5a34e03efedac41a022413329f0d129efcb72921003a88fe7ceb2375a1c8daca"),
    ("decompose --z 19,16 --primes kpi --strict-norm", "csv"): (0, "977ae645824c2cdbd6b5da4ce779276fcb9e8ef32f323b1811fc8c7586de2974"),
    ("decompose --z 19,16 --primes kpi --strict-norm", "json"): (0, "b11ab395093b587115c02f8b791d61b650234e288d3cc507c97648a3e609eecf"),
    ("decompose --z 19,17 --primes kpi --chain", "md"): (0, "4643100502f8146b36ec8756fbb71066a3d49146e49729a49772cd33b2ebc261"),
    ("decompose --z 19,17 --primes kpi --chain", "csv"): (0, "4f691a3bc6929f8898c6980d717d5608c76d79c5ee3594d69ee64b67f3941ded"),
    ("decompose --z 19,17 --primes kpi --chain", "json"): (0, "e8b4dc73210279104c3b2e23b9979a461475958f8b5f07191de48f197fcbcd23"),
    ("decompose --z 5,4 --primes kpi", "md"): (0, "108af1d6c739603936536aad5c2b407dbf8a026a2bfc6677244c59f2117f5878"),
    ("decompose --z 5,4 --primes kpi", "csv"): (0, "fd25d77b017fcca89d2815bcf249c55c840b5815ee910d818e95a901e5589ced"),
    ("decompose --z 5,4 --primes kpi", "json"): (0, "5e3efc93a4a7d0b120a829e77bba42b58328eed2758f0dbdf6030df1e9953d18"),
    ("solve-thm1 --a 11 --b 3", "md"): (0, "57f831d811ba98b223b508c95befa1fdc613d5e4f0689c38aaa59726572a4924"),
    ("solve-thm1 --a 11 --b 3", "csv"): (0, "dc5b0b910afdc384fbe906f93199550e2ad68adb920f441846336a8b511e334c"),
    ("solve-thm1 --a 11 --b 3", "json"): (0, "61ab53d25d1bcdfbe6c3649fd0be34730d76a39173695a69bb57d38259661fc8"),
    ("solve-thm2 --a 9 --b 5", "md"): (0, "60a8848e597b6583300632221ec684e82fc3efa6169983ca03c8727b0d45d0d2"),
    ("solve-thm2 --a 9 --b 5", "csv"): (0, "aa528fc52f1ec41af6a24b86b1c64cbbc2f06530b399e89476d624dfa27d842a"),
    ("solve-thm2 --a 9 --b 5", "json"): (0, "8e2f649a5fc75bf5c40108c43bd3506ba2ca831d57cb06aca2257614a466acb4"),
    ("solve-conj1 --a 7 --b 4 --kmax 3", "md"): (0, "8a14214a5a33eabdd39723f0a65560f2c02686ec2098d30cb548f35ace0b4a70"),
    ("solve-conj1 --a 7 --b 4 --kmax 3", "csv"): (0, "82c7418526c5887ef63029a72a214a1bf973794187ae5c09708151b76341f961"),
    ("solve-conj1 --a 7 --b 4 --kmax 3", "json"): (0, "12a3d7724c9688616fdbb290fa9bb3fdc560040f5579016c445d1bb1b16f722b"),
    ("thm130 --n 30", "md"): (0, "6fbf151835146bca8931a0c071c99c7f8c40e988aac59d2348709e8db59b0c77"),
    ("thm130 --n 30", "csv"): (0, "ae7c8832fc2ed391c55a953519315131505ceb81f4646c871a1a8b43e0e3ada9"),
    ("thm130 --n 30", "json"): (0, "3907864203258920b3f9d26e2375abcf5a59940c76bdf5dce0b3148f9f7004e7"),
    # the benchmark's rational ops at their scale, recorded while every
    # split still listed its whole pool of primes up to n
    ("thm130 --n 1005000", "csv"): (0, "313512d8f294e8308666adee4d0fa8bb8aaedfb691fe8c1a9fef2e996a588531"),
    ("thm130 --n 1005000", "json"): (0, "0210cf348f6d866340a5f9caf9ee653294e58a4cabbce5983342029173336c0e"),
    ("solve-thm1 --a 500002 --b 1000", "csv"): (0, "9729ccb1741027a417b4f7be8883ac74575871205482cc27b447d6f0bc4a098c"),
    ("solve-thm1 --a 500002 --b 1000", "json"): (0, "5c6bc30b7695da5814ad452ae377525ad01527ff6bd16f5f0a7c4c6ee2347bb2"),
    ("solve-thm2 --a 700000 --b 5 --kmax 8", "csv"): (0, "aa7f8534ba92e9dd05d4e212aa4de80a5b4891c48889c6c3c9ee5f12d70b97a1"),
    ("solve-thm2 --a 700000 --b 5 --kmax 8", "json"): (0, "d95cf099e2fbe4eeca25981b9c935502cb8dac9086bfec09160606c62aff12ac"),
    ("tables --validate", "md"): (0, "24c859b7de0e36a602733f2235aa5c26d7b705ae30f7531e93638bd77ea755c6"),
    ("tables --validate", "csv"): (0, "0ccac89692d1599fb47b5b5c1b9f42bdcba3a0c2e1306917508cd9b9273e6aab"),
    ("tables --validate", "json"): (0, "d562d1526478cfc4458eca92327d7a2cb1d9fb00137dd97c0bf43ca1a86479a3"),
    ("tables --regenerate", "md"): (0, "222d92e5f07a90dfc3205c4e4c48d5d2874a80e34d9f88dff9c8438be29e5901"),
    ("tables --regenerate", "csv"): (0, "5c8b3f35e9fa379f9636c4927b2c61cf2cd9a9cb511e1844798b18f67f2e0288"),
    ("tables --regenerate", "json"): (0, "659dd066cc0cf5334a0c9f4a8ce7fea97899ae257667762480c1bfd40808b033"),
    # targets at the benchmark's pool scale, pool norm bounds 4.0-4.4 * 10^5,
    # recorded while every search still swept its whole pool first; the spi
    # and kpi ones follow smaller searches in their regions above, so they
    # regrow the flags of a warm pool
    ("decompose --z=598,226 --primes gammapi", "json"): (0, "966a9092b90f232448ba29715d47f3c96a781a64d129e2f34e6a8d7d3e82fbae"),
    ("decompose --z=447,-205 --primes spi", "json"): (0, "21674544fe78ba43a803d4728d756e6b00fc76d272a655791f0dfa16302ba5e8"),
    ("solve-conj1 --a 540 --b 384", "json"): (0, "4cc9fe3d4301beeebfe50078087516d26251b6b005c09b27f333fb1e6a979493"),
    # a narrow box far from the cone's corner: its pool norm bound is about
    # 4 * 10^6, and the cost gate sends every target to the search;
    # recorded while scans still swept their whole pool list first
    ("scan --targets a --re 2000..2001 --im 1..2 --primes gammapi", "json"): (0, "b76c7cc084b32b60de5020c7872dc6242abfa2b4f13ad472ee504da687e254ee"),
    # perfbench's two scan_found boxes with their origins unshifted, both
    # read off the sumsets; recorded while each witness was still walked
    # target by target. Exit 1: both boxes hold exceptions.
    ("scan --targets a --re 1..150 --im 1..150 --primes kpi", "json"): (1, "1640e68a47d99f50725b29f79cb1326f6e42c0a024848925a6dd76e58ae9fecf"),
    ("scan --targets sector --re 1..120 --im=-119..120 --primes spi --strict-norm", "csv"): (1, "5943ed8b25f5b3a8820f55f3eb04ae2d9dc26ea78f35238e6f6e28d134a5b642"),
    # perfbench's two scan_exhaust ops, the box with its origin unshifted,
    # both read off the sumsets; recorded while _sumsets still cut its
    # points to the window itself and the scan window was built from five
    # parallelogram corners. Exit 1: the box holds exceptions.
    ("obstruction --bound 90", "json"): (0, "4c9136b0436c35f10a9aa4f52ac5a516bfb0aa5ba0afdcb66978e5b1a494e611"),
    ("scan --targets a --re 1..120 --im 1..120 --primes gammapi", "json"): (1, "34ea59d6c6fc4cd49378fcb955a1df844162babc954823ac96d7851b545580d2"),
    # the same box in the two other formats, over half its rows exceptions;
    # recorded while each writer still made every row's witness text before
    # its first line, and wrote each exception's text twice
    ("scan --targets a --re 1..120 --im 1..120 --primes gammapi", "md"): (1, "0a24395e214def4292e58dd0d402e3a9b579d38effd068ba324ba49085b3b6fb"),
    ("scan --targets a --re 1..120 --im 1..120 --primes gammapi", "csv"): (1, "b6a17a968c36915784c91edbbb97b87780f69a76f93226c44bc43e3f609dfffd"),
    # tiny boxes by the cone's corner, every target an exception: 1+i alone
    # into gammapi, whose largest cap is 1, and a strict kpi box of targets
    # below norm 8; recorded while a second rule still cut targets below
    # norm 8 from the live runs
    ("scan --targets a --re 1..1 --im 1..1 --primes gammapi", "json"): (1, "2057b74b6722e648cfe2559dfb5b65d81019f00760bdc9967be9b8132c507533"),
    ("scan --targets quadrant --re 1..2 --im 0..1 --primes kpi --strict-norm", "csv"): (1, "140376d8e4025d95f41b0b8a4991a05ed27ed87ddd693b6b3908b3c3fbe27f64"),
    # a strict spi box whose targets sit on both sides of the norm cut: the
    # imaginary axis, where caps fall below the norm, next to targets whose
    # caps pass it; recorded while the strict cut was still walked target
    # by target and md and csv each had a row loop of its own
    ("scan --targets spi --re 0..30 --im=-29..30 --primes spi --strict-norm", "md"): (1, "bf3f10b4d0dd4c77241b660d21b779e67f406c217045dcd11c35186e8fafa4a1"),
    ("scan --targets spi --re 0..30 --im=-29..30 --primes spi --strict-norm", "csv"): (1, "664cd201e57d2da4aea2499035dbf2c0df59ed281f44600746af94d8fdd29f1d"),
}


class TestCommandDigests:
    def test_reports_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        # the sieve summary names the cache file
        monkeypatch.delenv("SHNIREL_CACHE", raising=False)
        path = tmp_path / "report"
        got = {}
        for command, fmt in COMMAND_DIGESTS:
            argv = command.split() + ["--format", fmt, "--out", str(path)]
            path.unlink(missing_ok=True)
            code, out, _ = run(capsys, *argv)
            assert out == ""
            got[command, fmt] = (code, hashlib.sha256(path.read_bytes()).hexdigest())
        assert got == COMMAND_DIGESTS


class TestObstruction:
    def test_holds(self, capsys):
        code, out, err = run(
            capsys, "obstruction", "--bound", "20", "--max-terms", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == "k,count,min_gap\n1,102,1\n2,187,2\n3,165,3\n"
        assert err == "bound 20: inequality holds"

    def test_tiny_bound_exits_two(self, capsys):
        code, _, _ = run(capsys, "obstruction", "--bound", "1")
        assert code == 2

    def test_huge_bound_exits_two(self, capsys):
        for bound in ("501", "100000"):
            code, out, err = run(capsys, "obstruction", "--bound", bound)
            assert code == 2
            assert out == ""
            assert err == "bound is capped at 500"


class TestHypotheses:
    def test_all_four_summary(self, capsys):
        code, _, err = run(capsys, "hypotheses", "--upper", "200")
        # the residue classes always carry their small exceptions
        assert code == 1
        assert err == (
            "hypothesis 1: c0 candidate 6; hypothesis 2: c0 candidate 9; "
            "hypothesis 3: c0 candidate 12; hypothesis 4: c0 candidate 15"
        )

    def test_single_index_csv(self, capsys):
        code, out, _ = run(
            capsys, "hypotheses", "--index", "1", "--upper", "20", "--format", "csv"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "n,residue,k,witness"
        assert lines[1] == "2,2,2,EMPTY"
        assert lines[2] == "6,2,2,3+3"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "hypotheses", "--index", "3", "--upper", "40", "--format", "json"
        )
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["exceptions"] == [4, 8]

    def test_index_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["hypotheses", "--index", "7", "--upper", "100"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("upper", ["1000001", "1000000000"])
    def test_upper_cap_exits_two_before_sieving(self, capsys, monkeypatch, upper):
        """--upper 10^6 peaks near 67 MiB in CSV and 414 MiB in JSON, whose
        encoder holds every row: a larger bound is refused before any sieve
        is built."""

        def sieving(*args):
            raise AssertionError("a sieve was built")

        monkeypatch.setattr(ratdecomp, "_flags", bytearray())
        monkeypatch.setattr(primes, "_sieve_flags", sieving)
        code, out, err = run(capsys, "hypotheses", "--upper", upper)
        assert code == 2
        assert out == ""
        assert err == f"scan bound {upper} is above the cap of 1000000"


class TestThm130:
    def test_chain_csv(self, capsys):
        code, out, err = run(capsys, "thm130", "--n", "30", "--format", "csv")
        assert code == 0
        assert out == "n,m,witness\n30,6,11+7+3+3+3+3\n"
        assert err == "30: 6 primes of the form 4t+3"

    def test_below_threshold_exits_two(self, capsys):
        code, _, _ = run(capsys, "thm130", "--n", "17")
        assert code == 2
        code, _, _ = run(capsys, "thm130", "--n", "25", "--c0", "20")
        assert code == 2

    def test_c0_below_nine_exits_two_before_sieving(self, capsys, monkeypatch):
        """Below c0 = 9 the threshold drops under 18, where stripping three
        3s can leave a remainder below 9 (10 - 9 = 1): a bad argument, not
        a refuted hypothesis. It exits 2 before any sieve; c0 = 9 runs."""

        def sieving(*args):
            raise AssertionError("a sieve ran")

        with monkeypatch.context() as patched:
            patched.setattr(ratdecomp, "_flags", bytearray())
            patched.setattr(primes, "_sieve_flags", sieving)
            code, out, err = run(capsys, "thm130", "--n", "10", "--c0", "0")
        assert (code, out, err) == (2, "", "c0 must be at least 9, got 0")
        code, out, err = run(capsys, "thm130", "--n", "18", "--c0", "9", "--format", "csv")
        assert code == 0
        assert out == "n,m,witness\n18,6,3+3+3+3+3+3\n"

    @pytest.mark.parametrize("base", [(15, 11, 3), (13, 11, 5), (11, 7, 3)])
    def test_a_wrong_split_exits_two_with_no_report(self, capsys, monkeypatch, base):
        """The chain is checked by Miller-Rabin, not the sieve flags that
        split it: a split of 29 with a composite term, with terms 1 mod 4,
        or with terms that sum to 21 exits 2 and writes nothing."""
        monkeypatch.setattr(ratdecomp, "split_into_residue34_primes", lambda n, k: base)
        code, out, err = run(capsys, "thm130", "--n", "29", "--format", "csv")
        assert (code, out) == (2, "")
        assert err == f"29 = {'+'.join(map(str, base))} fails the chain check"


class TestSieveCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("thm130", "--n", "10000000000"),
            ("sieve", "--limit", "1000000000"),
        ],
    )
    def test_oversized_sieve_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "is above the cap of 100000000" in err


class TestPoolCap:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        """Fail the test on any sieve, flag build or pool sweep."""

        def allocating(*args):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(primes, "_POOL_CACHE", {})
        monkeypatch.setattr(primes, "_shared_flags", bytearray())
        monkeypatch.setattr(primes, "_prime_norm_flags", allocating)
        monkeypatch.setattr(primes, "_pool_annulus", allocating)
        monkeypatch.setattr(primes, "_sieve_flags", allocating)

    @pytest.mark.parametrize("z", ["9999,1", "100000,1"])
    def test_oversized_pool_exits_two_before_building(self, capsys, no_pool, z):
        """9999+i needs a kpi pool to norm 9.998 * 10^7, about 1.4 GB."""
        code, out, err = run(capsys, "decompose", "--z", z, "--primes", "kpi")
        assert code == 2
        assert out == ""
        assert "is above the cap of 10000000" in err
        assert "Traceback" not in err

    def test_chain_shift_search_exits_two_before_building(self, capsys, no_pool):
        """9999+i is even with im < 4, so the chain sheds 3 and the pool
        it would need is the one for 9996+i."""
        code, out, err = run(capsys, "decompose", "--z", "9999,1", "--primes", "kpi", "--chain")
        assert code == 2
        assert out == ""
        assert err == "pool norm bound 99920018 is above the cap of 10000000"

    def test_oversized_target_list_raises_before_building(self, no_pool):
        """scan_box caps its sides at 500; a target list given directly
        to scan_targets is capped at the same 250 000 targets."""
        z = GaussianInt(3, 2)
        with pytest.raises(ValueError, match="target count 250001 is above the cap of 250000"):
            gaussdecomp.scan_targets([z] * 250_001, Region.PRIME_QUADRANT, 3)
        # at the cap the scan goes on to build its pool
        with pytest.raises(AssertionError, match="a pool was built"):
            gaussdecomp.scan_targets([z] * 250_000, Region.PRIME_QUADRANT, 3)


class TestTables:
    def test_validate_default(self, capsys):
        code, out, err = run(capsys, "tables")
        assert code == 0
        assert out == "102 rows, 0 failures\n"
        assert err == "rows: 102 passed, 0 failed, 2 annotated typos"

    def test_validate_json(self, capsys):
        code, out, _ = run(capsys, "tables", "--validate", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"total": 102, "ok": True, "failures": []}

    def test_regenerate(self, capsys):
        code, out, err = run(capsys, "tables", "--regenerate")
        assert code == 0
        assert out == "102 rows, 102 regenerated, 6 match the stored witnesses\n"
        assert err == "rows: 102, regenerated: 102, failures: 0"

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["tables", "--validate", "--regenerate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOutputPlumbing:
    def test_out_file_replaces_stdout(self, capsys, tmp_path):
        path = tmp_path / "dec.json"
        code, out, _ = run(
            capsys, "decompose", "--z", "8", "--strict-norm", "--max-terms", "2",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        data = json.loads(path.read_text())
        assert [t["summand"] for t in data["terms"]] == ["6+i", "2-i"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm130", "--n", "30"),
            ("scan", "--targets", "a", "--re", "1..6", "--im", "1..6", "--primes", "kpi"),
        ],
    )
    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_exits_two(self, capsys, monkeypatch, tmp_path, argv, where):
        """Exit 1 means a negative outcome, so an --out that cannot be
        opened is a usage error, found before the command runs."""

        def never(args):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", never)
        out_path = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, *argv, "--format", "json", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert str(out_path) in err
        assert "Traceback" not in err

    def test_scan_into_a_directory_exits_two_before_scanning(self, capsys, monkeypatch, tmp_path):
        """The real cmd_scan runs only when --out can be written: a
        directory exits 2 before the box is listed or scanned."""

        def never(*args):
            raise AssertionError("the scan ran before --out was checked")

        monkeypatch.setattr(gaussdecomp, "_box_keys", never)
        monkeypatch.setattr(gaussdecomp, "_scan", never)
        argv = ["scan", "--targets", "a", "--re", "1..150", "--im", "1..150", "--primes", "kpi"]
        code, out, err = run(capsys, *argv, "--format", "json", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert str(tmp_path) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_command_leaves_out_as_it_was(self, capsys, tmp_path):
        """--out is checked without truncating it; a command that fails,
        or that finds nothing to report, leaves an existing file's bytes
        alone and creates no new file."""
        failures = [
            (("decompose", "--z", "9999,1", "--primes", "kpi"), 2, "above the cap"),
            (("decompose", "--z", "2,2", "--primes", "gammapi"), 1, "no decomposition"),
        ]
        for argv, want_code, want_err in failures:
            kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
            kept.write_text("old bytes\n")
            for path in (kept, fresh):
                code, out, err = run(capsys, *argv, "--out", str(path))
                assert (code, out) == (want_code, "")
                assert want_err in err
            assert kept.read_text() == "old bytes\n"
            assert not fresh.exists()

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            "sieve --limit 100",
            "decompose --z 13,4 --primes kpi",
            "solve-thm1 --a 11 --b 3",
            "solve-thm2 --a 9 --b 5",
            "solve-conj1 --a 7 --b 4 --kmax 3",
            "scan --targets a --re 1..6 --im 1..6 --primes kpi",
            "obstruction --bound 20 --max-terms 3",
            "hypotheses --upper 60",
            "thm130 --n 30",
            "tables --validate",
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, monkeypatch, argv, fmt):
        """One writer for every command: --out gets exactly the bytes that
        stdout would, and stderr gets one summary line either way."""
        monkeypatch.delenv("SHNIREL_CACHE", raising=False)
        argv = [*argv.split(), "--format", fmt]
        code = entry(argv)
        shown = capsys.readouterr()
        path = tmp_path / "report"
        assert entry([*argv, "--out", str(path)]) == code
        written = capsys.readouterr()
        assert written.out == ""
        assert path.read_bytes() == shown.out.encode()
        assert shown.out
        for err in (shown.err, written.err):
            assert err.endswith("\n") and err.count("\n") == 1
        assert written.err == shown.err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_console_script_smoke(self):
        if shutil.which("shnirel"):
            argv = ["shnirel"]
        else:
            argv = [sys.executable, "-m", "shnirel.cli"]
        proc = subprocess.run(
            argv + ["thm130", "--n", "30", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "n,m,witness\n30,6,11+7+3+3+3+3\n"
        assert proc.stderr.strip() == "30: 6 primes of the form 4t+3"
