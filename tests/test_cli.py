import json
import os
import subprocess
import sys
import time

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import khbn.cli as cli
from khbn.homology import ModuleDecomp
from khbn.laurent import Laurent
from khbn.linkdiag import kauffman_jones

TREFOIL = "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"


def run(*args, **kw):
    return CliRunner().invoke(cli.main, list(args), **kw)


def test_compute_json_golden_trefoil():
    r = run("compute", "--name", "trefoil_L", "--invariant", "bn2",
            "--format", "json")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.stdout)
    assert rep["schema_version"] == 1
    assert rep["invariant"] == "bn2" and rep["k"] == 2
    assert rep["diagram"]["crossings"] == 3
    assert rep["diagram"]["writhe"] == -3
    assert rep["decomposition"] == {
        "-3,-11": {"1": 1}, "-3,-9": {"1": 1},
        "-2,-7": {"1": 1}, "-2,-5": {"1": 1},
        "0,-3": {"2": 1}, "0,-1": {"2": 1},
    }
    assert rep["total_dimension"] == 8
    assert rep["euler"] == "-q^-11 - q^-9 + q^-7 + 2*q^-5 + 2*q^-3 + q^-1"


def test_compute_reduced_needs_no_explicit_basepoint():
    r = run("compute", "--pd", TREFOIL, "--invariant", "bn2", "--reduced",
            "--format", "json")
    assert r.exit_code == 0, r.output
    rep = json.loads(r.stdout)
    assert rep["reduced"] is True
    assert rep["basepoint"] == 1
    assert rep["decomposition"] == {
        "-3,-9": {"1": 1}, "-2,-5": {"1": 1}, "0,-1": {"2": 1}}


def test_compute_table_and_poincare_formats():
    r = run("compute", "--name", "unknot", "--invariant", "bn2",
            "--format", "table")
    assert r.exit_code == 0
    assert "F2[u]/u^2" in r.stdout
    r = run("compute", "--name", "unknot", "--invariant", "kh",
            "--format", "poincare")
    assert r.exit_code == 0
    assert r.stdout.splitlines()[0] == "q^-1 + q^1"


def test_compute_bnk_wants_k():
    assert run("compute", "--name", "unknot", "--invariant", "bnk").exit_code == 2
    r = run("compute", "--name", "unknot", "--invariant", "bnk", "--k", "4",
            "--format", "json")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["k"] == 4
    # fixed-order invariants refuse an explicit k
    assert run("compute", "--name", "unknot", "--invariant", "kh",
               "--k", "3").exit_code == 2


def test_compute_output_is_deterministic():
    args = ("compute", "--name", "figure8", "--invariant", "bn3",
            "--format", "json")
    assert run(*args).stdout == run(*args).stdout


def test_compute_braid_matches_pd():
    a = run("compute", "--braid", "-1 -1 -1", "--strands", "2",
            "--invariant", "bn2", "--format", "json")
    b = run("compute", "--pd", TREFOIL, "--invariant", "bn2",
            "--format", "json")
    assert a.exit_code == 0 and b.exit_code == 0
    da = json.loads(a.stdout)["decomposition"]
    db = json.loads(b.stdout)["decomposition"]
    assert da == db


def test_compute_cache_roundtrip(tmp_path, monkeypatch):
    args = ("compute", "--name", "knot_5_2", "--invariant", "bn2",
            "--format", "json", "--cache-dir", str(tmp_path))
    cold = run(*args)
    assert cold.exit_code == 0
    (entry,) = tmp_path.iterdir()
    written = entry.read_bytes()
    warm = run(*args)
    assert warm.exit_code == 0
    assert warm.stdout == cold.stdout
    assert "cache hit" in warm.stderr
    # a corrupt entry is a miss, and the recomputed barcode replaces it
    entry.write_text("{not json")
    again = run(*args)
    assert again.exit_code == 0, again.output
    assert again.stdout == cold.stdout
    assert "cache hit" not in again.stderr
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
    assert entry.read_bytes() == written
    assert "cache hit" in run(*args).stderr
    # the key carries the package version
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    other = run(*args)
    assert other.exit_code == 0
    assert "cache hit" not in other.stderr
    assert len(list(tmp_path.iterdir())) == 2
    # a cache directory that cannot be created costs only the write
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    r = run(*args[:-1], str(blocker))
    assert r.exit_code == 0, r.output
    assert r.stdout == cold.stdout
    assert "cache not written" in r.stderr


def _count_builds(monkeypatch):
    calls = []
    build = cli.build_complex

    def counted(D, *args):
        calls.append(args)
        return build(D, *args)

    monkeypatch.setattr(cli, "build_complex", counted)
    return calls


def test_unreduced_compute_builds_the_reduced_cube_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    r = run("compute", "--name", "knot_5_2", "--invariant", "bn2")
    assert r.exit_code == 0, r.output
    # one build, reduced at the lowest arc
    assert calls == [(1,)]


FLAVOURS = (["--invariant", "kh"], ["--invariant", "bn2"],
            ["--invariant", "bnk", "--k", "3"], ["--invariant", "bn2", "--reduced"])


def test_one_cache_entry_serves_every_flavour(tmp_path, monkeypatch):
    """kh, bn2, bnk 3 and reduced bn2 of one diagram are all read off one
    cached barcode: one build, one entry, the uncached outputs."""
    base = ("compute", "--name", "figure8")
    plain = [run(*base, *f).stdout for f in FLAVOURS]
    calls = _count_builds(monkeypatch)
    for f, want in zip(FLAVOURS, plain):
        r = run(*base, *f, "--cache-dir", str(tmp_path))
        assert r.exit_code == 0, r.output
        assert r.stdout == want
    assert len(calls) == 1
    assert len(list(tmp_path.iterdir())) == 1


def test_wrong_shaped_cache_entry_is_a_miss(tmp_path):
    """Valid JSON of the wrong shape, or JSON nested past the parser's
    recursion limit, is a miss in every format: the output is the uncached
    one and the entry is rewritten."""
    base = ("compute", "--name", "trefoil_L", "--invariant", "bn2")
    assert run(*base, "--cache-dir", str(tmp_path)).exit_code == 0
    (entry,) = tmp_path.iterdir()
    written = entry.read_bytes()
    for bad in ('{}', '{"schema_version": 1}',
                '{"free": [["0", "-1"]], "pairs": []}', "[" * 100000):
        for fmt in ("json", "table", "poincare"):
            want = run(*base, "--format", fmt)
            entry.write_text(bad)
            r = run(*base, "--format", fmt, "--cache-dir", str(tmp_path))
            assert r.exit_code == 0, (bad, fmt, r.output)
            assert r.stdout == want.stdout, (bad, fmt)
            assert "cache hit" not in r.stderr
            assert entry.read_bytes() == written


def test_compute_brcover_e2():
    r = run("compute", "--name", "trefoil_L", "--invariant", "brcover-e2",
            "--format", "json")
    assert r.exit_code == 0
    rep = json.loads(r.stdout)
    assert rep["decomposition"] == {
        "0,-9": {"1": 1}, "1,-5": {"1": 1}, "3,-1": {"2": 1}}
    # flags that make no sense for the model are refused
    assert run("compute", "--name", "trefoil_L", "--invariant", "brcover-e2",
               "--reduced").exit_code == 2


def test_bnk_euler_at_large_k():
    """The Euler characteristic is summed once over the bidegrees, so a
    large truncation order stays cheap; it is (1 + ... + q^-2(k-1)) V."""
    k = 20000
    t0 = time.perf_counter()
    r = run("compute", "--name", "trefoil_L", "--invariant", "bnk", "--k", str(k))
    assert time.perf_counter() - t0 < 5
    assert r.exit_code == 0, r.output
    expect = kauffman_jones(cli._load_entry("trefoil_L")) * Laurent(
        {-2 * s: 1 for s in range(k)})
    assert json.loads(r.stdout)["euler"] == cli._laurent_text(expect)


def test_malformed_inputs_exit_2():
    assert run("compute", "--pd", "PD[X(1,2,3)]",
               "--invariant", "kh").exit_code == 2
    assert run("compute", "--pd", "PD[]", "--invariant", "kh").exit_code == 2
    assert run("compute", "--braid", "1 0 1", "--strands", "2",
               "--invariant", "kh").exit_code == 2
    assert run("compute", "--name", "no_such_link",
               "--invariant", "kh").exit_code == 2
    assert run("compute", "--pd", TREFOIL, "--name", "unknot",
               "--invariant", "kh").exit_code == 2
    assert run("compute", "--invariant", "kh").exit_code == 2
    assert run("compute", "--pd", TREFOIL, "--invariant", "kh",
               "--basepoint", "1").exit_code == 2
    assert run("compute", "--name", "unknot", "--invariant", "kh",
               "--jobs", "2").exit_code == 2
    for jobs in ("0", "-3"):
        r = run("verify", "euler", "--all-table", "--max-crossings", "3",
                "--jobs", jobs)
        assert r.exit_code == 2, (jobs, r.output)
        assert "No such option" in r.output
    # a strand count far beyond memory fails before anything per strand
    assert run("compute", "--braid", "1", "--strands", "100000000000",
               "--invariant", "kh").exit_code == 2
    # a negative bound would skip every entry and pass with nothing run
    r = run("verify", "euler", "--all-table", "--max-crossings", "-1")
    assert r.exit_code == 2, r.output
    assert "--max-crossings must be a non-negative integer" in r.output
    # a marked arc the diagram does not have
    braid = ("--braid", "1,1,1", "--strands", "2")
    for args in (("verify", "triangle", "--reduced", *braid),
                 ("verify", "sseq", "--reduced", *braid),
                 ("verify", "triangle", "--reduced", "--all-table"),
                 ("verify", "sseq", "--reduced", "--all-table"),
                 ("verify", "brcover", *braid),
                 ("compute", "--invariant", "brcover-e2", *braid),
                 ("compute", "--invariant", "kh", "--reduced", *braid),
                 ("sseq", "--reduced", *braid)):
        r = run(*args, "--basepoint", "99")
        assert r.exit_code == 2, (args, r.output)
        assert "arc 99 does not occur in the diagram" in r.output, args
    # a marked arc where no marked arc is read, as compute refuses one
    # without --reduced
    for args in (("sseq", *braid),
                 ("verify", "euler", *braid),
                 ("verify", "splitting", *braid),
                 ("verify", "basepoint", *braid),
                 ("verify", "triangle", *braid),
                 ("verify", "sseq", *braid),
                 ("verify", "euler", "--all-table"),
                 ("verify", "reidemeister", "--name", "trefoil_L"),
                 ("verify", "reidemeister", "--all-table", "--reduced")):
        for arc in ("1", "99"):
            r = run(*args, "--basepoint", arc)
            assert r.exit_code == 2, (args, arc, r.output)
            assert "--basepoint" in r.output, (args, arc)
    # --reduced where no marked arc is read, as compute --invariant
    # brcover-e2 refuses it
    for args in (("verify", "euler", *braid),
                 ("verify", "splitting", *braid),
                 ("verify", "basepoint", *braid),
                 ("verify", "brcover", *braid),
                 ("verify", "euler", "--all-table", "--max-crossings", "3")):
        r = run(*args, "--reduced")
        assert r.exit_code == 2, (args, r.output)
        assert "--reduced does not apply" in r.output, args


@st.composite
def pd_codes(draw):
    """PD[...] with n <= 5 crossings and every label used twice, in any
    arrangement, planar or not, in one or more components."""
    n = draw(st.integers(1, 5))
    labels = draw(st.permutations([a for a in range(1, 2 * n + 1)
                                   for _ in (0, 1)]))
    quads = [labels[4 * c:4 * c + 4] for c in range(n)]
    return ("--pd", "PD[" + ", ".join(
        "X({},{},{},{})".format(*q) for q in quads) + "]")


free_text = st.one_of(st.text(), st.text().map("PD[".__add__)).map(
    lambda text: ("--pd", text))


braid_words = st.tuples(
    st.lists(st.integers(-4, 4), max_size=6),
    st.integers(0, 5)).map(lambda ws: (
        "--braid", ",".join(map(str, ws[0])), "--strands", str(ws[1])))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(pd_codes(), free_text, braid_words),
       st.sampled_from([("--invariant", "kh"),
                        ("--invariant", "bn2", "--reduced"),
                        ("--invariant", "brcover-e2")]))
def test_any_diagram_ends_with_an_exit_status(diagram, invariant):
    r = run("compute", *diagram, *invariant)
    assert r.exit_code in (0, 2, 3), (diagram, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        (diagram, repr(r.exception))


def test_resource_guard_exit_3(monkeypatch):
    """Above 14 crossings every command exits 3 before any build."""
    def no_build(*args):
        raise AssertionError("a build ran past the crossing guard")

    monkeypatch.setattr(cli, "build_complex", no_build)
    monkeypatch.setattr(cli, "build_e1_complex", no_build)
    big = ("--braid", " ".join(["1"] * 15), "--strands", "2")
    for args in (("compute", *big, "--invariant", "kh"),
                 ("compute", *big, "--invariant", "brcover-e2"),
                 ("sseq", *big),
                 ("verify", "euler", *big)):
        r = run(*args)
        assert r.exit_code == 3, (args, r.output)
        assert r.stderr == "refused: 15 crossings; rerun with --force\n", args


def test_verify_single_and_table():
    assert run("verify", "euler", "--pd", TREFOIL).exit_code == 0
    assert run("verify", "triangle", "--name", "hopf_pos").exit_code == 0
    assert run("verify", "splitting", "--name", "figure8", "--k", "3").exit_code == 0
    assert run("verify", "basepoint", "--name", "trefoil_L").exit_code == 0
    assert run("verify", "brcover", "--name", "kink_neg").exit_code == 0
    assert run("verify", "sseq", "--name", "trefoil_L").exit_code == 0
    r = run("verify", "euler", "--all-table", "--max-crossings", "4")
    assert r.exit_code == 0, r.output
    assert "15 run, all passed" in r.output


def test_verify_parses_each_diagram_once(monkeypatch):
    """Each check runs on the diagram the command parsed: one parse per
    request, per table entry, or per distinct name of the same-link pairs."""
    calls = []
    for fn in ("parse_pd", "from_braid"):
        def counted(*args, _fn=getattr(cli, fn)):
            calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(cli, fn, counted)

    def parses(*args):
        calls.clear()
        r = run(*args)
        assert r.exit_code == 0, (args, r.output)
        return len(calls)

    assert parses("verify", "euler", "--name", "trefoil_L") == 1
    assert parses("verify", "euler", "--braid", "1,1,1", "--strands", "2") == 1
    entries = len(cli.load_link_table())
    assert parses("verify", "euler", "--all-table", "--max-crossings", "3") == entries
    names = {nm for pair in cli.SAME_LINK_PAIRS for nm in pair}
    assert parses("verify", "reidemeister", "--all-table") == len(names)
    assert parses("verify", "reidemeister", "--all-table",
                  "--max-crossings", "4") == len(names)


def test_cli_import_starts_no_process_machinery():
    code = ("import sys, khbn.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[]\n"


def test_verify_reidemeister_pairs():
    r = run("verify", "reidemeister", "--all-table")
    assert r.exit_code == 0, r.output
    assert "trefoil_L ~ trefoil_L_kink" in r.output
    r = run("verify", "reidemeister", "--name", "figure8")
    assert r.exit_code == 0
    assert "figure8 ~ knot_4_1" in r.output


def test_verify_flags_a_false_pair(monkeypatch):
    monkeypatch.setattr(cli, "SAME_LINK_PAIRS", [("trefoil_L", "figure8")])
    r = run("verify", "reidemeister", "--all-table")
    assert r.exit_code == 1
    assert "counterexample" in r.output


def test_verify_splitting_compares_modules(monkeypatch):
    """Trading each reduced tower for copies of F2 keeps every F2
    dimension; the module-level check still fails, at the lowest bidegree
    where the two modules differ."""
    build, read = cli.build_complex, cli.bigraded_homology
    marked = []  # the complexes built at a marked arc

    def built(D, basepoint=None, *rest):
        C = build(D, basepoint, *rest)
        if basepoint is not None:
            marked.append(C)
        return C

    def flattened(C, k, *rest):
        M = read(C, k, *rest)
        if not any(C is R for R in marked):
            return M
        return ModuleDecomp(k, {bd: {1: d} for bd, d in M.f2_dimensions().items()})

    monkeypatch.setattr(cli, "build_complex", built)
    monkeypatch.setattr(cli, "bigraded_homology", flattened)
    r = run("verify", "splitting", "--name", "trefoil_L")
    assert r.exit_code == 1
    assert "FAIL trefoil_L: module mismatch at (0, -5)" in r.output


def test_sseq_output():
    r = run("sseq", "--name", "trefoil_L", "--reduced", "--basepoint", "1")
    assert r.exit_code == 0, r.output
    assert "quantum -7: stabilizes at r=2" in r.output
    assert "E_2: total=0" in r.output
    assert "E_inf vs gr(H): ok" in r.output


def test_sseq_checks_barcode_pages(monkeypatch):
    """The E_inf = gr check reads gr(H) from cycle spans, not from the
    barcode: a read-off that loses one E_inf element must be caught."""
    read_off = cli.u_adic_pages

    def drop_one(*args):
        tables = read_off(*args)
        einf = next(P.einfty() for P in tables.values() if P.einfty())
        key = next(iter(einf))
        einf[key] -= 1
        return tables

    monkeypatch.setattr(cli, "u_adic_pages", drop_one)
    assert run("verify", "sseq", "--name", "trefoil_L").exit_code == 1
    r = run("sseq", "--name", "trefoil_L")
    assert r.exit_code == 1
    assert "MISMATCH" in r.output


def test_help_screens():
    assert run("--help").exit_code == 0
    for sub in ("compute", "verify", "sseq"):
        r = run(sub, "--help")
        assert r.exit_code == 0
        assert "Options" in r.output
    r = run("--version")
    assert r.exit_code == 0
    assert r.output.rstrip().endswith("version 0.1.0")
