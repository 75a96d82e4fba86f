"""Command line front end.

Three subcommands:

    khbn compute   invariant of one diagram, emitted as json / table / poincare
    khbn verify    structural checks on one diagram or on the bundled table
    khbn sseq      page-by-page dump of the u-adic filtration

A diagram is selected with exactly one of --pd, --braid/--strands, or
--name (an entry of the bundled link table).

Exit status: 0 on success, 1 when a verification fails (the offending
position is printed), 2 on malformed input, 3 when the crossing-count
guard refuses to start (rerun with --force).
"""

import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import click

from . import __version__
from .brcover import build_e1_complex, verify_theorem_main
from .homology import (_barcode, bigraded_homology, euler_characteristic,
                       verify_triangle)
from .khcube import build_complex
from .laurent import Laurent
from .linkdiag import (Diagram, DiagramError, from_braid, kauffman_jones,
                       load_link_table, parse_pd, render)
from .sseq import u_adic_filtration, u_adic_pages, verify_einfty_gr

SCHEMA_VERSION = 1

_K_OF_INVARIANT = {"kh": 1, "bn2": 2, "bn3": 3}

# Table entries presenting the same link; used by `verify reidemeister`.
SAME_LINK_PAIRS: List[Tuple[str, str]] = [
    ("unknot", "kink_pos"),
    ("unknot", "kink_neg"),
    ("unknot", "unknot_r2"),
    ("trefoil_L", "trefoil_L_kink"),
    ("figure8", "knot_4_1"),
    ("figure8", "figure8_stab"),
    ("hopf_pos", "hopf_pos_stab"),
]


def _load_entry(name: str) -> Diagram:
    table = load_link_table()
    if name not in table:
        known = ", ".join(sorted(table))
        raise click.UsageError(f"unknown table entry {name!r}; bundled entries: {known}")
    pd_text, comps = table[name]
    D = parse_pd(pd_text)
    if D.component_count != comps:
        raise AssertionError(f"table entry {name} declares {comps} components,"
                             f" diagram has {D.component_count}")
    return D


def _parse_braid_word(word: str) -> List[int]:
    letters = []
    for tok in word.replace(",", " ").split():
        if not tok:
            continue
        try:
            v = int(tok)
        except ValueError:
            raise click.UsageError(f"braid word letter {tok!r} is not an integer")
        if v == 0:
            raise click.UsageError("braid word letters are nonzero (0 names no generator)")
        letters.append(v)
    return letters


def _resolve_diagram(pd: Optional[str], braid: Optional[str],
                     strands: Optional[int], name: Optional[str]) -> Diagram:
    picked = [x for x in (pd, braid, name) if x is not None]
    if len(picked) != 1:
        raise click.UsageError("pick exactly one of --pd, --braid, --name")
    try:
        if pd is not None:
            return parse_pd(pd)
        if braid is not None:
            if strands is None:
                raise click.UsageError("--braid requires --strands")
            return from_braid(_parse_braid_word(braid), strands)
        return _load_entry(name)
    except DiagramError as e:
        raise click.UsageError(str(e))


def _diagram_hash(D: Diagram) -> str:
    return hashlib.sha256(render(D).encode()).hexdigest()


def _default_basepoint(D: Diagram, basepoint: Optional[int]) -> int:
    """The marked arc: basepoint, or the lowest arc label when it is None.
    A usage error when D has no such arc."""
    if basepoint is None:
        return D.arcs[0]
    if basepoint not in D.arcs:
        raise click.UsageError(f"arc {basepoint} does not occur in the diagram")
    return basepoint


def _too_large(D: Diagram, force: bool) -> bool:
    """The crossing-count guard: the full cube has 2^n states, so a
    diagram above 14 crossings is refused unless --force lifts the guard."""
    return D.n > 14 and not force


def _refuse_if_too_large(D: Diagram, force: bool) -> None:
    """Exit 3 when the guard refuses D; called before any build."""
    if _too_large(D, force):
        click.echo(f"refused: {D.n} crossings; rerun with --force", err=True)
        sys.exit(3)


def _poincare_text(f2: Dict[Tuple[int, int], int]) -> str:
    if not f2:
        return "0"
    terms = []
    for (i, j) in sorted(f2):
        parts = []
        if f2[(i, j)] != 1:
            parts.append(str(f2[(i, j)]))
        if i != 0:
            parts.append(f"t^{i}")
        parts.append(f"q^{j}")
        terms.append("*".join(parts))
    return " + ".join(terms)


def _laurent_text(p: Laurent) -> str:
    pairs = p.to_pairs()
    if not pairs:
        return "0"
    out = []
    for exp, c in pairs:
        mag = abs(c)
        body = f"q^{exp}" if mag == 1 else f"{mag}*q^{exp}"
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def _invariant_report(D: Diagram, invariant: str, k: int, reduced: bool,
                      basepoint: Optional[int], decomp) -> dict:
    f2 = decomp.f2_dimensions()
    return {
        "schema_version": SCHEMA_VERSION,
        "diagram": {
            "pd": render(D),
            "sha256": _diagram_hash(D),
            "crossings": D.n,
            "writhe": D.writhe,
            "components": D.component_count,
        },
        "invariant": invariant,
        "k": k,
        "reduced": reduced,
        "basepoint": basepoint,
        "decomposition": decomp.to_json(),
        "f2_dimensions": {f"{i},{j}": d for (i, j), d in sorted(f2.items())},
        "total_dimension": decomp.total_dimension(),
        "poincare": _poincare_text(f2),
        "euler": _laurent_text(euler_characteristic(decomp)),
    }


def _dump_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _summand_name(t: int, mult: int) -> str:
    base = "F2" if t == 1 else f"F2[u]/u^{t}"
    if mult == 1:
        return base
    return f"({base})^{mult}" if t > 1 else f"F2^{mult}"


def _print_table(report: dict) -> None:
    d = report["diagram"]
    click.echo(f"pd: {d['pd']}")
    flavour = "reduced" if report["reduced"] else "unreduced"
    bp = report["basepoint"]
    extra = f", basepoint {bp}" if bp is not None else ""
    click.echo(f"invariant: {report['invariant']} (k={report['k']}, {flavour}{extra})")
    click.echo(f"crossings: {d['crossings']}  writhe: {d['writhe']}"
               f"  components: {d['components']}")
    click.echo(f"total F2-dimension: {report['total_dimension']}")
    rows = []
    arrows = []
    for key in sorted(report["decomposition"],
                      key=lambda s: tuple(int(x) for x in s.split(","))):
        i, j = (int(x) for x in key.split(","))
        for t_str, mult in sorted(report["decomposition"][key].items(),
                                  key=lambda kv: int(kv[0])):
            t = int(t_str)
            rows.append((f"({i}, {j})", _summand_name(t, mult)))
            if t > 1:
                chain = " -> ".join(f"({i},{j - 2 * s})" for s in range(t))
                arrows.append(chain)
    width = max((len(r[0]) for r in rows), default=8)
    click.echo(f"{'(i, j)':<{width}}  summand")
    for pos, summand in rows:
        click.echo(f"{pos:<{width}}  {summand}")
    for chain in arrows:
        click.echo(f"u-tower: {chain}")
    click.echo(f"poincare: {report['poincare']}")
    click.echo(f"euler: {report['euler']}")


def _int_rows(rows, width: int) -> bool:
    return isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == width
        and all(type(x) is int for x in r) for r in rows)


def _read_cache(path: str) -> Optional[Tuple[list, list]]:
    """The barcode (free, pairs) cached at path; None when absent,
    unreadable, or not of the shape _write_cache writes: free a list of
    int pairs (i, q), pairs a list of int triples (i, q_x, q_y) of gap
    (q_y - q_x)/2 >= 1."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict):
        return None
    free, pairs = entry.get("free"), entry.get("pairs")
    if not (_int_rows(free, 2) and _int_rows(pairs, 3)):
        return None
    if any(qy - qx < 2 or (qy - qx) % 2 for _, qx, qy in pairs):
        return None
    return [tuple(g) for g in free], [tuple(p) for p in pairs]


def _write_cache(path: str, bars: Tuple[list, list]) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so a reader sees the old entry or the whole new one."""
    free, pairs = bars
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(_dump_json({"free": free, "pairs": pairs}) + "\n")
        os.replace(tmp, path)
    except OSError as e:
        click.echo(f"cache not written: {e}", err=True)
        if os.path.exists(tmp):
            os.unlink(tmp)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Exact homological invariants of links from planar diagrams."""


def _diagram_options(f):
    f = click.option("--name", default=None,
                     help="entry of the bundled link table")(f)
    f = click.option("--strands", type=int, default=None,
                     help="strand count for --braid")(f)
    f = click.option("--braid", default=None,
                     help="comma-separated braid word, e.g. '1,-2,1,-2'")(f)
    f = click.option("--pd", default=None,
                     help="planar diagram text, e.g. 'PD[X(1,4,2,5), ...]'")(f)
    return f


@main.command()
@_diagram_options
@click.option("--invariant", type=click.Choice(list(_K_OF_INVARIANT) + ["bnk", "brcover-e2"]),
              default="bn2", show_default=True)
@click.option("--k", "k_opt", type=int, default=None,
              help="truncation order (only with --invariant bnk)")
@click.option("--reduced", is_flag=True, help="quotient flavour with a marked arc")
@click.option("--basepoint", type=int, default=None,
              help="marked arc; defaults to the lowest arc label")
@click.option("--format", "fmt", type=click.Choice(["json", "table", "poincare"]),
              default="json", show_default=True)
@click.option("--force", is_flag=True, help="lift the 14-crossing guard")
@click.option("--cache-dir", default=None,
              help="directory of cached barcodes (also read from KHBN_CACHE_DIR)")
def compute(pd, braid, strands, name, invariant, k_opt, reduced, basepoint,
            fmt, force, cache_dir) -> None:
    """Compute one invariant of one diagram."""
    D = _resolve_diagram(pd, braid, strands, name)
    if invariant == "brcover-e2":
        if reduced:
            raise click.UsageError("brcover-e2 carries its own marked arc; drop --reduced")
        if k_opt is not None:
            raise click.UsageError("--k does not apply to brcover-e2")
        k = 2
        bp: Optional[int] = _default_basepoint(D, basepoint)
    else:
        if invariant == "bnk":
            if k_opt is None:
                raise click.UsageError("--invariant bnk needs --k")
            if k_opt < 1:
                raise click.UsageError("--k must be a positive integer")
            k = k_opt
        else:
            if k_opt is not None:
                raise click.UsageError("--k only applies to --invariant bnk")
            k = _K_OF_INVARIANT[invariant]
        if basepoint is not None and not reduced:
            raise click.UsageError("--basepoint only makes sense with --reduced")
        bp = _default_basepoint(D, basepoint) if reduced else None

    # Every Khovanov flavour is read off the reduced cube's barcode at one
    # marked arc: over F2, unreduced = reduced (+) reduced{q-2} (Wigderson,
    # arXiv:1501.03136; Shumakovitch, arXiv:math/0405474 for k = 1).
    model = "e1" if invariant == "brcover-e2" else "cube"
    arc = D.arcs[0] if bp is None else bp
    cache_dir = cache_dir or os.environ.get("KHBN_CACHE_DIR")
    cache_path = None
    bars = None
    if cache_dir:
        key = _dump_json({"schema_version": SCHEMA_VERSION, "khbn": __version__,
                          "sha256": _diagram_hash(D), "model": model, "arc": arc})
        cache_path = os.path.join(
            cache_dir, hashlib.sha256(key.encode()).hexdigest() + ".json")
        bars = _read_cache(cache_path)
        if bars is not None:
            click.echo(f"cache hit: {cache_path}", err=True)

    if bars is None:
        _refuse_if_too_large(D, force)
        t0 = time.perf_counter()
        C = build_e1_complex(D, arc) if model == "e1" else build_complex(D, arc)
        free, pairs = _barcode(C)
        # a pair of gap 0 gives no tower at any k
        bars = (free, [(i, qx, qy) for i, qx, qy in pairs if qy > qx])
        click.echo(f"computed in {time.perf_counter() - t0:.3f}s", err=True)
        if cache_path:
            _write_cache(cache_path, bars)

    decomp = bigraded_homology(None, k, bars)
    if model == "cube" and not reduced:
        decomp = decomp.direct_sum(decomp.shift_quantum(-2))
    report = _invariant_report(D, invariant, k, reduced, bp, decomp)

    if fmt == "json":
        click.echo(_dump_json(report))
    elif fmt == "poincare":
        click.echo(report["poincare"])
        click.echo(f"euler: {report['euler']}")
    else:
        _print_table(report)


# ---------------------------------------------------------------- verify --

# Each check takes (diagram, k, marked arc or None); euler, splitting and
# basepoint read no marked arc, and brcover always gets one.

def _check_euler(D: Diagram, k: int, bp: Optional[int]) -> Tuple[bool, str]:
    M = bigraded_homology(build_complex(D), k)
    chi = euler_characteristic(M)
    expect = kauffman_jones(D) * Laurent({-2 * s: 1 for s in range(k)})
    if chi == expect:
        return True, f"chi = (1+...+q^-{2 * (k - 1)})*V" if k > 1 else "chi = V"
    return False, f"chi = {_laurent_text(chi)} but state sum gives {_laurent_text(expect)}"


def _check_triangle(D: Diagram, k: int, bp: Optional[int]) -> Tuple[bool, str]:
    rep = verify_triangle(D, bp)
    if rep.passed:
        return True, f"{len(rep.nodes)} nodes exact"
    return False, f"exactness fails at {rep.failures[0]}"


def _check_splitting(D: Diagram, k: int, bp: Optional[int]) -> Tuple[bool, str]:
    """The direct unreduced module against reduced (+) reduced{q-2}, the
    identity that compute derives every unreduced report from."""
    un = bigraded_homology(build_complex(D), k)
    red = bigraded_homology(build_complex(D, D.arcs[0]), k)
    split = red.direct_sum(red.shift_quantum(-2))
    if un == split:
        return True, "unreduced = reduced (x) (1 + q^-2)"
    bad = min(bd for bd in set(un.table) | set(split.table)
              if un.table.get(bd) != split.table.get(bd))
    return False, f"module mismatch at {bad}"


def _sample_arcs(D: Diagram, limit: int = 8) -> List[int]:
    arcs = list(D.arcs)
    if len(arcs) <= limit:
        return arcs
    step = max(1, len(arcs) // limit)
    return arcs[::step][:limit]


def _check_basepoint(D: Diagram, k: int, bp: Optional[int]) -> Tuple[bool, str]:
    arcs = _sample_arcs(D)
    first = bigraded_homology(build_complex(D, arcs[0]), k)
    for a in arcs[1:]:
        other = bigraded_homology(build_complex(D, a), k)
        if other != first:
            return False, f"arc {arcs[0]} and arc {a} give different answers"
    return True, f"{len(arcs)} arcs agree"


def _check_brcover(D: Diagram, k: int, bp: int) -> Tuple[bool, str]:
    rep = verify_theorem_main(D, bp)
    if rep.passed:
        return True, f"{rep.edges_checked} edges intertwined, modules agree"
    if rep.chain_failures:
        return False, f"edge map mismatch at {rep.chain_failures[0]}"
    return False, f"module mismatch: {rep.module_failures[0]}"


def _einfty_checks(C, k: int):
    """(j, page table, E_inf = gr report) for every quantum slice j of C
    truncated at u^k, the pages and the module read off one barcode."""
    bars = _barcode(C)
    M = bigraded_homology(C, k, bars)
    tables = u_adic_pages(C, k, bars)
    for j, F in sorted(u_adic_filtration(C, k).items()):
        yield j, tables[j], verify_einfty_gr(F, M, tables[j])


def _check_sseq(D: Diagram, k: int, bp: Optional[int]) -> Tuple[bool, str]:
    C = build_complex(D, bp)
    for j, _, rep in _einfty_checks(C, k):
        if not rep.passed:
            return False, f"E_inf != gr at quantum {j}: {rep.mismatches[0]}"
    return True, "E_inf = gr(H) at every position"


def _check_reidemeister(pair: Tuple[str, str], k: int, reduced: bool) -> Tuple[bool, str]:
    decomps = []
    for nm in pair:
        D = _load_entry(nm)
        decomps.append(bigraded_homology(
            build_complex(D, D.arcs[0] if reduced else None), k))
    if decomps[0] == decomps[1]:
        return True, "same module decomposition"
    only = sorted(set(decomps[0].table) ^ set(decomps[1].table))
    where = only[0] if only else "tower multiplicities"
    return False, f"{pair[0]} and {pair[1]} disagree at {where}"


_CHECK_OF = {"euler": _check_euler, "triangle": _check_triangle,
             "splitting": _check_splitting, "basepoint": _check_basepoint,
             "brcover": _check_brcover, "sseq": _check_sseq}
CHECKS = [*_CHECK_OF, "reidemeister"]


def _run_check(target: Tuple[str, str, str, int, Optional[int]]
               ) -> Tuple[str, bool, str]:
    """(label, ok, detail) of one (check, label, PD text, k, marked arc)."""
    check, label, pd_text, k, bp = target
    return (label, *_CHECK_OF[check](parse_pd(pd_text), k, bp))


@main.command()
@click.argument("check", type=click.Choice(CHECKS))
@_diagram_options
@click.option("--all-table", is_flag=True, help="run over every bundled entry")
@click.option("--max-crossings", type=int, default=None,
              help="skip table entries above this size")
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--reduced", is_flag=True,
              help="reduced flavour where the check admits one")
@click.option("--basepoint", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="worker processes across table entries")
@click.option("--force", is_flag=True, help="lift the 14-crossing guard")
def verify(check, pd, braid, strands, name, all_table, max_crossings, k,
           reduced, basepoint, jobs, force) -> None:
    """Run one structural check; exit 1 with a counterexample on failure."""
    if k < 1:
        raise click.UsageError("--k must be a positive integer")
    if jobs < 1:
        raise click.UsageError("--jobs must be a positive integer")
    if max_crossings is not None and max_crossings < 0:
        raise click.UsageError("--max-crossings must be a non-negative integer")
    if reduced and check in ("euler", "splitting", "basepoint", "brcover"):
        raise click.UsageError(f"--reduced does not apply to verify {check}")
    # the checks that read a marked arc; every other one refuses --basepoint
    pointed = check == "brcover" or (reduced and check in ("triangle", "sseq"))
    if basepoint is not None and not pointed:
        if check in ("triangle", "sseq"):
            raise click.UsageError("--basepoint only makes sense with --reduced")
        raise click.UsageError(f"--basepoint does not apply to verify {check}")

    if check == "reidemeister":
        if pd or braid:
            raise click.UsageError(
                "reidemeister compares bundled same-link pairs; use --all-table or --name")
        pairs = SAME_LINK_PAIRS
        if name:
            pairs = [p for p in pairs if name in p]
            if not pairs:
                raise click.UsageError(f"no bundled same-link pair involves {name!r}")
        elif not all_table:
            raise click.UsageError("reidemeister needs --all-table or --name")
        if max_crossings is not None:
            pairs = [p for p in pairs
                     if max(_load_entry(nm).n for nm in p) <= max_crossings]
        failures = []
        for pair in pairs:
            ok, detail = _check_reidemeister(pair, k, reduced)
            mark = "ok" if ok else "FAIL"
            click.echo(f"{mark} {pair[0]} ~ {pair[1]}: {detail}")
            if not ok:
                failures.append(pair)
        _finish(len(pairs), failures)
        return

    # the marked arc of each diagram is checked here and not in a worker
    if all_table:
        if pd or braid or name:
            raise click.UsageError("--all-table excludes --pd/--braid/--name")
        table = load_link_table()
        targets = []
        for nm in sorted(table):
            D = parse_pd(table[nm][0])
            if max_crossings is not None and D.n > max_crossings:
                continue
            if _too_large(D, force):
                click.echo(f"skip {nm}: {D.n} crossings (use --force)", err=True)
                continue
            bp = _default_basepoint(D, basepoint) if pointed else None
            targets.append((check, nm, table[nm][0], k, bp))
    else:
        D = _resolve_diagram(pd, braid, strands, name)
        _refuse_if_too_large(D, force)
        label = name if name else render(D)
        bp = _default_basepoint(D, basepoint) if pointed else None
        targets = [(check, label, render(D), k, bp)]

    if jobs > 1 and len(targets) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_run_check, targets))
    else:
        results = [_run_check(t) for t in targets]

    failures = []
    for label, ok, detail in results:
        click.echo(f"{'ok' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            failures.append(label)
    _finish(len(results), failures)


def _finish(total: int, failures: list) -> None:
    if failures:
        click.echo(f"{total} run, {len(failures)} failed")
        click.echo(f"counterexample: {failures[0]}")
        sys.exit(1)
    click.echo(f"{total} run, all passed")


# ------------------------------------------------------------------ sseq --

@main.command("sseq")
@_diagram_options
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--reduced", is_flag=True)
@click.option("--basepoint", type=int, default=None)
@click.option("--force", is_flag=True, help="lift the 14-crossing guard")
def sseq_cmd(pd, braid, strands, name, k, reduced, basepoint, force) -> None:
    """Dump E_0..E_stab of the u-adic filtration, one block per quantum degree."""
    if k < 1:
        raise click.UsageError("--k must be a positive integer")
    if basepoint is not None and not reduced:
        raise click.UsageError("--basepoint only makes sense with --reduced")
    D = _resolve_diagram(pd, braid, strands, name)
    bp = _default_basepoint(D, basepoint) if reduced else None
    _refuse_if_too_large(D, force)
    C = build_complex(D, bp)
    flavour = "reduced" if reduced else "unreduced"
    click.echo(f"pd: {render(D)}")
    click.echo(f"filtration of the k={k} complex, {flavour}")
    all_ok = True
    for j, table, rep in _einfty_checks(C, k):
        click.echo(f"quantum {j}: stabilizes at r={table.r_stab},"
                   f" E_inf total {table.page_total(len(table.pages) - 1)}")
        for r in range(table.r_stab + 1):
            cells = ", ".join(f"({p},{q})={d}"
                              for (p, q), d in sorted(table.pages[r].items()) if d)
            click.echo(f"  E_{r}: total={table.page_total(r)}"
                       + (f"  {cells}" if cells else "  empty"))
        click.echo(f"  E_inf vs gr(H): {'ok' if rep.passed else 'MISMATCH'}"
                   f" ({rep.checked} positions)")
        if not rep.passed:
            click.echo(f"  first mismatch: {rep.mismatches[0]}")
            all_ok = False
    if not all_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
