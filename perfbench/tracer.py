"""Per-layer tracing of khbn from outside the package.

The tracer wraps public functions of the khbn modules and records one span
per call made while a request is active: name, start, end, parent span and
request id.  Modules import each other's functions by name
(``from .linkdiag import resolve``), so a wrapper is installed at every
module attribute that holds the original function, not only where it is
defined; imports done inside a function body read the patched attribute at
call time.

A target whose module or function no longer exists is skipped and its
metrics read as absent, so renaming or deleting a function in khbn never
crashes a traced run.
"""

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# (module, function, layer metric prefix).  Two functions may share a prefix.
TARGETS = [
    ("linkdiag", "parse_pd", "linkdiag.parse"),
    ("linkdiag", "from_braid", "linkdiag.parse"),
    ("linkdiag", "resolve", "linkdiag.resolve"),
    ("linkdiag", "edge_transition", "linkdiag.edge_transition"),
    ("linkdiag", "kauffman_jones", "linkdiag.kauffman"),
    ("khcube", "build_complex", "khcube.build"),
    ("khcube", "verify_d_squared", "khcube.d_squared"),
    ("ringalg", "f2_rank", "ringalg.f2_rank"),
    ("ringalg", "nilpotent_block_multiplicities", "ringalg.nilpotent"),
    ("homology", "bigraded_homology", "homology.bigraded"),
    ("homology", "verify_triangle", "homology.triangle"),
    ("sseq", "u_adic_filtration", "sseq.filtration"),
    ("sseq", "filtration_pages", "sseq.pages"),
    ("sseq", "verify_einfty_gr", "sseq.einf_check"),
    ("brcover", "build_e1_complex", "brcover.build_e1"),
    ("brcover", "verify_theorem_main", "brcover.verify"),
]

REQUEST_SPAN = "cli.request"


# Counts read off a traced call, as (metric, traced prefix, read from the
# call's "result" or first "arg", reader).  A reader that meets an attribute
# khbn no longer has makes its metric absent instead of failing the run.
COUNTS = [
    ("khcube.generators", "khcube.build", "result",
     lambda C: sum(len(g) for g in C.generators.values())),
    ("khcube.nnz", "khcube.build", "result",
     lambda C: sum(len(m.entries) for m in C.differential.values())),
    ("ringalg.f2_rank_cells", "ringalg.f2_rank", "arg", lambda M: M.rows * M.cols),
    ("brcover.edges_checked", "brcover.verify", "result", lambda rep: rep.edges_checked),
]


class Tracer:
    """Spans in memory, aggregated self time and counts per layer prefix."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id or -1, request)
        self.request = None    # id of the request in flight, None outside one
        self._stack = []       # [span id, child seconds] per open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.present = set()   # prefixes with at least one installed wrapper
        self.broken = set()    # count metrics whose reader failed
        self._patched = []     # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _open(self):
        self._stack.append([len(self.spans), 0.0])
        self.spans.append(None)

    def _close(self, name, t0, t1):
        span_id, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        self.spans[span_id] = (span_id, name, t0, t1,
                               parent[0] if parent else -1, self.request)
        self.calls[name] += 1
        self.self_s[name] += dur - child
        return dur

    def request_span(self, request_id, fn, *args, **kwargs):
        """Run fn as the root span of one request; return (result, seconds)."""
        self.request = request_id
        self._open()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = self._close(REQUEST_SPAN, t0, time.perf_counter())
            self.request = None
        return out, dur

    def _wrap(self, name, fn):
        readers = [(key, where, read) for key, src, where, read in COUNTS
                   if src == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, t0, time.perf_counter())
            for key, where, read in readers:
                try:
                    self.counts[key] += read(out if where == "result" else args[0])
                except (AttributeError, TypeError, IndexError):
                    self.broken.add(key)
            return out

        return traced

    def count(self, key):
        """A count metric, or None when its function or reader is gone."""
        src = next(src for k, src, _, _ in COUNTS if k == key)
        if src not in self.present or key in self.broken:
            return None
        return self.counts[key]

    # -- installation -------------------------------------------------------

    def install(self, package="khbn"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            try:
                importlib.import_module(f"{package}.{info.name}")
            except ImportError:
                pass  # an optional compiled module that is not built
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, prefix in TARGETS:
            mod = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(mod, fn_name, None) if mod else None
            if not callable(original):
                continue
            wrapper = self._wrap(prefix, original)
            self.present.add(prefix)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for s in self.spans:
                if s is not None:
                    fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % s)
