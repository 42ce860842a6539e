"""Per-layer timing and size counters, recorded from outside the program.

`Tracer.install` swaps the public functions of each module for wrappers
that open a span around the call and record the size that drives it; the
program's source is not edited.  `uninstall` puts the originals back, so
untraced passes run the unmodified code.

A span's time counts towards its metric only when no span of the same
metric encloses it, so nested calls (`extract_witness` calling
`extract_path`, `is_free` calling `identity_in_semigroup`) are not counted
twice.  `decisions.self_s` is the time of decision spans not covered by any
child span.  Time spent measuring sizes is excluded from every open span.
"""

import time
import weakref
from collections import defaultdict

# (metric name, unit, better) in report order; every value is per pass
PER_LAYER = (
    ("cli.parse_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("algebra.decompose_s", "s", "lower"),
    ("algebra.decompose_calls", "count", "lower"),
    ("algebra.witness_check_s", "s", "lower"),
    ("automata.build_s", "s", "lower"),
    ("automata.states", "count", "lower"),
    ("automata.edges", "count", "lower"),
    ("automata.saturate_s", "s", "lower"),
    ("automata.saturate_calls", "count", "lower"),
    ("automata.triples", "count", "lower"),
    ("automata.extract_s", "s", "lower"),
    ("automata.witness_edges", "count", "lower"),
    ("grammars.dfa_build_s", "s", "lower"),
    ("grammars.dfa_states", "count", "lower"),
    ("grammars.core_fixpoint_s", "s", "lower"),
    ("grammars.core_items", "count", "lower"),
    ("grammars.clone_s", "s", "lower"),
    ("grammars.clone_calls", "count", "lower"),
    ("grammars.target_fixpoint_s", "s", "lower"),
    ("grammars.target_items", "count", "lower"),
    ("grammars.extract_s", "s", "lower"),
    ("grammars.productions", "count", "lower"),
    ("grammars.used_item_ratio", "ratio", "higher"),
    ("grammars.growth_s", "s", "lower"),
    ("grammars.enumerate_s", "s", "lower"),
    ("grammars.words_enumerated", "count", "lower"),
    ("oracle.enumerate_s", "s", "lower"),
    ("oracle.sequences", "count", "lower"),
    ("oracle.candidates", "count", "lower"),
    ("oracle.pumping_s", "s", "lower"),
    ("decisions.self_s", "s", "lower"),
    ("decisions.queries", "count", "lower"),
    ("encodings.build_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# measured per traced pass; the last two come from set-up and from the run
PASS_METRICS = tuple(name for name, _, _ in PER_LAYER
                     if name not in ("encodings.build_s", "trace.overhead_ratio"))
COUNTERS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

DECISIONS = ("identity_in_semigroup", "membership", "is_free",
             "count_factorizations", "is_recurrent", "finite_freeness")
ENCODINGS = ("encode_subset_sum", "encode_equal_subset_sum",
             "encode_dfa_intersection", "recurrent_without_identity_fixture",
             "marked_query_word")


def engine_items(engine) -> int:
    return sum(len(qs) for idx in engine.from_idx.values() for qs in idx.values())


class _Frame:
    __slots__ = ("metric", "func", "start", "child")

    def __init__(self, metric, func, start):
        self.metric = metric
        self.func = func
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self._stack = []
        self._patches = []
        self._clones = weakref.WeakSet()
        self.reset()

    def reset(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.extracted_items = 0
        self.engine_items_at_extract = 0

    # -- spans -------------------------------------------------------------------

    def _active(self, metric) -> bool:
        return any(f.metric == metric for f in self._stack)

    def _span(self, metric, fn, sizer=None, func=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = _Frame(metric, func, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                if not tracer._active(metric):
                    tracer.times[metric] += duration
                if metric == "decisions":
                    tracer.times["decisions.self"] += duration - frame.child
                    if not stack:
                        tracer.counts["decisions.queries"] += 1
            if sizer is not None:
                sizer(result, args)
                tracer._exclude(time.perf_counter() - end)
            return result

        return wrapper

    def _exclude(self, seconds):
        """Shift open spans forward so bookkeeping time is not charged to them."""
        for frame in self._stack:
            frame.start += seconds

    # -- sizes -------------------------------------------------------------------

    def _count(self, name, n):
        self.counts[name] += n

    def _automaton_size(self, auto, args):
        self._count("automata.states", auto.n_states)
        self._count("automata.edges", len(auto.edges))

    def _add_rules_span(self, fn):
        """Core fixpoint on a fresh engine, target fixpoint on a clone."""
        tracer = self
        core = self._span("grammars.core_fixpoint", fn)
        target = self._span("grammars.target_fixpoint", fn)

        def add_rules(engine, productions):
            t0 = time.perf_counter()
            before = engine_items(engine)
            tracer._exclude(time.perf_counter() - t0)
            is_clone = engine in tracer._clones
            result = (target if is_clone else core)(engine, productions)
            t0 = time.perf_counter()
            name = "grammars.target_items" if is_clone else "grammars.core_items"
            tracer._count(name, engine_items(engine) - before)
            tracer._exclude(time.perf_counter() - t0)
            return result

        return add_rules

    def _extracted(self, grammar, args):
        engine = args[0]
        self._count("grammars.productions", len(grammar.productions))
        self.extracted_items += max(0, len(grammar.nonterminals) - 1)
        self.engine_items_at_extract += engine_items(engine)

    def _enumerated(self, result, args):
        if result.exact:
            self._count("grammars.words_enumerated", result.count)

    def _candidate_counter(self, fn):
        tracer = self

        def recurrence_certificate(*args, **kwargs):
            if any(f.func == "finite_freeness" for f in tracer._stack):
                tracer.counts["oracle.candidates"] += 1
            return fn(*args, **kwargs)

        return recurrence_certificate

    # -- patching ------------------------------------------------------------------

    def _patch_function(self, module, name, wrapper):
        """Rebind every module-level reference to module.name in the package."""
        original = getattr(module, name)
        for mod in self.pkg.modules:
            if mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _patch_attr(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install_setup(self):
        """Wrap the fixture builders, for encodings.build_s."""
        en = self.pkg.encodings
        for name in ENCODINGS:
            self._patch_function(en, name, self._span("encodings.build", getattr(en, name)))

    def install(self):
        pkg = self.pkg
        cli, alg, am, gr = pkg.cli, pkg.algebra, pkg.automata, pkg.grammars
        orc, de = pkg.oracle, pkg.decisions
        span, fn_patch = self._span, self._patch_function

        fn_patch(cli, "parse_problem", span("cli.parse", cli.parse_problem))
        fn_patch(cli, "emit_report", span("cli.emit", cli.emit_report))

        def count_decompose(result, args):
            self._count("algebra.decompose_calls", 1)
        fn_patch(alg, "decompose", span("algebra.decompose", alg.decompose, count_decompose))
        self._patch_attr(alg.GeneratorSet, "product",
                         span("algebra.witness_check", alg.GeneratorSet.product))

        for name in ("build_loop_automaton", "build_pattern_automaton",
                     "build_membership_automaton"):
            fn_patch(am, name, span("automata.build", getattr(am, name),
                                    self._automaton_size))

        def saturated(rel, args):
            self._count("automata.saturate_calls", 1)
            self._count("automata.triples", len(rel))
        fn_patch(am, "saturate", span("automata.saturate", am.saturate, saturated))
        fn_patch(am, "extract_path", span(
            "automata.extract", am.extract_path,
            lambda path, args: self._count("automata.witness_edges", len(path))))
        for name in ("extract_witness", "decode_pattern_witness"):
            fn_patch(am, name, span("automata.extract", getattr(am, name)))

        fn_patch(gr, "build_marked_semigroup_dfa", span(
            "grammars.dfa_build", gr.build_marked_semigroup_dfa,
            lambda dfa, args: self._count("grammars.dfa_states", dfa.n_states)))
        engine = gr.IntersectionEngine

        def cloned(eng, args):
            self._count("grammars.clone_calls", 1)
            self._clones.add(eng)
        self._patch_attr(engine, "clone", span("grammars.clone", engine.clone, cloned))
        self._patch_attr(engine, "add_rules", self._add_rules_span(engine.add_rules))
        self._patch_attr(engine, "extract_grammar",
                         span("grammars.extract", engine.extract_grammar, self._extracted))
        fn_patch(gr, "find_growth_cycle", span("grammars.growth", gr.find_growth_cycle))
        fn_patch(gr, "enumerate_words",
                 span("grammars.enumerate", gr.enumerate_words, self._enumerated))

        fn_patch(orc, "enumerate_products", span(
            "oracle.enumerate", orc.enumerate_products,
            lambda table, args: self._count("oracle.sequences", table.total_sequences())))
        fn_patch(orc, "find_pumping", span("oracle.pumping", orc.find_pumping))
        counter = de.FactorizationCounter
        self._patch_attr(counter, "recurrence_certificate",
                         self._candidate_counter(counter.recurrence_certificate))

        for name in DECISIONS:
            fn_patch(de, name, span("decisions", getattr(de, name), func=name))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """PASS_METRICS as recorded since the last reset."""
        out = {}
        for name in PASS_METRICS:
            if name.endswith("_s"):
                out[name] = self.times[name[:-2]]
            else:
                out[name] = self.counts[name]
        items = self.engine_items_at_extract
        out["grammars.used_item_ratio"] = self.extracted_items / items if items else 0.0
        return out
