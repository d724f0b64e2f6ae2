"""Outside-in tracer for the yule_ou package.

The package imports names directly (`from .gaussian import upper_quantile`,
`from .estimators import yule_rho`), so a wrapper only sees a call if it
replaces the binding the caller looks up.  `Tracer.install` swaps each
binding listed in `_bindings` for a span-recording wrapper and
`Tracer.uninstall` puts the originals back.  The package source is not
touched.

Spans are kept in memory as [name, start, end, parent, run, child_time,
attrs] and written out by `write_spans`.  Self time of a span is its
duration minus the time covered by its direct children; since calls nest
strictly in one thread, that is the sum of the children's durations.

Spans are recorded only in the process that installed the tracer.  Worker
processes forked by `mc.pair_sample(jobs > 1)` inherit the wrappers, but
their spans stay in the worker and are lost, so a run at jobs > 1 sees
the parent side of each call only.
"""

import inspect
import math
import statistics
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _RUN, _CHILD, _ATTRS = range(7)


class _TracedGenerator:
    """Generator proxy whose standard_normal draws are spans."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, size=None, *args, **kwargs):
        self._tracer.counters["sde.draw.normals"] += _size(size)
        return self._tracer.call("sde.draw", self._gen.standard_normal,
                                 (size,) + args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _size(shape):
    if shape is None:
        return 1
    if isinstance(shape, int):
        return shape
    return math.prod(shape)


class _CountingText:
    """Text file proxy counting the characters written or read (ASCII: bytes)."""

    def __init__(self, tracer, fileobj):
        self._tracer = tracer
        self._file = fileobj

    def write(self, text):
        self._tracer.counters["sde.csv.bytes"] += len(text)
        return self._file.write(text)

    def __iter__(self):
        for line in self._file:
            self._tracer.counters["sde.csv.bytes"] += len(line)
            yield line


class Tracer:
    """Spans and counters recorded around the package's public functions."""

    def __init__(self, workload):
        self.workload = workload
        self.run_id = 0
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs=None):
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, self.run_id, 0.0, attrs]
        stack.append(len(spans))
        spans.append(span)
        span[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            stack.pop()
            if parent >= 0:
                spans[parent][_CHILD] += span[_END] - span[_START]

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def _bindings(self):
        """(module, attribute, wrapper) for every binding the tracer replaces."""
        from yule_ou import cli, gaussian, hypothesis, mc, sde, theory

        out = []

        def add(module, attr, wrapper):
            out.append((module, attr, wrapper))

        def plain(module, attr, name):
            add(module, attr, self._wrapper(name, getattr(module, attr)))

        stream = sde.stream
        add(sde, "stream", lambda *a, **k: _TracedGenerator(
            self, self.call("sde.stream", stream, a, k)))

        ar1_paths = sde.ar1_paths

        def traced_ar1(factor, innovations):
            # computed from shapes: float64 innovations read plus paths written,
            # the paths having one extra (zero) node per row
            size = innovations.size
            rows = size // innovations.shape[-1]
            self.counters["sde.ar1_paths.bytes_computed"] += 8 * (2 * size + rows)
            return self.call("sde.ar1_paths", ar1_paths, (factor, innovations), {})
        add(sde, "ar1_paths", traced_ar1)

        write_csv, read_csv = sde.write_pair_csv, sde.read_pair_csv
        add(sde, "write_pair_csv", lambda pair, fileobj, *a, **k: self.call(
            "sde.write_pair_csv", write_csv, (pair, _CountingText(self, fileobj)) + a, k))
        add(sde, "read_pair_csv", lambda fileobj: self.call(
            "sde.read_pair_csv", read_csv, (_CountingText(self, fileobj),), {}))
        plain(sde, "simulate_correlated_pair", "sde.simulate_correlated_pair")

        pair_sample = mc.pair_sample

        def traced_pair_sample(*args, **kwargs):
            attrs = None
            if "process_offset" in kwargs:  # a field mode (spde_mode_samples)
                attrs = {"mode": kwargs["process_offset"] // 2 + 1,
                         "reps": kwargs.get("replications", 1000)}
            return self.call("mc.pair_sample", pair_sample, args, kwargs, attrs)
        add(mc, "pair_sample", traced_pair_sample)

        cell_blocks = mc._cell_blocks

        def traced_blocks(*args):
            blocks = cell_blocks(*args)
            self.counters["mc.blocks"] += len(blocks)
            return blocks
        add(mc, "_cell_blocks", traced_blocks)
        for attr in ("run_grid", "summarize_cell", "spde_mode_samples",
                     "spde_family_rejections"):
            plain(mc, attr, f"mc.{attr}")

        plain(cli, "yule_rho", "estimators.yule_rho")
        for name in _public_functions(hypothesis):
            plain(hypothesis, name, f"hypothesis.{name}")
        for name in _public_functions(theory):
            plain(theory, name, f"theory.{name}")
        plain(hypothesis, "chaos_constants", "theory.chaos_constants")

        for module in (gaussian, hypothesis, mc):
            plain(module, "upper_quantile", "gaussian.upper_quantile")
        for module in (gaussian, mc):
            plain(module, "norm_cdf", "gaussian.norm_cdf")

        plain(cli, "main", "cli.main")
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, wrapper in self._bindings():
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path):
        """Write every span as CSV: workload,run,index,name,start,end,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("workload,run,index,name,start,end,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{self.workload},{s[_RUN]},{i},{s[_NAME]},"
                         f"{s[_START]:.9f},{s[_END]:.9f},{s[_PARENT]}\n")

    def layer_metrics(self, n_units):
        """Per-layer metrics, each per workload unit (one CLI run or one pair)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            calls[s[_NAME]] += 1
            self_s[s[_NAME]] += (s[_END] - s[_START]) - s[_CHILD]

        def prefixed(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        mode_rates = defaultdict(list)
        for s in self.spans:
            if s[_NAME] == "mc.pair_sample" and s[_ATTRS]:
                mode_rates[s[_ATTRS]["mode"]].append(
                    s[_ATTRS]["reps"] / (s[_END] - s[_START]))

        per = 1.0 / max(1, n_units)
        c = self.counters
        m = {
            "sde.stream.calls": calls["sde.stream"] * per,
            "sde.stream.self_s": self_s["sde.stream"] * per,
            "sde.stream.us_per_call": (1e6 * self_s["sde.stream"] / calls["sde.stream"]
                                       if calls["sde.stream"] else 0.0),
            "sde.draw.normals": c["sde.draw.normals"] * per,
            "sde.draw.self_s": self_s["sde.draw"] * per,
            "sde.ar1_paths.calls": calls["sde.ar1_paths"] * per,
            "sde.ar1_paths.self_s": self_s["sde.ar1_paths"] * per,
            "sde.ar1_paths.bytes_computed": c["sde.ar1_paths.bytes_computed"] * per,
            "sde.write_pair_csv.self_s": self_s["sde.write_pair_csv"] * per,
            "sde.read_pair_csv.self_s": self_s["sde.read_pair_csv"] * per,
            "sde.csv.bytes": c["sde.csv.bytes"] * per,
            "sde.simulate_correlated_pair.self_s":
                self_s["sde.simulate_correlated_pair"] * per,
            "mc.pair_sample.calls": calls["mc.pair_sample"] * per,
            "mc.pair_sample.self_s": self_s["mc.pair_sample"] * per,
            "mc.blocks": c["mc.blocks"] * per,
            "mc.summarize_cell.self_s": self_s["mc.summarize_cell"] * per,
            "mc.spde_family_rejections.self_s": self_s["mc.spde_family_rejections"] * per,
            "estimators.yule_rho.calls": calls["estimators.yule_rho"] * per,
            "estimators.yule_rho.self_s": self_s["estimators.yule_rho"] * per,
            "hypothesis.calls": prefixed("hypothesis.", calls) * per,
            "hypothesis.self_s": prefixed("hypothesis.", self_s) * per,
            "hypothesis.write_outcomes_csv.self_s":
                self_s["hypothesis.write_outcomes_csv"] * per,
            "gaussian.upper_quantile.calls": calls["gaussian.upper_quantile"] * per,
            "gaussian.upper_quantile.self_s": self_s["gaussian.upper_quantile"] * per,
            "gaussian.norm_cdf.calls": calls["gaussian.norm_cdf"] * per,
            "theory.self_s": prefixed("theory.", self_s) * per,
            "cli.main.calls": calls["cli.main"] * per,
            "cli.self_s": self_s["cli.main"] * per,
        }
        for k in (1, 2, 3):
            rates = mode_rates.get(k)
            m[f"mc.mode{k}.reps_per_s"] = statistics.median(rates) if rates else 0.0
        return m


def _public_functions(module):
    return [name for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]
