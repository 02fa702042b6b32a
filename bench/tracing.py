"""Span tracing for the benchmark's traced run, recorded from outside the program.

The program is left as it is.  For the traced run the benchmark replaces
each public function below with a wrapper, in every module that looks the
name up at call time (``from x import y`` binds a copy, so wrapping
``membrane_lab.membrane.composite_modes`` alone would miss the calls that
``membrane_lab.loading`` makes).  A wrapper records one span: name, start,
end, parent span and item id.  Spans stay in memory and are written out
when the run ends.

The ``scipy.special`` Bessel functions that the solver calls through
``special.<name>`` are counted (calls, points, seconds), not spanned: a
solve makes hundreds of them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter

# Span name -> the modules whose global of that name the program calls.
SPANNED = {
    "membrane.composite_modes": ("membrane_lab.membrane", "membrane_lab.loading", "membrane_lab.cli"),
    "membrane.uniform_modes": ("membrane_lab.membrane",),
    "membrane.default_ceiling": ("membrane_lab.membrane", "membrane_lab.loading", "membrane_lab.cli"),
    "harmonicity.harmonicity_score": ("membrane_lab.loading",),
    "loading.optimize_two_region": ("membrane_lab.loading", "membrane_lab.cli"),
    "loading.harmonic_objective": ("membrane_lab.loading",),
    "loading.simulate_layers": ("membrane_lab.loading", "membrane_lab.cli"),
    "synth.render_stroke": ("membrane_lab.synth", "membrane_lab.cli"),
    "wav.write_wav": ("membrane_lab.wav", "membrane_lab.cli"),
    "wav.read_wav": ("membrane_lab.wav", "membrane_lab.cli"),
    "analysis.analyze": ("membrane_lab.analysis", "membrane_lab.cli"),
    "analysis.compute_spectrum": ("membrane_lab.analysis",),
    "analysis.detect_peaks": ("membrane_lab.analysis",),
    "analysis.group_harmonics": ("membrane_lab.analysis",),
    "analysis.fit_decay": ("membrane_lab.analysis",),
    "analysis.segment_adsr": ("membrane_lab.analysis",),
    "analysis.classify_stroke": ("membrane_lab.analysis",),
    "cli.main": ("membrane_lab.cli",),
}
BESSEL = ("jv", "yv", "jvp", "yvp")

# Span fields.
NAME, START, END, PARENT, ITEM, EXTRA = range(6)


class Tracer:
    """Collects spans and Bessel counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.bessel_calls = 0
        self.bessel_points = 0
        self.bessel_s = 0.0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every spanned name, and the Bessel functions, in the modules
        already imported.

        Only modules the workload imported are touched, so tracing never
        imports a layer (or scipy) that the untraced run would not.
        """
        for name, modules in SPANNED.items():
            attr = name.split(".", 1)[1]
            for module_name in modules:
                module = sys.modules.get(module_name)
                if module is not None:
                    self._replace(module, attr, self._span(name, getattr(module, attr)))
        special = sys.modules.get("scipy.special")
        if special is not None:
            for attr in BESSEL:
                self._replace(special, attr, self._count(getattr(special, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _replace(self, module, attr, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            record[EXTRA] = _observe(name, args, result)
            return result

        return wrapper

    def _count(self, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            self.bessel_s += perf_counter() - start
            self.bessel_calls += 1
            self.bessel_points += getattr(out, "size", 1)
            return out

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for i, (name, start, end, parent, item, extra) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "extra": extra,
                }) + "\n")

    def layer_metrics(self) -> dict:
        """The per-layer metrics that spans and counts give (not the cli.* ones)."""
        spans = self.spans
        duration = [s[END] - s[START] for s in spans]
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += duration[i]
        # A layer's self time is the time its spans do not hand to child
        # spans; summed over the layer, that is its time outside every other
        # layer.  Bessel time is not spanned, so it sits inside membrane.
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for i, s in enumerate(spans):
            layer = s[NAME].split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + duration[i] - covered[i]
            total[s[NAME]] = total.get(s[NAME], 0.0) + duration[i]
            count[s[NAME]] = count.get(s[NAME], 0) + 1

        def inside(i, name):
            parent = spans[i][PARENT]
            while parent >= 0:
                if spans[parent][NAME] == name:
                    return True
                parent = spans[parent][PARENT]
            return False

        solves = [i for i, s in enumerate(spans) if s[NAME] == "membrane.composite_modes"]
        budget = sum(s[EXTRA] for s in spans if s[NAME] == "loading.optimize_two_region")
        distinct = sum(1 for i in solves if inside(i, "loading.optimize_two_region"))
        samples = sum(s[EXTRA] for s in spans if s[NAME] == "synth.render_stroke")
        wav_bytes = sum(s[EXTRA] for s in spans if s[NAME] in ("wav.write_wav", "wav.read_wav"))
        render_s = total.get("synth.render_stroke", 0.0)
        return {
            "membrane.solves": len(solves),
            "membrane.solve_p50_ms": 1e3 * statistics.median([duration[i] for i in solves]) if solves else 0.0,
            "membrane.self_s": self_s.get("membrane", 0.0),
            "bessel.calls_per_solve": self.bessel_calls / len(solves) if solves else 0.0,
            "bessel.points_per_solve": self.bessel_points / len(solves) if solves else 0.0,
            "bessel.s": self.bessel_s,
            "bessel.us_per_point": 1e6 * self.bessel_s / self.bessel_points if self.bessel_points else 0.0,
            "loading.budget_units": budget,
            "loading.distinct_solves": distinct,
            "loading.useful_ratio": distinct / budget if budget else 0.0,
            "loading.objective_calls": count.get("loading.harmonic_objective", 0),
            "loading.self_s": self_s.get("loading", 0.0),
            "harmonicity.calls": count.get("harmonicity.harmonicity_score", 0),
            "harmonicity.self_s": self_s.get("harmonicity", 0.0),
            "synth.renders": count.get("synth.render_stroke", 0),
            "synth.render_s": render_s,
            "synth.msamples_per_s": samples / render_s / 1e6 if render_s else 0.0,
            "wav.write_s": total.get("wav.write_wav", 0.0),
            "wav.read_s": total.get("wav.read_wav", 0.0),
            "wav.mb": wav_bytes / 1e6,
            "analysis.spectrum_calls": count.get("analysis.compute_spectrum", 0),
            "analysis.spectrum_s": total.get("analysis.compute_spectrum", 0.0),
            "analysis.peaks_s": total.get("analysis.detect_peaks", 0.0),
            "analysis.comb_s": total.get("analysis.group_harmonics", 0.0),
            "analysis.decay_s": total.get("analysis.fit_decay", 0.0),
            "analysis.adsr_s": total.get("analysis.segment_adsr", 0.0),
            "analysis.classify_s": total.get("analysis.classify_stroke", 0.0),
            "analysis.self_s": self_s.get("analysis", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
        }


def _observe(name, args, result):
    """The amount of work a span did, where the layer metrics need it."""
    if name == "loading.optimize_two_region":
        return result.evaluations
    if name == "synth.render_stroke":
        return int(result.size)
    if name == "wav.write_wav":
        return os.path.getsize(args[2])
    if name == "wav.read_wav":
        return os.path.getsize(args[0])
    return None
