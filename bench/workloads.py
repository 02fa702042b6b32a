"""The benchmark's workloads.

Each workload draws one pass of items from its seed; the program sees only
those items.  The timed run repeats whole passes, one item at a time in a
single process (a closed loop with one client), until its time is up.  An
item is one design job, one clip round trip or one CLI command.
Outputs are checked after the timed loop, so checking costs no item time.

Program modules are imported in ``setup``, never at import of this file,
so that set-up time covers them.  Calls go through module attributes
(``self.loading.optimize_two_region``), which is where the traced run
installs its wrappers.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from statistics import median, quantiles

M_MAX = 4
N_MAX = 4


class Workload:
    name = ""
    trace_passes = 1  # passes of the traced run, a fixed amount so counts repeat exactly

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.items: list = []

    def setup(self, traced: bool) -> None:
        """Import the layers, generate the items and warm each layer up once."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def key(self, output):
        """What must repeat exactly when the same item runs again."""
        return output

    def describe(self, item) -> str:
        return str(item)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_metrics(self, times: list[float]) -> dict:
        """Per-layer metrics that spans do not give (only the CLI has some)."""
        return {}

    def run_in_process(self, tracer) -> None:
        """Traced-run work beyond the timed passes (only the CLI has some)."""


class Design(Workload):
    name = "design"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        # The box stays inside the default bounds.  Its ratio ceiling stays
        # near 8 so that every overtone count converges on the same branch
        # (patch density ~3.7x); with the full box, overtones=4 converges on
        # a ~10x patch whose solves cost a quarter more, and the seed rather
        # than the program would set the figure.
        self.items = [(
            (rng.uniform(0.10, 0.13), rng.uniform(0.67, 0.70)),
            (rng.uniform(1.0, 1.3), rng.uniform(7.5, 8.0)),
            rng.choice((4, 5, 6)),
        )]

    def setup(self, traced):
        from membrane_lab import loading, membrane

        self.loading = loading
        warm = membrane.RadialDensityProfile(1.0, 1.0, ((0.4, 3.7), (1.0, 1.0)))
        loading.harmonic_objective(warm, 5)

    def run(self, item):
        fraction_bounds, ratio_bounds, overtones = item
        return self.loading.optimize_two_region(
            fraction_bounds, ratio_bounds, overtones, budget=2000, seed=self.seed
        )

    def check(self, item, result):
        # Acceptance criterion 4: every scored overtone within 1% of its
        # integer, and the lowest mode 2-12% sharp of the implied pitch.
        overtones = item[2]
        a = result.assessment
        winners = {e.nearest: e for e in a.assigned_ratios if e.nearest is not None}
        return all(
            k in winners and winners[k].deviation / k < 0.01 for k in range(2, overtones + 2)
        ) and 1.02 <= a.fundamental_shift <= 1.12

    def key(self, result):
        c = result.candidate
        return (c.patch_radius_fraction, c.density_ratio, result.evaluations)


class Audio(Workload):
    name = "audio"
    trace_passes = 2
    PITCH_STRATA = 18
    DURATIONS = (1.0, 2.5, 4.0)
    RATE = 44100

    def setup(self, traced):
        from membrane_lab import analysis, synth, wav
        from membrane_lab.config import load_default_templates

        self.synth, self.wav, self.analysis = synth, wav, analysis
        self.templates = load_default_templates()
        rng = random.Random(self.seed)
        # Per template: one pitch in each of 18 strata of 70-140 Hz, and a
        # seeded assignment of the three clip lengths, six each.
        self.items = []
        for name in self.templates:
            lengths = [self.DURATIONS[k % 3] for k in range(self.PITCH_STRATA)]
            rng.shuffle(lengths)
            for k in range(self.PITCH_STRATA):
                pitch = 70.0 + 70.0 * (k + rng.random()) / self.PITCH_STRATA
                self.items.append((name, pitch, lengths[k], rng.randrange(2 ** 31)))
        self.clips = 0
        name = next(iter(self.templates))
        self.run((name, 100.0, 0.25, 0))

    def run(self, item):
        name, pitch, duration, render_seed = item
        template, head = self.templates[name]
        table = self.synth.reference_mode_table(pitch, head)
        spec = self.synth.RenderSpec(self.RATE, duration, 0.9)
        wave = self.synth.render_stroke(table, template, spec, render_seed)
        # A new file per clip, as a user writes one: truncating and rewriting
        # one file makes ext4 flush it to disk on close, and the benchmark
        # would time the disk.
        self.clips += 1
        path = os.path.join(self.workdir, f"clip{self.clips}.wav")
        self.wav.write_wav(wave, self.RATE, path)
        samples, rate = self.wav.read_wav(path)
        os.unlink(path)
        report = self.analysis.analyze(samples, rate)
        return report.label, float(report.confidence)

    def check(self, item, output):
        return output[0] == item[0]

    def peak_rss_mb(self):
        """p90 over the clips of the peak RSS of a forked copy of this
        process that runs one clip.

        The process's own high-water mark is the largest clip's: the comb
        search allocates candidates x peaks, and a clip whose noise gives a
        strong peak near 20 kHz needs ~20 MB more.  Which seed draws such a
        clip is chance, so that maximum varies by a quarter from seed to
        seed; the p90 over clips does not.
        """
        peaks = []
        for item in self.items:
            self.clips += 1  # the child writes its own file name
            pid = os.fork()
            if pid == 0:
                # A clip that raises counts in ``failed`` already; here only
                # its memory matters.
                try:
                    self.run(item)
                finally:
                    os._exit(0)
            _, _, usage = os.wait4(pid, 0)
            peaks.append(usage.ru_maxrss / 1024.0)
        return quantiles(peaks, n=10, method="inclusive")[-1]

    def describe(self, item):
        return f"{item[0]} {item[1]:.1f}Hz {item[2]}s"


class Cli(Workload):
    name = "cli"
    trace_passes = 3
    COMMANDS = ("modes", "layers", "synth", "analyze", "classify", "materials")
    SAMPLES = 3  # fresh processes per interpreter/import figure in the traced run

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        self.data = os.path.join(root, "src", "membrane_lab", "data")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.demo = os.path.join(workdir, "demo.wav")
        self.synth_seed = rng.randrange(2 ** 31)
        self.items = list(self.COMMANDS)
        rng.shuffle(self.items)
        self.files = 0
        self.max_child_rss_kb = 0

    def _fresh(self, suffix):
        # Every output goes to a new file: truncating and rewriting one file
        # makes ext4 flush it to disk on close, and the item would time the disk.
        self.files += 1
        return os.path.join(self.workdir, f"{self.files}{suffix}")

    def _args(self, command, output=None):
        d = self.data
        return {
            "modes": ["modes", f"{d}/default_profile.json"],
            "layers": ["layers", f"{d}/uniform_profile.json", f"{d}/layer_sequence.json"],
            "synth": ["synth", f"{d}/default_profile.json", f"{d}/demo_stroke.json", "-o", output,
                      "--duration", "3", "--seed", str(self.synth_seed)],
            "analyze": ["analyze", self.demo],
            "classify": ["classify", self.demo],
            "materials": ["materials"],
        }[command]

    def _spawn(self, argv):
        """Run one fresh process to its end; (exit code, stdout, stderr, seconds)."""
        out_path, err_path = self._fresh(".out"), self._fresh(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            result = proc.returncode, out.read(), err.read(), seconds
        os.unlink(out_path)
        os.unlink(err_path)
        return result

    def setup(self, traced):
        # The warm-up call renders the demo clip that analyze and classify read.
        code, _, err, _ = self._spawn([
            sys.executable, "-m", "membrane_lab.cli", "synth", f"{self.data}/default_profile.json",
            f"{self.data}/demo_stroke.json", "-o", self.demo, "--duration", "3",
        ])
        if code != 0:
            raise RuntimeError(f"warm-up synth failed with exit code {code}: {err.strip()}")
        if traced:
            # The in-process main calls of the traced run need the module
            # imported before the wrappers go in.
            import membrane_lab.cli

            self.cli = membrane_lab.cli
        self.max_child_rss_kb = 0

    def run(self, command):
        wav = self._fresh(".wav") if command == "synth" else None
        code, out, _, _ = self._spawn([sys.executable, "-m", "membrane_lab.cli", *self._args(command, wav)])
        if wav and code == 0:
            with open(wav, "rb") as f:
                out = hashlib.sha256(f.read()).hexdigest()
            os.unlink(wav)
        return code, out

    def check(self, command, output):
        code, out = output
        if code != 0:
            return False
        if command == "classify":
            return out.split()[0] == "chappu"
        if command == "modes":
            return self._modes_match(out)
        return True

    @functools.cached_property
    def _reference_modes(self):
        from membrane_lab import membrane

        with open(f"{self.data}/default_profile.json") as f:
            profile = membrane.RadialDensityProfile.loads(f.read())
        return membrane.composite_modes(
            profile, M_MAX, N_MAX, membrane.default_ceiling(profile, N_MAX, M_MAX)
        )

    def _modes_match(self, csv_text):
        table = self._reference_modes
        rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        if len(rows) != len(table) or len(rows) != (M_MAX + 1) * N_MAX:
            return False
        # The CSV carries 9 significant digits.
        return all(
            (int(m), int(n)) == (mo.m, mo.n) and abs(float(f) - mo.frequency) <= 1e-8 * mo.frequency
            for (m, n, f), mo in zip(rows, table)
        )

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0

    def trace_metrics(self, times):
        """Interpreter start, package import, per-command wall time and the
        in-process self time of ``main``."""
        interpreter = median(self._spawn([sys.executable, "-c", "pass"])[3] for _ in range(self.SAMPLES))
        probe = (
            "import time; t = time.perf_counter(); import membrane_lab.cli; "
            "print(time.perf_counter() - t)"
        )
        imports = []
        for _ in range(self.SAMPLES):
            code, out, err, _ = self._spawn([sys.executable, "-c", probe])
            if code != 0:
                raise RuntimeError(f"import probe failed: {err.strip()}")
            imports.append(float(out))
        metrics = {"cli.interpreter_s": interpreter, "cli.import_s": median(imports)}
        per_command = {}
        for command, seconds in zip(self.items * self.trace_passes, times):
            per_command.setdefault(command, []).append(seconds)
        for command, seconds in per_command.items():
            metrics[f"cli.{command}_ms"] = 1e3 * median(seconds)
        return metrics

    def run_in_process(self, tracer):
        """Each command once through ``main`` in this process, under tracing."""
        for command in self.items:
            args = self._args(command, self._fresh(".wav"))
            if command not in ("synth", "classify"):
                args += ["-o", self._fresh(".inproc")]
            tracer.item = f"main:{command}"
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = self.cli.main(args)
            if code != 0:
                raise RuntimeError(f"in-process {command} exited with {code}")


WORKLOADS = {w.name: w for w in (Design, Audio, Cli)}
