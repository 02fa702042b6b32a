"""Command-line entry point: membrane-lab <command> ...

Commands: modes, optimize, layers, synth, analyze, classify, materials.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import _jsonfmt
from ._jsonfmt import integral, number
from .analysis import analyze
from .config import config_dir
from .errors import MembraneLabError, SolverError
from .loading import (
    STABILIZATION_EPSILON,
    STABILIZATION_WINDOW,
    LayerStep,
    optimize_graded,
    optimize_two_region,
    simulate_layers,
)
# default_ceiling stays importable here: bench/tracing.py wraps it in this module.
from .membrane import ModeTable, RadialDensityProfile, composite_modes, default_ceiling
from .materials import load_samples_csv, material_report
from .synth import RenderSpec, StrokeTemplate, annular_filter, render_stroke
from .wav import read_wav, write_wav

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_profile_arg(path: str) -> RadialDensityProfile:
    return RadialDensityProfile.loads(Path(path).read_text())


def _load_table_source(path: str, m_max: int, n_max: int, f_ceiling: float):
    """A modes source is either a density profile or a serialised table."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "modes" in doc:
        return ModeTable.from_json_dict(doc)
    return composite_modes(RadialDensityProfile.from_json_dict(doc), m_max, n_max, f_ceiling)


def _cmd_modes(args) -> int:
    table = composite_modes(_load_profile_arg(args.profile), args.m_max, args.n_max, args.f_ceiling)
    if args.format == "csv":
        _emit(table.to_csv(), args.output)
    else:
        _emit(_jsonfmt.dumps(table.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    if args.graded:
        result = optimize_graded(
            rings=args.rings,
            overtones=args.overtones,
            budget=args.budget,
            seed=args.seed,
        )
    else:
        result = optimize_two_region(
            fraction_bounds=(args.fraction_min, args.fraction_max),
            ratio_bounds=(args.ratio_min, args.ratio_max),
            overtones=args.overtones,
            budget=args.budget,
            seed=args.seed,
        )
    doc = result.to_json_dict()
    doc["profile"] = result.profile.to_json_dict()
    doc["assigned_ratios"] = [
        {
            "ratio": e.ratio,
            "nearest": e.nearest,
            "deviation": e.deviation,
        }
        for e in result.assessment.assigned_ratios
    ]
    _emit(_jsonfmt.dumps(doc), args.output)
    return EXIT_OK


def _load_steps(path: str) -> tuple[list[LayerStep], float, int]:
    """Layer steps, stabilization epsilon and window of a steps document."""
    doc = json.loads(Path(path).read_text())
    try:
        steps = [
            LayerStep(number(s["r_frac"], "r_frac"), number(s["dsigma_kg_m2"], "dsigma_kg_m2"))
            for s in doc["steps"]
        ]
        stab = doc.get("stabilization", {})
        epsilon = number(stab.get("epsilon", STABILIZATION_EPSILON), "stabilization epsilon")
        window = integral(stab.get("window", STABILIZATION_WINDOW), "stabilization window")
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed layer steps: {exc}") from exc
    return steps, epsilon, window


def _cmd_layers(args) -> int:
    profile = _load_profile_arg(args.profile)
    steps, epsilon, window = _load_steps(args.steps)
    trace = simulate_layers(
        profile,
        steps,
        stabilization=(
            args.epsilon if args.epsilon is not None else epsilon,
            args.window if args.window is not None else window,
        ),
    )
    if args.format == "json":
        out = {
            "stabilized_at": trace.stabilized_at,
            "snapshots": [
                {
                    "layer": s.index,
                    "f_dheem_hz": float(s.mode_table.frequencies[0]),
                    "f_chappu_hz": float(s.mode_table.frequencies[1]),
                    "ratio": s.dheem_to_chappu,
                }
                for s in trace.snapshots
            ],
        }
        _emit(_jsonfmt.dumps(out), args.output)
    else:
        _emit(trace.to_csv(), args.output)
        if trace.stabilized_at is not None:
            print(f"stabilized at layer {trace.stabilized_at}", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    table = _load_table_source(args.source, args.m_max, args.n_max, args.f_ceiling)
    template = StrokeTemplate.loads(Path(args.template).read_text())
    if args.annular:
        template = annular_filter(template, table, args.annular, args.suppression)
    spec = RenderSpec(
        sample_rate=args.sample_rate,
        duration=args.duration,
        peak_amplitude=args.peak,
    )
    wave = render_stroke(table, template, spec, seed=args.seed)
    write_wav(wave, spec.sample_rate, args.output)
    return EXIT_OK


def _tolerance_overrides(args) -> dict:
    """The ratio tolerances given on the command line; the analysis merges
    them over its defaults."""
    given = {
        "dheem_to_fundamental": args.tol_shift,
        "dheem_to_chappu": args.tol_dheem_chappu,
        "nam_to_chappu": args.tol_nam_chappu,
    }
    return {name: tol for name, tol in given.items() if tol is not None}


def _cmd_analyze(args) -> int:
    waveform, rate = read_wav(args.input)
    report = analyze(
        waveform,
        rate,
        fft_size=args.fft_size,
        min_prominence_db=args.min_prominence,
        max_peaks=args.max_peaks,
        f_search=tuple(args.f_search) if args.f_search else None,
        tolerances=_tolerance_overrides(args),
    )
    if args.spectrum_csv:
        from .analysis import compute_spectrum

        spectrum = compute_spectrum(waveform, rate, args.fft_size)
        Path(args.spectrum_csv).write_text(spectrum.to_csv())
    _emit(_jsonfmt.dumps(report.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    waveform, rate = read_wav(args.input)
    report = analyze(waveform, rate, fft_size=args.fft_size)
    print(f"{report.label} {report.confidence:.3f}")
    return EXIT_OK


def _cmd_materials(args) -> int:
    path = args.samples if args.samples else str(config_dir() / "materials_samples.csv")
    report = material_report(load_samples_csv(Path(path).read_text()))
    if args.format == "csv":
        lines = ["name,src_m4_per_kg_s,impedance_kg_per_m2_s,sound_velocity_m_s"]
        lines += [
            f"{r['name']},{r['src_m4_per_kg_s']:.9g},{r['impedance_kg_per_m2_s']:.9g},"
            f"{r['sound_velocity_m_s']:.9g}"
            for r in report["ranking"]
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_jsonfmt.dumps(report), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="membrane-lab",
        description="Centrally loaded drum membranes: modes, loading design, "
        "stroke synthesis and audio analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="solve eigenmodes of a density profile")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--f-ceiling", type=float, default=math.inf)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_modes)

    p = sub.add_parser("optimize", help="inverse-design a harmonic loading")
    p.add_argument("--graded", action="store_true", help="graded staircase search")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--overtones", type=int, default=5)
    p.add_argument("--rings", type=int, default=16)
    p.add_argument("--fraction-min", type=float, default=0.1)
    p.add_argument("--fraction-max", type=float, default=0.7)
    p.add_argument("--ratio-min", type=float, default=1.0)
    p.add_argument("--ratio-max", type=float, default=16.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("layers", help="simulate sequential patch layers")
    p.add_argument("profile", help="base profile JSON path")
    p.add_argument("steps", help="layer steps JSON path")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_layers)

    p = sub.add_parser("synth", help="render a stroke to WAV")
    p.add_argument("source", help="profile JSON (solved) or mode-table JSON")
    p.add_argument("template", help="stroke template JSON path")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--sample-rate", type=int, default=44100)
    p.add_argument("--peak", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--f-ceiling", type=float, default=math.inf)
    p.add_argument("--annular", choices=("kucchi", "thool"), default=None)
    p.add_argument("--suppression", type=float, default=0.3)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("analyze", help="spectral/temporal analysis of a WAV clip")
    p.add_argument("input", help="mono PCM16 WAV path")
    p.add_argument("--fft-size", type=int, default=32768)
    p.add_argument("--min-prominence", type=float, default=8.0)
    p.add_argument("--max-peaks", type=int, default=12)
    p.add_argument("--f-search", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--tol-shift", type=float, default=None)
    p.add_argument("--tol-dheem-chappu", type=float, default=None)
    p.add_argument("--tol-nam-chappu", type=float, default=None)
    p.add_argument("--spectrum-csv", default=None,
                   help="also dump the magnitude spectrum (frequency_hz,magnitude)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("classify", help="name the stroke on a WAV clip")
    p.add_argument("input", help="mono PCM16 WAV path")
    p.add_argument("--fft-size", type=int, default=32768)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("materials", help="SRC / impedance report for samples")
    p.add_argument("samples", nargs="?", default=None,
                   help="samples CSV (default: bundled set)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_materials)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except SolverError as exc:
        print(f"membrane-lab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MembraneLabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"membrane-lab: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
