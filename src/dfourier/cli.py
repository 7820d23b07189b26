"""Command line front end: one JSON config drives every operation.

Any flag whose name matches a config key overrides that key.  Exit
codes: 0 success, 2 usage, precondition or corrupt artifact, 3 exhausted
scale window, 4 bandwidth budget overflow.  A failing build still writes the artifact
of its completed stages before exiting, so the analyzer can inspect the
partial measure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from dfourier.arith import (
    ramanujan_sum,
    ramanujan_sum_bruteforce,
    residue_count,
    residue_set,
)
from dfourier.analyze import (
    borel_cantelli_report,
    decay_report,
    write_csv,
    write_decay_csv,
    write_report_json,
    write_upper_csv,
)
from dfourier.errors import (
    ArtifactError,
    BandwidthBudgetError,
    ProfileError,
    WindowExhaustedError,
)
from dfourier.measure import BuildConfig, MeasureStage, build_measure
from dfourier.profile import ApproximationProfile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WINDOW = 3
EXIT_BUDGET = 4

STAGE_FILE = "stage.bin"
BUILD_LOG = "build_log.json"


# ----------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------

# integer run keys and their least valid values
_INT_FLOORS = (("stages", 0), ("upper_q_max", 2))


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, serializable as one flat JSON object.

    ``profile`` holds the nested profile descriptor.  ``eta = None``
    defers to the builder default (0.9 times the critical exponent).
    ``upper_q_max`` bounds the upper report's moduli.  The flat keys that
    name ``BuildConfig`` fields go to ``build``, which owns their defaults
    and checks; ``analyze`` reads every build key from the artifact.
    ``validate`` checks the run keys.
    """
    profile: dict | None = None
    eta: float | None = None
    eps: float = 0.05
    stages: int = 3
    output_dir: str = "."
    format: str = "json"
    upper_q_max: int = 500
    build: BuildConfig = field(default_factory=BuildConfig)

    def validate(self) -> None:
        if self.format not in ("json", "csv"):
            raise ProfileError(f"unknown output format {self.format!r}")
        if not isinstance(self.output_dir, str):
            raise ProfileError("config key output_dir must be a string")
        for name, least in _INT_FLOORS:
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ProfileError(
                    f"config key {name} must be an integer >= {least}")
        if type(self.eps) not in (int, float) or not 0.0 < self.eps < math.inf:
            raise ProfileError("config key eps must be a finite number > 0")
        if self.eta is not None and (type(self.eta) not in (int, float)
                                     or not 0.0 < self.eta < 1.0):
            raise ProfileError("config key eta must lie in (0, 1)")


# the bump kernel is fixed; every other BuildConfig field is a flat key
_BUILD_KEYS = {f.name for f in fields(BuildConfig)} - {"bump"}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"build"} | _BUILD_KEYS


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file merged with flag overrides; unknown keys are rejected."""
    data: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ProfileError(f"config file {path} must hold a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ProfileError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items()
                 if k in _CONFIG_KEYS and v is not None})
    build = BuildConfig(**{k: data.pop(k) for k in _BUILD_KEYS & set(data)})
    cfg = RunConfig(**data, build=build)
    cfg.validate()
    return cfg


def _resolve_profile(cfg: RunConfig) -> ApproximationProfile:
    if cfg.profile is None:
        raise ProfileError("this command needs a profile in the config file")
    return ApproximationProfile.from_descriptor(cfg.profile)


def _resolve_eta(profile: ApproximationProfile, cfg: RunConfig) -> float:
    """Weight exponent with the mandatory warning against the series exponent."""
    s_res = profile.s_exponent("auto")
    eta = cfg.eta if cfg.eta is not None else 0.9 * s_res.value
    if s_res.mode != "analytic":
        print(f"warning: critical exponent is empirical "
              f"(s ~ {s_res.value:.4f}); eta check is heuristic",
              file=sys.stderr)
    if eta >= s_res.value:
        print(f"warning: eta = {eta:.4f} is not below the critical "
              f"exponent s = {s_res.value:.4f}; the weighted series "
              f"need not converge", file=sys.stderr)
    return eta


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _fmt_value(z: complex) -> str:
    if abs(z.imag) < 1e-9:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_ramanujan(args: argparse.Namespace) -> int:
    try:
        if args.method in ("brute", "both"):
            brute = ramanujan_sum_bruteforce(args.q, args.k, args.a, args.b)
            print(f"brute   = {_fmt_value(brute)}")
        if args.method in ("divisor", "both"):
            div = ramanujan_sum(args.q, args.k, args.a, args.b)
            print(f"divisor = {_fmt_value(div)}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.method == "both":
        print(f"|diff|  = {abs(brute - div):.3e}")
    return EXIT_OK


def cmd_residues(args: argparse.Namespace) -> int:
    try:
        rs = residue_set(args.q, args.a, args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    body = ", ".join(str(p) for p in rs.members.tolist())
    print(f"I_{args.q}({args.a},{args.b}) = {{{body}}}")
    print(f"enumerated = {rs.count}")
    print(f"formula    = {residue_count(args.q, args.b)}")
    return EXIT_OK


def cmd_buckets(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, vars(args))
    profile = _resolve_profile(cfg)
    eta = _resolve_eta(profile, cfg)
    lo, _, hi = (args.k_range or "").partition(":")
    try:
        k_lo, k_hi = int(lo or 1), int(hi) if hi else None
    except ValueError:
        raise ProfileError(f"--k-range {args.k_range!r} is not LO:HI") from None
    try:
        sset = profile.scale_set(eta, k_max=k_hi)
    except OverflowError:
        raise ProfileError(f"--k-range {args.k_range!r} reaches scales 2**k "
                           f"that overflow a float") from None
    rows = [e for e in sset.entries
            if e.k >= k_lo and (k_hi is None or e.k <= k_hi)]
    header = f"{'k':>3} {'M':>8} {'count':>8} {'mass':>14} " \
             f"{'qualifies':>9} {'M/(logM)^2':>12}"
    print(header)
    for e in rows:
        print(f"{e.k:>3} {e.scale:>8} {e.count:>8} {e.mass:>14.6g} "
              f"{'yes' if e.qualifies else 'no':>9} {e.size_ratio:>12.6g}")
    if cfg.format == "csv" and rows:
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = os.path.join(cfg.output_dir, "buckets.csv")
        write_csv(out, ("k", "M", "count", "mass", "qualifies", "size_ratio"),
                  ({**asdict(e), "M": e.scale} for e in rows))
        print(f"table written to {out}")
    return EXIT_OK


def _write_build_outputs(stage: MeasureStage, cfg: RunConfig,
                         status: str, error: str | None) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    stage_path = os.path.join(cfg.output_dir, STAGE_FILE)
    stage.save(stage_path)
    log = {
        "status": status,
        "error": error,
        "requested_stages": stage.requested_stages,
        "stages_completed": stage.stages,
        "scales": stage.scales,
        "c_stab": stage.c_stab,
        "normalization": stage.normalization,
        "uniform_error_bound": stage.uniform_error_bound,
        "per_stage": stage.gap_log,
        "factors": stage.factor_summaries,
    }
    write_report_json(log, os.path.join(cfg.output_dir, BUILD_LOG))
    return stage_path


def _print_stage_lines(stage: MeasureStage) -> None:
    for i, probes in enumerate(stage.gap_log, 1):
        if i <= len(stage.scales):
            chosen = stage.scales[i - 1]
            gap = next(p["gap"] for p in probes if p["scale"] == chosen)
            thr = probes[0]["threshold"]
            thr_s = "none" if thr is None else f"{thr:.6g}"
            print(f"stage {i}: scale M={chosen} accepted "
                  f"(gap {gap:.6g}, threshold {thr_s}, "
                  f"{len(probes)} probed)")
        elif probes:
            last = probes[-1]
            print(f"stage {i}: not completed ({len(probes)} probed, "
                  f"last scale M={last['scale']}, gap {last['gap']:.6g})")
        else:
            print(f"stage {i}: not completed (no admissible scale to probe)")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, vars(args))
    profile = _resolve_profile(cfg)
    eta = _resolve_eta(profile, cfg)
    try:
        stage = build_measure(profile, eta=eta, eps=cfg.eps,
                              stages=cfg.stages, config=cfg.build)
    except (BandwidthBudgetError, WindowExhaustedError) as exc:
        code = EXIT_BUDGET if isinstance(exc, BandwidthBudgetError) \
            else EXIT_WINDOW
        status = "bandwidth-budget" if code == EXIT_BUDGET else "window-exhausted"
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial is not None:
            path = _write_build_outputs(exc.partial, cfg, status, str(exc))
            _print_stage_lines(exc.partial)
            print(f"partial artifact ({exc.partial.stages} of "
                  f"{exc.partial.requested_stages} stages) written to {path}")
        return code
    path = _write_build_outputs(stage, cfg, "complete", None)
    _print_stage_lines(stage)
    print(f"artifact ({stage.stages} stages, Z = {stage.normalization!r}) "
          f"written to {path}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, vars(args))
    if not os.path.exists(args.stage_file):
        print(f"error: stage file not found: {args.stage_file}",
              file=sys.stderr)
        return EXIT_USAGE
    stage = MeasureStage.load(args.stage_file)
    decay = decay_report(stage)
    upper = borel_cantelli_report(stage, n_max=cfg.upper_q_max)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.format == "json":
        d_path = os.path.join(cfg.output_dir, "decay_report.json")
        u_path = os.path.join(cfg.output_dir, "upper_report.json")
        write_report_json(decay, d_path)
        write_report_json(upper, u_path)
    else:
        d_path = os.path.join(cfg.output_dir, "decay_bands.csv")
        u_path = os.path.join(cfg.output_dir, "upper_bounds.csv")
        write_decay_csv(decay, d_path)
        write_upper_csv(upper, u_path)
    print(f"nu_hat(0) = {decay.nu_hat_zero!r}")
    print(f"fitted_slope = {decay.fitted_slope!r}  "
          f"predicted_dimension = {decay.predicted_dimension!r}")
    print(f"decay target exponent = {-decay.target_exponent!r}  "
          f"certified floor = {decay.pointwise_error_bound!r}")
    print(f"upper-bound constant = {upper.constant!r}  "
          f"(q <= {upper.increment_cutoff} partial sums: measured "
          f"{upper.measured_partial!r} vs series {upper.series_partial!r})")
    print(f"reports written to {d_path} and {u_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON run config")
    sp.add_argument("--eta", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--stages", type=int)
    sp.add_argument("--xi-max", dest="xi_max", type=float)
    sp.add_argument("--tail-tol", dest="tail_tol", type=float)
    sp.add_argument("--bandwidth-budget", dest="bandwidth_budget", type=int)
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--format", choices=("json", "csv"))
    sp.add_argument("--samples-per-band", dest="samples_per_band", type=int)
    sp.add_argument("--kernel-halfwidth", dest="kernel_halfwidth", type=int)
    sp.add_argument("--band-margin", dest="band_margin", type=int)
    sp.add_argument("--upper-q-max", dest="upper_q_max", type=int)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dfourier",
        description="Fourier decay pipeline for coprimality-restricted "
                    "well-approximable sets")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ramanujan", help="restricted Ramanujan sum S(q, k)")
    sp.add_argument("q", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("a", type=int, nargs="?", default=0)
    sp.add_argument("b", type=int, nargs="?", default=1)
    sp.add_argument("--method", choices=("brute", "divisor", "both"),
                    default="divisor")
    sp.set_defaults(func=cmd_ramanujan)

    sp = sub.add_parser("residues",
                        help="restricted residue set and its cardinality")
    sp.add_argument("q", type=int)
    sp.add_argument("a", type=int, nargs="?", default=0)
    sp.add_argument("b", type=int, nargs="?", default=1)
    sp.set_defaults(func=cmd_residues)

    sp = sub.add_parser("buckets",
                        help="dyadic scale table with bucket masses")
    sp.add_argument("--k-range", dest="k_range",
                    help="restrict rows to LO:HI stage indices")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_buckets)

    sp = sub.add_parser("build", help="run the staged measure construction")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("analyze",
                        help="decay and upper-bound reports for an artifact")
    sp.add_argument("stage_file")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_analyze)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArtifactError as exc:
        print(f"error: corrupt artifact {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
