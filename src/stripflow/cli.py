"""Batch command-line front end.

Two subcommands: `run` executes a scenario pipeline (evolution or one of
the diagnostic modes) and writes an output directory with a manifest;
`validate` loads a scenario, runs the embedded validation reports and
prints them without executing anything.

Exit codes: 0 completed, 2 validation failure or a refused argument, 3
breakdown (outputs are still written), 4 internal error.
"""

import argparse
import sys
import traceback

from ._version import __version__
from .errors import (AdmissibilityError, EllipticityError, FreezePointError,
                     ScenarioError, SpectralValidationError, StripflowError)
from .scenario import MODES, load_scenario, output_dir, run
from .stepper import STATUS_BOUNDARY, STATUS_COMPLETED, STATUS_NORM_BLOWUP

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BREAKDOWN = 3
EXIT_INTERNAL = 4


def _apply_thread_cap(deterministic):
    """Cap BLAS to one thread for a deterministic run, through threadpoolctl
    when it is installed.  numpy has loaded its BLAS by now, so without
    threadpoolctl the caller sets OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1
    before starting the process."""
    if not deterministic:
        return
    try:
        import threadpoolctl
    except ImportError:
        return
    threadpoolctl.threadpool_limits(limits=1)


def seed(text):
    """The --seed argument: a non-negative int (argparse names the type)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stripflow",
        description="one-phase free-boundary evolution on the flattened strip")
    parser.add_argument("--version", action="version",
                        version=f"stripflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario pipeline")
    run_p.add_argument("scenario", help="path to a .scn scenario file")
    run_p.add_argument("--mode", default="evolve", choices=MODES,
                       help="pipeline to execute (default: evolve)")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: scenario's setting)")
    run_p.add_argument("--deterministic", action="store_true",
                       help="zeroed wall-clock for byte-identical reruns; "
                            "BLAS capped to one thread through threadpoolctl "
                            "if installed, else set OMP_NUM_THREADS=1 "
                            "OPENBLAS_NUM_THREADS=1 before the run")
    run_p.add_argument("--seed", type=seed, default=0,
                       help="seed for randomized diagnostic ensembles")

    val_p = sub.add_parser("validate",
                           help="load a scenario and print its reports")
    val_p.add_argument("scenario", help="path to a .scn scenario file")
    return parser


def _print_validation(scn):
    adm = scn.admissibility_report
    ell = scn.ellipticity_report
    sec = scn.sectorial_report
    print(f"scenario   : {scn.name} ({scn.path})")
    print(f"checksum   : {scn.checksum}")
    print(f"grid       : nx={scn.nx} ny={scn.ny} m={scn.m} L={scn.L:.6g}")
    print(f"sectorial  : passed={sec.passed} worst_ratio={sec.worst_ratio:.3e}")
    print(f"ellipticity: passed={ell.passed} margin={ell.margin:.3e} "
          f"floor_min={ell.floor:.3e}")
    print(f"W1 margin  : {adm.margin:.6g} (in_W1={adm.in_W1}) at "
          f"x={adm.margin_argmin:.6g}")
    print(f"V_nu       : in_Vnu={adm.in_Vnu} gap={adm.vnu_gap:.6g}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_thread_cap(getattr(args, "deterministic", False))
    try:
        scn = load_scenario(args.scenario)
    except StripflowError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL

    if args.command == "validate":
        _print_validation(scn)
        return EXIT_OK

    try:
        manifest, status = run(scn, mode=args.mode, out_dir=args.out,
                               deterministic=args.deterministic,
                               seed=args.seed)
    except (AdmissibilityError, EllipticityError, FreezePointError,
            ScenarioError, SpectralValidationError) as exc:
        # a diagnose mode refuses a freeze node whose components differ,
        # whose frozen coefficients fall below the ellipticity floor, or
        # whose graded norms vanish
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL

    print(f"status={status} mode={args.mode} out={output_dir(scn, args.out)} "
          f"checksum={manifest.scenario_checksum[:12]}")
    if status == STATUS_COMPLETED:
        return EXIT_OK
    if status in (STATUS_BOUNDARY, STATUS_NORM_BLOWUP):
        return EXIT_BREAKDOWN
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
