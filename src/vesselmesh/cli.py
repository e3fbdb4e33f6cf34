"""Command-line interface, one subcommand per pipeline stage.

Exit codes: 0 success, 2 config error, 3 stage failure.  Failures print a
single machine-readable JSON line {"stage": ..., "error": ...}; successes
print a short human summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import metrics, pipeline
from .meshkit import merge_branches, read_obj, write_obj
from .pipeline import StageError

CONFIG_EXIT = 2
STAGE_EXIT = 3


def _fail(stage: str, message: str, code: int) -> int:
    print(json.dumps({"stage": stage, "error": message}))
    return code


def _scores(report: dict) -> str:
    return f"cd={report['cd_mm']:.4f}mm hd={report['hd_mm']:.4f}mm emd={report['emd_mm']:.4f}mm"


def _stage_command(name: str, stage_fn):
    return lambda cfg, out, args: f"{name}: wrote {stage_fn(cfg, out)}"


def _pipeline(cfg, out, args) -> str:
    summary = pipeline.run_pipeline(cfg, out)
    line = f"pipeline: mesh.obj watertight={summary['topology']['watertight']}"
    return f"{line} {_scores(summary['metrics'])}" if "metrics" in summary else line


def _study(cfg, out, args) -> str:
    path = pipeline.param_study(cfg, out, tuple(int(x) for x in args.k_list.split(",")))
    return f"study: wrote {path}\n{path.read_text().strip()}"


def _compare(cfg, out, args) -> str:
    doc = json.loads(pipeline.compare_baseline(cfg, out).read_text())
    return "\n".join(f"{key}: {_scores(doc[key]['metrics'])}" for key in ("nurbs", "marching_cubes"))


def _merge(cfg, out, args) -> str:
    merged, report = merge_branches(read_obj(args.main), read_obj(args.branch))
    write_obj(merged, out / "merged.obj")
    pipeline._write_json(out / "junction.json", report.to_dict())
    return (f"merge: wrote merged.obj (removed {report.removed_triangles} triangles, "
            f"max bridge {report.max_bridge_length_mm:.3f} mm)")


def _metrics(cfg, out, args) -> str:
    report = metrics.mesh_metric_report(read_obj(args.mesh), read_obj(args.reference), seed=cfg["seed"],
                                        inputs={"mesh": args.mesh, "reference": args.reference})
    pipeline._write_json(out / "metrics.json", report)
    return f"metrics: {_scores(report)}"


def _train(cfg, out, args) -> str:
    path = pipeline.train_cdm(cfg, out)
    return f"cdm train: wrote {path}.json / {path}.f32"


_MASKS_DIR = ("--masks-dir", {"help": "external per-station PGM masks"})

# subcommand ("cdm train" is `train` under `cdm`) -> (help, extra flags,
# handler); a handler takes the resolved config, the output directory and the
# parsed arguments, and returns the summary to print
COMMANDS = {
    "phantom": ("rasterize a phantom volume with analytic ground truth",
                [("--spec", {"help": "PhantomSpec JSON file (alternative to --config)"})],
                _stage_command("phantom", pipeline.stage_volume)),
    "centerline": ("produce the smoothed k-station centerline CSV", [],
                   _stage_command("centerline", pipeline.stage_centerline)),
    "slice": ("dump per-station cross-section PGMs", [], _stage_command("slice", pipeline.stage_slices)),
    "segment": ("extract, trace, resample, and lift lumen contours", [_MASKS_DIR],
                _stage_command("segment", pipeline.stage_segment)),
    "contours": ("align adjacent contours by cyclic re-indexing", [],
                 _stage_command("contours", pipeline.stage_align)),
    "fit": ("skin the aligned contours with a NURBS surface", [], _stage_command("fit", pipeline.stage_fit)),
    "mesh": ("tessellate the surface and validate topology", [], _stage_command("mesh", pipeline.stage_mesh)),
    "pipeline": ("run all stages end to end", [_MASKS_DIR], _pipeline),
    "study": ("parameter study over centerline point counts",
              [("--k-list", {"default": "8,12,16,20,25", "help": "comma-separated point counts"})], _study),
    "compare": ("NURBS pipeline vs marching-cubes baseline", [], _compare),
    "merge": ("merge a branch mesh into a main mesh",
              [("--main", {"required": True, "help": "main mesh OBJ"}),
               ("--branch", {"required": True, "help": "open branch tube OBJ"})], _merge),
    "metrics": ("CD/HD/EMD between two meshes",
                [("--mesh", {"required": True, "help": "candidate mesh OBJ"}),
                 ("--reference", {"required": True, "help": "reference mesh OBJ"})], _metrics),
    "cdm train": ("train the diffusion centerline model", [], _train),
    "cdm sample": ("sample a centerline from a trained model", [],
                   _stage_command("cdm sample", pipeline.sample_cdm)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vesselmesh",
                                 description="Tubular surface reconstruction from volumetric images")
    sp = ap.add_subparsers(dest="command", required=True)
    groups = {"": sp, "cdm": sp.add_parser("cdm", help="diffusion centerline model")
              .add_subparsers(dest="cdm_command", required=True)}
    common = [("--config", {"help": "JSON config file"}), ("--out", {"help": "output directory"}),
              ("--seed", {"type": int, "default": None, "help": "override config seed"})]
    for name, (help_text, flags, handler) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        sub = groups[group].add_parser(leaf, help=help_text)
        for flag, kwargs in common + flags:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=handler)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "spec", None):
            cfg = pipeline.resolve_config({"phantom": json.loads(Path(args.spec).read_text())})
        elif args.config or args.handler in (_merge, _metrics):  # these take their inputs from flags
            cfg = pipeline.load_config(args.config) if args.config else pipeline.resolve_config({})
        else:
            raise ValueError("--config is required for this subcommand")
        if args.seed is not None:
            cfg["seed"] = args.seed
        if getattr(args, "masks_dir", None):
            cfg["contours"]["masks_dir"] = args.masks_dir
        out = args.out or cfg["out"]
        if not out:
            raise ValueError("--out (or config 'out') is required")
        Path(out).mkdir(parents=True, exist_ok=True)
        print(args.handler(cfg, Path(out), args))
    except StageError as exc:
        return _fail(exc.stage, str(exc), STAGE_EXIT)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _fail("config", str(exc), CONFIG_EXIT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
