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


def _load_config(args) -> dict:
    if not args.config:
        raise ValueError("--config is required for this subcommand")
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "masks_dir", None):
        cfg["contours"]["masks_dir"] = args.masks_dir
    return cfg


def _out_dir(args, cfg=None) -> Path:
    out = args.out or (cfg["out"] if cfg else None)
    if not out:
        raise ValueError("--out (or config 'out') is required")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vesselmesh",
        description="Tubular surface reconstruction from volumetric images",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    cmds = {
        "phantom": "rasterize a phantom volume with analytic ground truth",
        "centerline": "produce the smoothed k-station centerline CSV",
        "slice": "dump per-station cross-section PGMs",
        "segment": "extract, trace, resample, and lift lumen contours",
        "contours": "align adjacent contours by cyclic re-indexing",
        "fit": "skin the aligned contours with a NURBS surface",
        "mesh": "tessellate the surface and validate topology",
        "pipeline": "run all stages end to end",
        "study": "parameter study over centerline point counts",
        "compare": "NURBS pipeline vs marching-cubes baseline",
    }
    for name, help_text in cmds.items():
        sub = sp.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "phantom":
            sub.add_argument("--spec", help="PhantomSpec JSON file (alternative to --config)")
        if name == "study":
            sub.add_argument("--k-list", default="8,12,16,20,25", help="comma-separated point counts")
        if name in ("segment", "pipeline"):
            sub.add_argument("--masks-dir", help="external per-station PGM masks")

    merge = sp.add_parser("merge", help="merge a branch mesh into a main mesh")
    _add_common(merge)
    merge.add_argument("--main", required=True, help="main mesh OBJ")
    merge.add_argument("--branch", required=True, help="open branch tube OBJ")

    met = sp.add_parser("metrics", help="CD/HD/EMD between two meshes")
    _add_common(met)
    met.add_argument("--mesh", required=True, help="candidate mesh OBJ")
    met.add_argument("--reference", required=True, help="reference mesh OBJ")

    cdm_cmd = sp.add_parser("cdm", help="diffusion centerline model")
    cdm_sub = cdm_cmd.add_subparsers(dest="cdm_command", required=True)
    for name in ("train", "sample"):
        sub = cdm_sub.add_parser(name)
        _add_common(sub)
    return ap


def _run_stage_command(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    stage_fns = {
        "centerline": pipeline.stage_centerline,
        "slice": pipeline.stage_slices,
        "segment": pipeline.stage_segment,
        "contours": pipeline.stage_align,
        "fit": pipeline.stage_fit,
        "mesh": pipeline.stage_mesh,
    }
    path = stage_fns[args.command](cfg, out)
    print(f"{args.command}: wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "phantom":
            if args.spec:
                cfg = pipeline.resolve_config({"phantom": json.loads(Path(args.spec).read_text())})
            else:
                cfg = _load_config(args)
            out = _out_dir(args, cfg)
            path = pipeline.stage_volume(cfg, out)
            print(f"phantom: wrote {path}")
        elif args.command in ("centerline", "slice", "segment", "contours", "fit", "mesh"):
            return _run_stage_command(args)
        elif args.command == "pipeline":
            cfg = _load_config(args)
            out = _out_dir(args, cfg)
            summary = pipeline.run_pipeline(cfg, out)
            topo = summary["topology"]
            line = f"pipeline: mesh.obj watertight={topo['watertight']}"
            if "metrics" in summary:
                m = summary["metrics"]
                line += f" cd={m['cd_mm']:.4f}mm hd={m['hd_mm']:.4f}mm emd={m['emd_mm']:.4f}mm"
            print(line)
        elif args.command == "study":
            cfg = _load_config(args)
            out = _out_dir(args, cfg)
            k_list = tuple(int(x) for x in args.k_list.split(","))
            path = pipeline.param_study(cfg, out, k_list)
            print(f"study: wrote {path}")
            print(path.read_text().strip())
        elif args.command == "compare":
            cfg = _load_config(args)
            out = _out_dir(args, cfg)
            path = pipeline.compare_baseline(cfg, out)
            doc = json.loads(path.read_text())
            for key in ("nurbs", "marching_cubes"):
                m = doc[key]["metrics"]
                print(f"{key}: cd={m['cd_mm']:.4f}mm hd={m['hd_mm']:.4f}mm emd={m['emd_mm']:.4f}mm")
        elif args.command == "merge":
            out = _out_dir(args)
            merged, report = merge_branches(read_obj(args.main), read_obj(args.branch))
            write_obj(merged, out / "merged.obj")
            Path(out / "junction.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            print(
                f"merge: wrote merged.obj (removed {report.removed_triangles} triangles, "
                f"max bridge {report.max_bridge_length_mm:.3f} mm)"
            )
        elif args.command == "metrics":
            out = _out_dir(args)
            mesh = read_obj(args.mesh)
            ref = read_obj(args.reference)
            seed = args.seed if args.seed is not None else 0
            report = metrics.mesh_metric_report(
                mesh, ref, seed=seed, inputs={"mesh": args.mesh, "reference": args.reference}
            )
            Path(out / "metrics.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(
                f"metrics: cd={report['cd_mm']:.4f}mm hd={report['hd_mm']:.4f}mm "
                f"emd={report['emd_mm']:.4f}mm"
            )
        elif args.command == "cdm":
            cfg = _load_config(args)
            out = _out_dir(args, cfg)
            if args.cdm_command == "train":
                path = pipeline.train_cdm(cfg, out)
                print(f"cdm train: wrote {path}.json / {path}.f32")
            else:
                path = pipeline.sample_cdm(cfg, out)
                print(f"cdm sample: wrote {path}")
        else:  # pragma: no cover
            raise ValueError(f"unknown command {args.command}")
    except StageError as exc:
        return _fail(exc.stage, str(exc), STAGE_EXIT)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _fail("config", str(exc), CONFIG_EXIT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
