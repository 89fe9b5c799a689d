"""Batch command-line front end: train, predict, evaluate, synth, sweep.

Wires ingestion -> normalization -> GP regression -> decision rules ->
metrics. All output files are written atomically (temp file + rename) so
a failing run never leaves a partial artifact. Exit status: 0 success,
1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data, diagnosis, gp, kernel, metrics
from .errors import InputError, NumericalError


class _Parser(argparse.ArgumentParser):
    """Raises InputError on a bad flag or subcommand: exit 1, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpgrade",
        description=(
            "Gaussian-process grade regression over feature CSVs, with "
            "threshold and uncertainty-flip referral decisions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model from a training CSV")
    train.set_defaults(run=cmd_train)
    train.add_argument("--train-csv", required=True, type=Path)
    train.add_argument("--model", required=True, type=Path, help="output archive path")
    train.add_argument("--max-train", type=int, default=2000,
                       help="training rows kept, drawn with --seed")
    grid = ", ".join(f"{scale:g}" for scale in gp._START_GRID)
    train.add_argument("--restarts", type=int,
                       help=f"searches, one from each of the length-scales {grid} x the median "
                            f"distance with the most evidence; default 2 below "
                            f"{gp._ONE_SEARCH_MIN_N:,} rows, else 1")
    train.add_argument("--seed", type=int, default=0)

    # predict, evaluate and sweep score a test CSV against a model the same way.
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--test-csv", required=True, type=Path)
    scoring.add_argument("--model", required=True, type=Path)
    scoring.add_argument("--out", required=True, type=Path)
    scoring.add_argument(
        "--grade-threshold", type=float, default=diagnosis.GRADE_THRESHOLD_DEFAULT
    )

    predict = sub.add_parser("predict", parents=[scoring], help="write per-sample predictions")
    evaluate = sub.add_parser(
        "evaluate", parents=[scoring], help="predict and score against labels"
    )
    for command, run in ((predict, cmd_predict), (evaluate, cmd_evaluate)):
        command.set_defaults(run=run)
        command.add_argument(
            "--std-threshold", type=float, default=diagnosis.STD_THRESHOLD_DEFAULT
        )

    synth = sub.add_parser("synth", help="generate a synthetic feature CSV")
    synth.set_defaults(run=cmd_synth)
    synth.add_argument("--out", required=True, type=Path)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--n-per-grade",
        default="50",
        help="per-grade sample counts: one integer for all grades, or five comma-separated",
    )
    synth.add_argument("--dim", type=int, default=8)
    synth.add_argument("--separation", type=float, default=6.0)
    synth.add_argument("--noise", type=float, default=1.0)

    sweep = sub.add_parser(
        "sweep", parents=[scoring], help="sensitivity/specificity over a grid of flip thresholds"
    )
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument(
        "--std-thresholds",
        required=True,
        help="comma-separated flip thresholds, one result row per value",
    )
    return parser


def _scored_runs(args):
    """Check --out and the threshold flags, load the archive, then draw the test CSV's runs in
    predict's blocks, scored as read: (ids, true referable labels (grades 2..4), means, stds)."""
    data._writable(args.out)  # before the archive is loaded and a temp file opened
    diagnosis._check_threshold("grade threshold", args.grade_threshold)  # before the n^3 rebuild
    if "std_threshold" in vars(args):  # predict and evaluate; sweep checks its list as parsed
        diagnosis._check_threshold("std threshold", args.std_threshold)
    model = data.load_model(args.model)
    if model.normalizer is None:
        raise InputError("model archive has no normalization statistics")

    def runs(first=0):
        for ids, X, grades in data._feature_runs(args.test_csv, gp._PREDICT_BLOCK):
            X = data._normalize_in_place(model.normalizer, X)
            kernel.row_sq_norms(X, "query", first=first)  # predict numbers the run's rows
            first += len(ids)
            yield (ids, grades >= 2, *gp.predict(model, X))

    return runs()


def _scored_arrays(args):
    """True referable labels, means and stds of every test row, and decisions before the flip."""
    labels, mean, std = map(np.concatenate, zip(*(run[1:] for run in _scored_runs(args))))
    return labels, mean, std, diagnosis.binarize(mean, args.grade_threshold)


def cmd_train(args) -> int:
    data._writable(args.model)  # before the rows are read and fitted
    gp._check_fit_options(args.max_train, args.restarts, args.seed)
    ids, X, grades = data.load_feature_csv(args.train_csv)
    stats = data.fit_normalizer(X)
    model = gp.fit(
        data._normalize_in_place(stats, X),  # one copy of the rows: none is kept raw
        grades.astype(float),
        max_train=args.max_train,
        restarts=args.restarts,
        seed=args.seed,
        normalizer=stats,
    )
    data.save_model(model, args.model)
    print(f"trained on {model.X_train.shape[0]} of {len(ids)} records")
    print(f"log_marginal_likelihood {model.log_evidence!r}")
    print(f"length_scale {model.hp.length_scale!r}")
    print(f"signal_variance {model.hp.signal_variance!r}")
    print(f"noise_variance {model.hp.noise_variance!r}")
    print(f"model written to {args.model}")
    return 0


def cmd_predict(args) -> int:
    runs, counts = _scored_runs(args), []

    def lines():  # one chunk per run, written as it is scored
        yield "id,mean,std,referable,flipped\n"
        for ids, _, mean, std in runs:
            base = diagnosis.binarize(mean, args.grade_threshold)
            referable, flipped = diagnosis.apply_uncertainty_flip(base, std, args.std_threshold)
            counts.append(len(ids))
            rows = zip(ids, mean.tolist(), std.tolist(), referable.tolist(), flipped.tolist())
            yield "".join(f"{id_},{m!r},{s!r},{str(r).lower()},{str(f).lower()}\n"
                          for id_, m, s, r, f in rows)

    data._atomic_write(args.out, lines())
    print(f"wrote {sum(counts)} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    box_path = data._writable(data._writable(args.out).with_name(args.out.stem + ".boxstats.txt"))
    labels, mean, std, base = _scored_arrays(args)
    referable, flipped = diagnosis.apply_uncertainty_flip(base, std, args.std_threshold)
    report = metrics.evaluate(referable, labels, mean, std)
    document = {
        "grade_threshold": args.grade_threshold,
        "std_threshold": args.std_threshold,
        "n_flipped": int(flipped.sum()),
        **report.to_dict(),
    }
    data._atomic_write(args.out, json.dumps(document, indent=2, sort_keys=True) + "\n")
    try:
        data._atomic_write(box_path, metrics.box_stats_table(report.group_stats))
    except InputError:
        args.out.unlink()  # a report without its box stats is a partial artifact
        raise
    sys.stdout.write(report.to_text())
    print(f"report written to {args.out}")
    print(f"box stats written to {box_path}")
    return 0


def cmd_synth(args) -> int:
    data._writable(args.out)  # before the rows are drawn
    parts = [p.strip() for p in str(args.n_per_grade).split(",")]
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"bad --n-per-grade value {args.n_per_grade!r}") from None
    if len(counts) == 1:
        counts = counts * 5
    if len(counts) != 5:
        raise InputError("--n-per-grade takes one integer or five comma-separated")
    ids, X, grades = data.synthesize_dataset(
        counts, args.dim, args.separation, args.noise, args.seed
    )
    data.write_feature_csv(ids, X, grades, args.out)
    print(f"wrote {len(ids)} synthetic records to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    parts = [p.strip() for p in str(args.std_thresholds).split(",") if p.strip()]
    try:
        thresholds = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"bad --std-thresholds value {args.std_thresholds!r}") from None
    if not thresholds:
        raise InputError("--std-thresholds needs at least one value")
    for t in thresholds:  # before the archive is loaded
        diagnosis._check_threshold("std threshold", t)
    labels, mean, std, base = _scored_arrays(args)
    lines = ["std_threshold,tp,fp,tn,fn,sensitivity,specificity,n_flipped\n"]
    for t in thresholds:
        referable, flipped = diagnosis.apply_uncertainty_flip(base, std, t)
        r = metrics.evaluate(referable, labels, mean, std)
        row = (t, r.tp, r.fp, r.tn, r.fn, r.sensitivity, r.specificity, int(flipped.sum()))
        lines.append(",".join(map(metrics._fmt, row)) + "\n")
    data._atomic_write(args.out, "".join(lines))
    print(f"wrote {len(thresholds)} sweep rows to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (InputError, MemoryError) as exc:  # an allocation the input asked for failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
