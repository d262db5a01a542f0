"""Command-line surface: generate sessions, detect events, build reports.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, events, scoring, synth
from .config import CHANNELS, Config, read_config, write_config
from .errors import ManifestMismatchError, PipelineError
from .session import load_manifest, load_session, write_session

EVENTS_LOG = "events.log"
SCORES_CSV = "scores.csv"
EPOCHS_CSV = "epochs.csv"
CONFIG_USED = "config_used.txt"
REPORT_TXT = "report.txt"
GROUNDTRUTH_LOG = "groundtruth.log"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_generate(args) -> int:
    if args.preset:
        scenario = synth.preset(args.preset, seed=args.seed)
    else:
        scenario = synth.read_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    session, truth = synth.generate(scenario)
    out = Path(args.out)
    write_session(session, out)
    _write_text(out / GROUNDTRUTH_LOG, events.format_event_log(truth.events))
    n_items = len(scenario.timeline)
    n_events = sum(len(v) for v in truth.events.values())
    print(f"generated {scenario.duration}s session at {out} "
          f"({n_items} timeline items, {n_events} expected events, seed {scenario.seed})")
    return 0


def cmd_detect(args) -> int:
    config = read_config(args.config) if args.config else Config()
    session = load_session(args.session)
    roi = session.manifest.roi
    scoring.check_roi_area(roi[2] * roi[3])
    result = events.run_detector(session, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / SCORES_CSV, scoring.format_scores_csv(result.scores))
    _write_text(out / EPOCHS_CSV, events.format_epochs_csv(result.epochs))
    _write_text(out / EVENTS_LOG, events.format_event_log(result.events))
    write_config(config, out / CONFIG_USED)
    counts = {ch: len(evs) for ch, evs in result.events.items()}
    print(f"detected events: motion={counts['motion']} light={counts['light']} "
          f"noise={counts['noise']} over {len(result.epochs['depth'])} epochs")
    return 0


def cmd_report(args) -> int:
    detect_dir = Path(args.detect)
    for name in (SCORES_CSV, EVENTS_LOG):
        if not (detect_dir / name).is_file():
            raise PipelineError(f"missing detection output {name} in {detect_dir}")
    config = (read_config(detect_dir / CONFIG_USED)
              if (detect_dir / CONFIG_USED).is_file() else Config())
    man = load_manifest(args.session)
    scores = scoring.parse_scores_csv((detect_dir / SCORES_CSV).read_text(encoding="utf-8"))
    if len(scores["depth"]) != man.frame_count:
        raise ManifestMismatchError(
            f"manifest mismatch: {SCORES_CSV} holds {len(scores['depth'])} frames, "
            f"manifest declares {man.frame_count}")
    detected = events.parse_event_log((detect_dir / EVENTS_LOG).read_text(encoding="utf-8"))

    depth = scoring.exact_visual_scores(scores["depth"], man.roi[2] * man.roi[3])
    report = analysis.sleep_report(depth, detected["light"], detected["noise"],
                                   man.video_rate, config)
    text = analysis.format_report(report)
    _write_text(detect_dir / REPORT_TXT, text)
    print(text, end="")
    return 0


def _match_spans(detected, truth, tolerance: int) -> tuple[int, int, int]:
    """Greedily pair each detected span with the first unused overlapping one.

    Spans overlap when they come within ``tolerance`` epochs.  The greedy
    pairing is a maximum matching (Glover 1967): ``parse_event_log`` only
    returns sorted, disjoint spans per channel, so the detected spans a truth
    span overlaps form a contiguous run whose last index never falls from one
    truth span to the next, and taking the first unused truth span is
    Glover's rule of taking the neighbour whose run ends first.
    """
    matched = 0
    used = [False] * len(truth)
    for ev in detected:
        for i, tv in enumerate(truth):
            if used[i]:
                continue
            if ev.start_epoch - tolerance <= tv.end_epoch and tv.start_epoch <= ev.end_epoch + tolerance:
                used[i] = True
                matched += 1
                break
    return matched, len(detected), len(truth)


def _tolerance(text: str) -> int:
    """The ``compare --tolerance`` value: a whole number of epochs, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a whole number of epochs >= 0, not {text!r}")
    return value


def cmd_compare(args) -> int:
    detected = events.parse_event_log(Path(args.events).read_text(encoding="utf-8"))
    truth = events.parse_event_log(Path(args.truth).read_text(encoding="utf-8"))
    all_ok = True
    for ch in CHANNELS.values():
        matched, n_det, n_truth = _match_spans(detected[ch], truth[ch], args.tolerance)
        precision = matched / n_det if n_det else 1.0
        recall = matched / n_truth if n_truth else 1.0
        all_ok &= precision == 1.0 and recall == 1.0
        print(f"channel={ch} precision={precision:.4f} recall={recall:.4f} "
              f"matched={matched} detected={n_det} expected={n_truth}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sleepmon",
                                     description="Multimodal sleep-monitoring pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a session from a preset or scenario file")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=synth.PRESETS)
    src.add_argument("--scenario", help="scenario file (key=value plus item= lines)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    det = sub.add_parser("detect", help="run the event detector over a session")
    det.add_argument("--session", required=True)
    det.add_argument("--config", default=None)
    det.add_argument("--out", required=True)
    det.set_defaults(func=cmd_detect)

    rep = sub.add_parser("report", help="build the sleep report from detection outputs")
    rep.add_argument("--session", required=True)
    rep.add_argument("--detect", required=True)
    rep.set_defaults(func=cmd_report)

    cmp_ = sub.add_parser("compare", help="precision/recall of an event log vs ground truth")
    cmp_.add_argument("--events", required=True)
    cmp_.add_argument("--truth", required=True)
    cmp_.add_argument("--tolerance", type=_tolerance, default=2)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
