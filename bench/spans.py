"""Span tracing of sleepmon layers from outside the program.

The tracer replaces public functions of the sleepmon modules with timing
wrappers, at every name a caller looks them up through: ``scoring`` imports
``crop_roi``, ``luma``, ``morph_smooth`` and ``foreground_area`` by name,
``events`` imports ``make_models`` and ``score_session``, and ``cli`` imports
``load_session`` and ``write_session``.  ``BackgroundModel.update_and_classify``
is split into one span per model channel.

Spans nest: a span's self time is its duration minus the time of the spans
it called, and the tracer's own bookkeeping (including the counters taken
after a call returns) is removed from every enclosing span.  Only one thread
may run traced code; the benchmark runs the program at ``workers=1``.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

import numpy as np

# Span name -> the (module, attribute path) sites that are wrapped for it.
SITES = {
    "cli.detect": [("sleepmon.cli", "cmd_detect")],
    "cli.report": [("sleepmon.cli", "cmd_report")],
    "cli.generate": [("sleepmon.cli", "cmd_generate")],
    "session.load_session": [("sleepmon.cli", "load_session"),
                             ("sleepmon.session", "load_session")],
    "session.write_session": [("sleepmon.cli", "write_session"),
                              ("sleepmon.session", "write_session")],
    "session.validate_session": [("sleepmon.session", "validate_session")],
    "session.frame_read": [("sleepmon.session", "Session.depth_frame"),
                           ("sleepmon.session", "Session.color_frame")],
    "session.crop_roi": [("sleepmon.scoring", "crop_roi"),
                         ("sleepmon.session", "crop_roi")],
    "synth.read_scenario": [("sleepmon.synth", "read_scenario")],
    "synth.generate": [("sleepmon.synth", "generate")],
    "synth.frames": [("sleepmon.synth", "_LazyFrames.__getitem__")],
    "background.update": [("sleepmon.background", "BackgroundModel.update_and_classify")],
    "background.luma": [("sleepmon.scoring", "luma"), ("sleepmon.background", "luma")],
    "background.morph_smooth": [("sleepmon.scoring", "morph_smooth"),
                                ("sleepmon.background", "morph_smooth")],
    "background.foreground_area": [("sleepmon.scoring", "foreground_area"),
                                   ("sleepmon.background", "foreground_area")],
    "scoring.make_models": [("sleepmon.events", "make_models"),
                            ("sleepmon.scoring", "make_models")],
    "scoring.score_session": [("sleepmon.events", "score_session"),
                              ("sleepmon.scoring", "score_session")],
    "scoring.audio": [("sleepmon.scoring", "audio_score")],
    "scoring.format_scores_csv": [("sleepmon.scoring", "format_scores_csv")],
    "scoring.parse_scores_csv": [("sleepmon.scoring", "parse_scores_csv")],
    "events.run_detector": [("sleepmon.events", "run_detector")],
    "events.epochize": [("sleepmon.events", "epochize")],
    "events.detect_events": [("sleepmon.events", "detect_events")],
    "events.epoch_peaks": [("sleepmon.events", "epoch_peaks")],
    "events.format_epochs_csv": [("sleepmon.events", "format_epochs_csv")],
    "events.format_event_log": [("sleepmon.events", "format_event_log")],
    "events.parse_event_log": [("sleepmon.events", "parse_event_log")],
    "analysis.classify_epochs": [("sleepmon.analysis", "classify_epochs")],
    "analysis.build_report": [("sleepmon.analysis", "build_report")],
    "actigraphy.counts_from_scores": [("sleepmon.actigraphy", "counts_from_scores")],
    "actigraphy.cole_sleep_wake": [("sleepmon.actigraphy", "cole_sleep_wake")],
    "actigraphy.sadeh_sleep_wake": [("sleepmon.actigraphy", "sadeh_sleep_wake")],
}


def _count_update(name, args, result, counters):
    frame = args[1]
    counters[name + ".px"] = counters.get(name + ".px", 0) + frame.size
    counters[name + ".fg_px"] = counters.get(name + ".fg_px", 0) + int(np.count_nonzero(result))
    if name == "background.update_depth":
        zeros = frame.size - int(np.count_nonzero(frame))
        counters[name + ".zero_px"] = counters.get(name + ".zero_px", 0) + zeros


def _count_events(name, args, result, counters):
    n = sum(len(v) for v in result.events.values())
    counters["events.count"] = counters.get("events.count", 0) + n


def _update_span_name(args):
    return "background.update_" + str(getattr(args[0], "channel", "unknown"))


# Spans whose wrapper names the span from the call's arguments and/or
# counts from its result: name -> (span name from args, counter).
HOOKS = {
    "background.update": (_update_span_name, _count_update),
    "events.run_detector": (None, _count_events),
}


class Tracer:
    """Aggregated spans: name -> [calls, total ns, self ns], plus counters."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self.missing_sites = []
        # One [child ns, excluded ns] frame per open span; the first is the root.
        self._stack = [[0, 0]]

    def _wrap(self, name, fn, name_of=None, count=None):
        spans, counters, stack = self.spans, self.counters, self._stack

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            span = name_of(args) if name_of else name
            dur = t1 - t0 - frame[1]
            st = spans.setdefault(span, [0, 0, 0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            parent = stack[-1]
            parent[0] += dur
            if count is not None:
                count(span, args, result, counters)
            parent[1] += frame[1] + perf_counter_ns() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every site in ``SITES``; sites that no longer exist are recorded."""
        for name, sites in SITES.items():
            name_of, count = HOOKS.get(name, (None, None))
            for module_name, path in sites:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing_sites.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self._wrap(name, fn, name_of, count))

    def summary(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "missing_sites": self.missing_sites}



def merge(summaries) -> dict:
    """Sum span and counter tallies of several traced processes."""
    spans, counters, missing = {}, {}, set()
    for s in summaries:
        for name, (calls, total, own) in s["spans"].items():
            st = spans.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += total
            st[2] += own
        for name, value in s["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.update(s["missing_sites"])
    return {"spans": spans, "counters": counters, "missing_sites": sorted(missing)}


# Per-layer metrics: (name, unit, how, span).  ``how`` reads the span tally
# (calls, total, self) of the traced operations; ``share:X`` divides the
# counter ``span.X`` by ``span.px``.
LAYER_METRICS = (
    ("background.update_depth.ms_per_frame", "ms", "ms_per_call", "background.update_depth"),
    ("background.update_luma.ms_per_frame", "ms", "ms_per_call", "background.update_luma"),
    ("background.update_depth.zero_px_fraction", "fraction", "share:zero_px",
     "background.update_depth"),
    ("background.update_depth.fg_fraction", "fraction", "share:fg_px", "background.update_depth"),
    ("background.update_luma.fg_fraction", "fraction", "share:fg_px", "background.update_luma"),
    ("background.luma.us_per_call", "us", "us_per_call", "background.luma"),
    ("background.morph_smooth.us_per_call", "us", "us_per_call", "background.morph_smooth"),
    ("background.foreground_area.us_per_call", "us", "us_per_call", "background.foreground_area"),
    ("session.crop_roi.us_per_call", "us", "us_per_call", "session.crop_roi"),
    ("session.load_session.ms", "ms", "ms_per_op", "session.load_session"),
    ("session.load_session.calls", "count", "calls_per_op", "session.load_session"),
    ("synth.frames.ms_per_frame", "ms", "ms_per_frame", "synth.frames"),
    ("session.frame_reads_per_frame", "ratio", "reads_per_frame", "session.frame_read"),
    ("session.validate_session.ms", "ms", "ms_per_op", "session.validate_session"),
    ("session.write_session.ms", "ms", "ms_per_op", "session.write_session"),
    ("scoring.make_models.ms", "ms", "ms_per_op", "scoring.make_models"),
    ("scoring.audio.us_per_frame", "us", "us_per_call", "scoring.audio"),
    ("scoring.score_session.self_ms", "ms", "self_ms_per_op", "scoring.score_session"),
    ("scoring.format_scores_csv.ms", "ms", "ms_per_op", "scoring.format_scores_csv"),
    ("scoring.parse_scores_csv.ms", "ms", "ms_per_op", "scoring.parse_scores_csv"),
    ("events.format_epochs_csv.ms", "ms", "ms_per_op", "events.format_epochs_csv"),
    ("events.format_event_log.ms", "ms", "ms_per_op", "events.format_event_log"),
    ("cli.detect.self_ms", "ms", "self_ms_per_op", "cli.detect"),
    ("events.epochize.ms", "ms", "ms_per_op", "events.epochize"),
    ("events.detect_events.ms", "ms", "ms_per_op", "events.detect_events"),
    ("events.count", "count", "count_per_op", "events.run_detector"),
    ("analysis.classify_epochs.ms", "ms", "ms_per_op", "analysis.classify_epochs"),
    ("analysis.build_report.ms", "ms", "ms_per_op", "analysis.build_report"),
    ("actigraphy.cole_sleep_wake.ms", "ms", "ms_per_op", "actigraphy.cole_sleep_wake"),
    ("actigraphy.sadeh_sleep_wake.ms", "ms", "ms_per_op", "actigraphy.sadeh_sleep_wake"),
)


def layer_metrics(trace: dict, expected: set, ops: int, frame_count: int):
    """Per-layer values of ``ops`` traced operations.

    Returns ``(values, missing, not_applicable)``.  A metric whose span is
    not expected on the workload is not applicable; an expected span that
    recorded no call is missing.  Both read 0 in ``values`` and are named in
    the lists, so a zero is never mistaken for a measured time.
    """
    spans, counters = trace["spans"], trace["counters"]
    values, missing, not_applicable = {}, set(), []
    for name, unit, how, span in LAYER_METRICS:
        calls, total, own = spans.get(span, (0, 0, 0))
        if span not in expected:
            not_applicable.append(name)
            values[name] = (0.0, unit)
            continue
        if calls == 0:
            missing.add(span)
            values[name] = (0.0, unit)
            continue
        if how == "ms_per_call":
            v = total / calls / 1e6
        elif how == "us_per_call":
            v = total / calls / 1e3
        elif how == "ms_per_op":
            v = total / ops / 1e6
        elif how == "self_ms_per_op":
            v = own / ops / 1e6
        elif how == "calls_per_op":
            v = calls / ops
        elif how == "ms_per_frame":
            v = total / (ops * frame_count) / 1e6
        elif how == "reads_per_frame":
            v = calls / (ops * 2 * frame_count)      # a depth and a color read per frame
        elif how == "count_per_op":
            v = counters.get(name, 0) / ops
        else:
            counter = how.split(":", 1)[1]
            v = counters.get(f"{span}.{counter}", 0) / counters[f"{span}.px"]
        values[name] = (v, unit)
    missing.update(span for span in expected if spans.get(span, (0,))[0] == 0)
    return values, sorted(missing), not_applicable
