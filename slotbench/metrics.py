"""Statistics and span folding for the slot-pipeline benchmark.

Pure functions over slot_pipeline's raw output, kept apart from run.py so the
rules below are unit-tested (see test_metrics.py):

* tail_percentile -- the highest percentile with at least ten samples
  beyond it, with the percentile and the sample count it rests on.
* slot_tail       -- that tail over distinct slots: one value per slot, its
  median across the run's passes.
* self_times      -- a span's duration minus the part of its interval that
  its child spans cover.
* fold            -- self time summed per span name under each root; the
  root's own self time is the traced time that no span explains.
"""

from collections import defaultdict
import statistics

# The tail is the highest percentile that still has this many samples above
# it, so it never rests on one or two outliers.
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Return {"value", "percentile", "samples"}, or None below beyond+1.

    With n sorted samples the value is the (beyond+1)-th largest: exactly
    `beyond` samples lie above it, and it sits at percentile 100*(n-beyond)/n.
    """
    n = len(samples)
    if n < beyond + 1:
        return None
    ordered = sorted(samples)
    return {
        "value": ordered[n - beyond - 1],
        "percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def slot_tail(passes, beyond=TAIL_BEYOND):
    """tail_percentile over the distinct slots of `passes`.

    `passes` holds one list of slot times per pass, every pass over the same
    slots. Each slot contributes its median across passes, so replaying the
    same slots again never adds samples to the tail.
    """
    per_slot = [statistics.median(times) for times in zip(*passes)]
    return tail_percentile(per_slot, beyond)


def _covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> self time in the spans' own unit (ns).

    Each span is a dict with "id", "start_ns", "end_ns" and "parent" (-1 for
    a root). Child intervals are clipped to the parent and merged first, so
    overlapping or overhanging children are never subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        out[span["id"]] = (end - start) - _covered(start, end,
                                                   children[span["id"]])
    return out


def fold(spans, root_name):
    """Fold the spans under each root named `root_name`, one entry per root.

    Each entry is (seconds by span name, unattributed seconds): the first
    maps each descendant's name to its summed self time, the second is the
    root's own self time, i.e. traced time inside it that no child explains.
    By construction the two add up to the root's duration.
    """
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)

    def root_of(span):
        while span["parent"] >= 0:
            span = by_id[span["parent"]]
        return span

    folded = {}
    for span in spans:
        root = root_of(span)
        if root["name"] != root_name:
            continue
        per_name, unattributed = folded.setdefault(
            root["id"], (defaultdict(float), [0.0]))
        seconds = selfs[span["id"]] * 1e-9
        if span is root:
            unattributed[0] += seconds
        else:
            per_name[span["name"]] += seconds
    return [(dict(per_name), unattributed[0])
            for per_name, unattributed in folded.values()]
